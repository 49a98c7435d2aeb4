"""Every module of the package stays below a token budget.

The benchmark runs each process with PYTHONDONTWRITEBYTECODE=1, so every
process compiles the package from source.  Padding a copy of scenarios.py
stepped the peak RSS of a fresh ``import wva_lab.cli`` up by about 0.5 MB
once the module passed about 8,190 tokens, which shows in ``peak_rss_mb``
on every workload.  Tokens are counted as ``tokenize`` gives them, without
COMMENT, NL and ENCODING tokens.
"""
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wva_lab"
MAX_TOKENS = 8150
_UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def _tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for token in tokenize.tokenize(fh.readline) if token.type not in _UNCOUNTED)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_below_token_budget(path):
    tokens = _tokens(path)
    assert tokens <= MAX_TOKENS, (
        f"{path.name} has {tokens} tokens against MAX_TOKENS {MAX_TOKENS}: margin {MAX_TOKENS - tokens}"
    )
