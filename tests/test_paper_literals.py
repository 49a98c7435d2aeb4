"""The paper's operating point and anchors are stated once, in ``wva_lab.paper``.

Read with ``ast``: no module of ``src/wva_lab`` other than ``paper.py`` holds
a float literal equal to a ``PAPER`` value whose role is ``input`` or
``anchor``.  Such a literal restates a preset, so a change to the preset
would not reach it; the module reads ``PAPER`` instead.  Outputs are not
presets: a scenario compares its results with them and never uses them as
inputs.  The wave-plate index 1.54 of ``metrology.TiltGeometry`` has no
``PAPER`` entry, and the number lists of ``oracle_suite``'s verification
matrix are strings, so neither is a preset literal.
"""
import ast
from pathlib import Path

from wva_lab.paper import PAPER

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wva_lab"
PRESETS = {quoted.value: name for name, quoted in PAPER.items() if quoted.role in ("input", "anchor")}


def _restated(source: str, presets: dict) -> list:
    """(line, preset name) of every float literal in ``source`` whose value is a key of ``presets``, by line."""
    return sorted((node.lineno, presets[node.value]) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and type(node.value) is float and node.value in presets)


def test_finder_finds_restated_presets():
    source = (
        "rho = 0.002\n"
        "def f(x=2e-3, y=0.0021, n=3):\n"
        "    return g(x, '0.002', 148.8, -0.002)\n"
    )
    presets = {0.002: "rho_rad", 148.8: "target_delta_k_n3_fm"}
    assert _restated(source, presets) == [(1, "rho_rad"), (2, "rho_rad"), (3, "rho_rad"), (3, "target_delta_k_n3_fm")]


def test_presets_cover_inputs_and_anchors_only():
    assert PRESETS[0.002] == "rho_rad" and PRESETS[148.8] == "target_delta_k_n3_fm"
    assert 497.8 not in PRESETS  # fig5's quoted coherent precision is an output
    assert len(PRESETS) == sum(quoted.role != "output" for quoted in PAPER.values())


def test_no_module_restates_a_preset():
    found = [(path.stem, line, name) for path in sorted(PACKAGE.glob("*.py")) if path.name != "paper.py"
             for line, name in _restated(path.read_text(), PRESETS)]
    assert found == []
