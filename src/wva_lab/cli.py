"""Command-line interface.

    wva-lab run <scenario> [--config FILE] [--set key=value ...] [--out PATH]
    wva-lab list
    wva-lab verify

Exit codes: 0 success, 2 usage/config error (including an unreadable
--config file and an --out path that cannot be written), 3 numerical failure.
``main`` may be called repeatedly in one process; the parser is built on the
first call and reused.
"""
from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from ._version import __version__
from .errors import ConfigError, NumericalError
from .scenarios import list_scenarios, make_config, parse_config_text, run_scenario
from .verify import verify_all


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import, and reused: parsing
    # leaves the parser unchanged (the append action copies its default).
    parser = argparse.ArgumentParser(
        prog="wva-lab",
        description="Dual-pointer weak-value-amplification lab: scenario sweeps and verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"wva-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a named scenario and write its CSV table")
    run_p.add_argument("scenario", help="scenario id (see 'wva-lab list')")
    run_p.add_argument("--config", help="flat key=value config file", default=None)
    run_p.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a single config key (repeatable)",
    )
    run_p.add_argument("--out", help="CSV output path (default: <scenario>.csv)", default=None)

    sub.add_parser("list", help="list scenario ids with descriptions")
    sub.add_parser("verify", help="run the oracle and invariant suites")
    return parser


def _overrides_from_args(config_path: Optional[str], sets: Sequence[str]) -> dict:
    overrides: dict = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                overrides.update(parse_config_text(fh.read()))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path!r}: {exc}") from exc
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for scenario_id, description in list_scenarios():
                print(f"{scenario_id:22s} {description}")
            return 0
        if args.command == "verify":
            return 0 if verify_all() else 3
        config = make_config(
            args.scenario, _overrides_from_args(args.config, args.sets), out_path=args.out
        )
        try:
            result = run_scenario(config)
        except OSError as exc:
            # run_scenario opens the file only after the table is rendered and
            # prints the summary only after it is written, so none was printed
            raise ConfigError(f"cannot write output file {config.out_path!r}: {exc.strerror or exc}") from exc
        if result.summary.get("pass") is False:
            return 3
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
