#!/usr/bin/env python3
"""Record the seed-0 outputs that the benchmark pins (reference_seed0.json).

    python3 bench/record_reference.py

Run it only at a commit whose outputs are known good: every later run of
bench/run.py at seed 0 is checked against what it writes.
"""
import io
import json
import sys
from contextlib import redirect_stdout

from run import OUT, REFERENCE, import_program
from workloads import WORKLOADS, invocations, record


def main() -> int:
    program = import_program()
    OUT.mkdir(exist_ok=True)
    reference = {}
    for workload in WORKLOADS:
        for argv in invocations(workload, 0):
            if argv[0] != "run":
                continue
            out = OUT / f"reference-{argv[1]}.csv"
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                rc = program.cli.main(argv + ["--out", str(out)])
            if rc != 0:
                print(f"{argv[1]} exited with {rc}; nothing recorded", file=sys.stderr)
                return 1
            reference[argv[1]] = record(argv[1], stdout.getvalue(), out.read_bytes())
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"recorded {len(reference)} scenarios to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
