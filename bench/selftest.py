#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs each workload's traced run twice at seed 0 and checks that:
  * every output check passed;
  * every work counter (calls, points, bytes) repeats exactly;
  * the layer split matches the predictions: on sweeps the moment kernel's
    self time is most of the untraced pass, and on tables and checks the
    moment kernel is never called.
Then runs the benchmark in a directory that holds only BENCHMARK.json and
bench/, where it must exit non-zero without printing a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH, OUT, ROOT
from workloads import WORKLOADS

KERNEL = "meter.collapse_moments_on_grid"


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            proc = bench(ROOT, workload, 1)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                failures.append(f"{workload}: output checks failed\n{proc.stderr}")
            runs.append(result["metrics"])
        for name, metric in runs[0].items():
            if metric["unit"] != "s" and metric["value"] != runs[1][name]["value"]:
                failures.append(f"{workload}: {name} {metric['value']} then {runs[1][name]['value']}")
        m = runs[0]
        if workload == "sweeps":
            share = m[f"{KERNEL}.s"]["value"] / m["trace.untraced_wall_s"]["value"]
            print(f"sweeps: {KERNEL} self time is {share:.0%} of the untraced pass")
            if share <= 0.5:
                failures.append(f"sweeps: {KERNEL} is only {share:.0%} of the pass")
        elif m[f"{KERNEL}.calls"]["value"] != 0:
            failures.append(f"{workload}: {KERNEL} called {m[f'{KERNEL}.calls']['value']} times")
        print(f"{workload}: counters repeat across two traced runs")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "tables", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
