#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for wva-lab.

    python3 bench/run.py --workload {sweeps,tables,checks,all} [--seed N]
                         [--seconds S] [--trace 0|1]

Runs one workload's pass (workloads.py) in this process through the public
entry point ``wva_lab.cli.main``: one caller in a closed loop, each pass
starting when the previous one ends, for ``--seconds`` after an untimed
warm-up pass.  The warm-up's outputs are checked against the seed-0 record
(reference_seed0.json); every later pass must write byte-identical CSVs.

--trace 0 reports the end-to-end metrics:
  wall_ref_s   median seconds per pass, from the first cli.main call to the
               last CSV on disk, at the reference machine speed (below)
  setup_s      median seconds from a fresh interpreter to wva_lab.cli
               imported and the pass's configs built (probe.py), at the
               reference machine speed
  peak_rss_mb  peak resident memory of a fresh process running one pass
and prints fail_ratio, the share of invocations that failed a check, and
wall_s, the unscaled median wall seconds per pass.

Reference machine speed: on a shared host the same pass runs up to 1.7x
slower while neighbours load the core, in spells of seconds to minutes, so
the median wall time of one run depends on when it ran.  A fixed probe that
shares no code with wva_lab (machine_probe) runs before the first and after
every invocation, and each invocation's wall seconds are scaled by
PROBE_REF_S over the mean of the two probes around it; so are the set-up
seconds of each fresh interpreter.

--trace 1 alternates untraced and traced passes and reports the layer
metrics of spans.py with the tracing overhead; the spans go to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when an output check
failed.  Without wva_lab sources under src/ the benchmark exits non-zero
and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import numpy as np

from spans import Tracer, metric_names
from workloads import (WORKLOADS, invocation_id, invocations, overrides, status_errors,
                       sweep_sample_errors, value_errors)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference_seed0.json"

SETUP_PROBES = 7          # plus the probe that also runs a pass
PROBE_REF_S = 0.012       # machine_probe seconds at the reference machine speed
PROBE_POINTS = 8193       # the sweep grids' point count
PROBE_NUMPY_REPS = 60
PROBE_PYTHON_STEPS = 15000
MIN_PASSES = 3
KEPT_TRACED_PASSES = 3    # traced passes whose spans are written out
PROBE_TIMEOUT_S = 120


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import wva_lab.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import wva_lab from {SRC}: {exc}")
    if Path(wva_lab.__file__).resolve().parent != SRC / "wva_lab":
        sys.exit(f"bench: imported wva_lab from {wva_lab.__file__}, not from {SRC}")
    return wva_lab


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(program) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": program.kernel_backend,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
    }


_PROBE_X = np.linspace(7.7e6, 7.9e6, PROBE_POINTS)
_PROBE_W = np.ones(PROBE_POINTS)


def machine_probe() -> float:
    """Seconds of fixed work that no change to wva_lab can alter: moment sums
    over a sweep-sized array, like the sweeps' kernel, and a loop of Python
    float and dict work, like the rest of a pass."""
    start = perf_counter()
    for _ in range(PROBE_NUMPY_REPS):
        s = np.sin(0.5 * (_PROBE_X * 3e-7 + 0.004))
        wd = _PROBE_W * _PROBE_W * s * s
        float(np.sum(wd))
        float(np.sum(wd * (_PROBE_X - 7.8e6)))
    acc, table = 0.0, {}
    for i in range(PROBE_PYTHON_STEPS):
        acc += (i * 0.5) % 7.0
        table[i & 1023] = str(i)
    return perf_counter() - start


def _call(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed invocation; the loop keeps running
        traceback.print_exc()
        return 1


class Workload:
    """One workload's pass, its output checks and its failure count."""

    def __init__(self, program, name: str, seed: int) -> None:
        self.main = program.cli.main
        self.name = name
        self.seed = seed
        self.out_dir = OUT / name
        self.argvs = [
            argv + ["--out", str(self.out_dir / f"{argv[1]}.csv")] if argv[0] == "run" else argv
            for argv in invocations(name, seed)
        ]
        self.reference = json.loads(REFERENCE.read_text())
        self.digests = None
        self.probes = [machine_probe()]
        self.attempted = 0
        self.failed = 0
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)

    def probe(self, with_pass: bool = False) -> tuple:
        """Set-up seconds of a fresh interpreter at the reference machine
        speed, and with ``with_pass`` its peak resident memory in MB after
        one pass."""
        spec = json.dumps({
            "configs": [[argv[1], overrides(argv)] for argv in self.argvs if argv[0] == "run"],
            "argvs": self.argvs,
        })
        cmd = [sys.executable, str(BENCH / "probe.py"), spec] + (["--pass"] if with_pass else [])
        before = machine_probe()
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            rest = proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        setup_s *= PROBE_REF_S / (0.5 * (before + machine_probe()))
        if ready.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        if not with_pass:
            return setup_s, None
        result = json.loads(rest.splitlines()[-1])
        self._count([[] if r == 0 else [f"exit code {r} in the memory probe"] for r in result["rcs"]])
        return setup_s, result["peak_rss_kb"] / 1024.0

    def run_pass(self, tracer: Tracer = None) -> tuple:
        """Run and check one pass; returns its wall seconds, and the same
        scaled to the reference machine speed."""
        results = []
        wall_s = ref_s = 0.0
        for argv in self.argvs:
            span = tracer.span(f"cli.main.{invocation_id(argv)}", "cli") if tracer else nullcontext()
            stdout = io.StringIO()
            start = perf_counter()
            with span, redirect_stdout(stdout):
                rc = _call(self.main, argv)
            seconds = perf_counter() - start
            self.probes.append(machine_probe())
            wall_s += seconds
            ref_s += seconds * PROBE_REF_S / (0.5 * (self.probes[-2] + self.probes[-1]))
            results.append((rc, stdout.getvalue()))

        first = self.digests is None
        digests, errors = [], []
        for i, (argv, (rc, stdout)) in enumerate(zip(self.argvs, results)):
            errs = status_errors(argv, rc, stdout)
            data = Path(argv[-1]).read_bytes() if argv[0] == "run" and rc == 0 else b""
            digests.append(hashlib.sha256(data).hexdigest())
            if first and argv[0] == "run" and not errs:
                errs += value_errors(argv[1], stdout, data, self.reference, pinned=self.seed == 0)
                errs += sweep_sample_errors(argv, data)
            elif not first and digests[i] != self.digests[i]:
                errs.append("CSV bytes differ from the first pass")
            errors.append(errs)
        if first:
            self.digests = digests
        self._count(errors)
        return wall_s, ref_s

    def _count(self, errors: list) -> None:
        self.attempted += len(errors)
        for argv, errs in zip(self.argvs, errors):
            self.failed += bool(errs)
            for err in errs:
                print(f"bench: {self.name} {invocation_id(argv)}: {err}", file=sys.stderr)


def _passes(seconds: float, step) -> None:
    """Call ``step`` for ``seconds``, at least MIN_PASSES times."""
    deadline = perf_counter() + seconds
    count = 0
    while count < MIN_PASSES or perf_counter() < deadline:
        step(count)
        count += 1


def _tail(samples: list) -> str:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if len(samples) * (100 - p) >= 1000:
            return f", p{p} {quantiles(samples, n=100)[p - 1]:.4f}"
    return ""


def measure_end_to_end(work: Workload, seconds: float) -> tuple:
    setups = [work.probe()[0] for _ in range(SETUP_PROBES)]
    setup_s, peak_rss_mb = work.probe(with_pass=True)
    setups.append(setup_s)
    work.run_pass()  # warm-up, and the pass whose values are checked
    walls, refs = [], []

    def step(_):
        wall_s, ref_s = work.run_pass()
        walls.append(wall_s)
        refs.append(ref_s)

    _passes(seconds, step)
    metrics = {
        "wall_ref_s": (median(refs), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    unscored = {"wall_s": (median(walls), "s")}
    notes = {
        "wall_ref_s": f"median of {len(refs)} passes, min {min(refs):.4f}{_tail(refs)}, max {max(refs):.4f}",
        "setup_s": f"median of {len(setups)} fresh interpreters, min {min(setups):.4f}, max {max(setups):.4f}",
        "peak_rss_mb": "one fresh process running one pass",
        "wall_s": f"unscaled median of {len(walls)} passes; machine probe median {median(work.probes):.5f} s, "
                  f"reference {PROBE_REF_S} s",
    }
    return metrics, unscored, notes, {"walls": walls, "ref_walls": refs, "probes": work.probes, "setups": setups}


def measure_layers(work: Workload, seconds: float) -> tuple:
    tracer = Tracer(KEPT_TRACED_PASSES)
    work.run_pass()
    plain, traced = [], []

    def pair(pass_id: int) -> None:
        plain.append(work.run_pass()[0])
        with tracer.installed(pass_id):
            traced.append(work.run_pass(tracer)[0])

    _passes(seconds, pair)
    per_pass = list(tracer.metrics.values())
    metrics = {}
    for name, unit in metric_names():
        if unit == "s":
            metrics[name] = (median(p[name] for p in per_pass), unit)
            continue
        metrics[name] = (per_pass[0][name], unit)
        if any(p[name] != per_pass[0][name] for p in per_pass):
            print(f"bench: counter {name} differs between passes", file=sys.stderr)
    metrics["trace.wall_s"] = (median(traced), "s")
    metrics["trace.untraced_wall_s"] = (median(plain), "s")
    metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")
    notes = {name: f"median of {len(traced)} traced passes" if unit == "s" else f"each of {len(traced)} traced passes"
             for name, (_, unit) in metrics.items()}
    notes["trace.untraced_wall_s"] = f"median of {len(plain)} untraced passes, alternating with the traced ones"
    return metrics, {}, notes, {"walls": plain, "traced_walls": traced, "trace": tracer.dump()}


def run_workload(program, env: dict, name: str, seed: int, seconds: float, trace: bool) -> tuple:
    work = Workload(program, name, seed)
    measure = measure_layers if trace else measure_end_to_end
    metrics, unscored, notes, detail = measure(work, seconds)
    tag = f"[{name} seed={seed} trace={int(trace)}]"
    for metric, (value, unit) in {**metrics, **unscored}.items():
        print(f"{tag} {metric} = {value:.6g} {unit} ({notes[metric]})")
    ratio = work.failed / work.attempted
    print(f"{tag} fail_ratio = {ratio:.6g} ratio ({work.failed} of {work.attempted} invocations failed a check)")
    print(f"{tag} env {json.dumps(env, sort_keys=True)}")
    record = {"workload": name, "seed": seed, "seconds": seconds, "env": env,
              "attempted": work.attempted, "failed": work.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **detail}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return metrics, work.attempted, work.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = import_program()
    if not REFERENCE.exists():
        sys.exit(f"bench: missing {REFERENCE}; run bench/record_reference.py at the seed commit")
    env = environment(program)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(program, env, name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
