"""Benchmark workloads and the checks applied to their outputs.

A workload is a pass: a fixed list of ``wva-lab`` invocations, given as the
argument lists that ``wva_lab.cli.main`` takes.  Seed 0 runs the registry
defaults; any other seed draws widths, ``rho_rad`` and ``gamma_pi_units``
from the ranges below for the sweeps and tables workloads.  The ranges keep every grid at its default point
count and every table at its default row count, so the work per pass does
not depend on the seed.
"""
from __future__ import annotations

import csv
import io
import math
import random

RHO_RAD = (0.0015, 0.003)        # registry default 0.002
GAMMA_PI_UNITS = (1.6, 2.2)      # registry default 1.9
RHO_MIN_RAD = (0.001, 0.003)     # registry default 0.002 (fig6, s4)
FIG6_RHO_SPAN_RAD = 0.0104       # fig6 default span: 53 scan points at 2e-4

# Columns that hold a rounding-error measure rather than a physical value.
# They are held to a limit at every seed instead of being pinned.
ERROR_COLUMNS = {
    "oracle_suite": {"oracle_max_rel_dev_1": 1e-10},   # the suite's own oracle tolerance
    "s4_weak_values": {"recovery_rel_error_1": 1e-9},  # verify's round-trip tolerance
}
# Summary keys that are error measures, gated by the program's own pass flag.
UNPINNED_SUMMARY = {
    "oracle_suite": {
        "oracle_worst_rel_dev",
        "closed_form_prob_worst_rel_dev",
        "closed_form_shift_worst_rel_dev",
    },
}
# Pinned values must match the seed-commit record within this share of their
# column's largest magnitude (a summary value: its own magnitude).  It is no
# tighter than the repo's 1e-9 closed-form gate, so a change that only moves
# the last digits still passes.
PIN_RTOL = 1e-9
PIN_SAMPLE_ROWS = 40
# Sweep rows recomputed with collapsed_density at every seed, per scenario.
SWEEP_SAMPLE_ROWS = 12


def _sets(**params) -> list:
    out = []
    for key, value in params.items():
        out += ["--set", f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"]
    return out


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sweeps(r: random.Random) -> list:
    widths = sorted(_log_uniform(r, 0.5, 8.0) for _ in range(4))
    return [
        ["run", "fig3a"] + _sets(rho_rad=r.uniform(*RHO_RAD), gamma_pi_units=r.uniform(*GAMMA_PI_UNITS),
                                 widths_nm=",".join(repr(w) for w in widths)),
        ["run", "fig3b"] + _sets(rho_rad=r.uniform(*RHO_RAD), gamma_pi_units=r.uniform(*GAMMA_PI_UNITS),
                                 width_min_nm=r.uniform(0.4, 0.8), width_max_nm=r.uniform(200.0, 300.0)),
        ["run", "fig4"] + _sets(rho_rad=r.uniform(*RHO_RAD), gamma_pi_units=r.uniform(*GAMMA_PI_UNITS),
                                width_nm=_log_uniform(r, 1.0, 10.0)),
    ]


def _tables(r: random.Random) -> list:
    # fig5 and s3 keep their widths: their quoted precisions are keyed by width
    rho_min = r.uniform(*RHO_MIN_RAD)
    return [
        ["run", "fig5"] + _sets(rho_rad=r.uniform(*RHO_RAD)),
        ["run", "fig6"] + _sets(rho_min_rad=rho_min, rho_max_rad=rho_min + FIG6_RHO_SPAN_RAD),
        ["run", "s2_spectrum_evolution"] + _sets(rho_rad=r.uniform(*RHO_RAD), gamma_pi_units=r.uniform(*GAMMA_PI_UNITS),
                                                 width_nm=r.uniform(1.0, 6.0)),
        ["run", "s3_intensity"] + _sets(rho_rad=r.uniform(*RHO_RAD)),
        ["run", "s4_weak_values"] + _sets(rho_min_rad=r.uniform(*RHO_MIN_RAD)),
    ]


def _checks(r: random.Random) -> list:
    # Both suites run their registry matrices at every seed.  Off-matrix
    # widths, angles or gammas trip oracle_suite's own 1e-10 pointwise oracle
    # gate in about a third of draws (the relative deviation grows near zeros
    # of the collapsed density): a program defect to fix, not a workload.
    return [["verify"], ["run", "oracle_suite"]]


WORKLOADS = {"sweeps": _sweeps, "tables": _tables, "checks": _checks}


def invocations(workload: str, seed: int) -> list:
    """Argument lists for one pass of ``workload``, without ``--out``."""
    argvs = WORKLOADS[workload](random.Random(seed))
    if seed == 0:
        return [argv[:2] for argv in argvs]
    return argvs


def invocation_id(argv) -> str:
    return argv[1] if argv[0] == "run" else argv[0]


def overrides(argv) -> dict:
    """The ``--set`` pairs of one invocation, as ``make_config`` takes them."""
    pairs = [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]
    return dict(p.split("=", 1) for p in pairs)


# ---------------------------------------------------------------------------
# Output parsing and checks
# ---------------------------------------------------------------------------

def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_summary(stdout: str) -> dict:
    """key=value lines that ``wva-lab run`` prints, minus the csv path."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and key != "csv":
            out[key] = _cell(value)
    return out


def parse_csv(data: bytes) -> tuple:
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    table = list(csv.reader(io.StringIO("\n".join(lines))))
    return table[0], [[_cell(c) for c in row] for row in table[1:]]


def status_errors(argv, rc: int, stdout: str) -> list:
    """Checks on one invocation's exit code and printed verdict."""
    errors = [] if rc == 0 else [f"exit code {rc}"]
    if argv[0] == "verify" and not stdout.rstrip().rpartition("\n")[2].startswith("verify: PASS"):
        errors.append("verify did not print PASS")
    if invocation_id(argv) == "oracle_suite" and parse_summary(stdout).get("pass") is not True:
        errors.append("oracle_suite pass != true")
    return errors


def _sample_index(n_rows: int, count: int) -> list:
    if n_rows <= count:
        return list(range(n_rows))
    return sorted({round(i * (n_rows - 1) / (count - 1)) for i in range(count)})


def record(scenario_id: str, stdout: str, data: bytes) -> dict:
    """What the seed-0 pin stores for one invocation."""
    header, rows = parse_csv(data)
    unpinned = UNPINNED_SUMMARY.get(scenario_id, set())
    index = _sample_index(len(rows), PIN_SAMPLE_ROWS)
    return {
        "header": header,
        "rows": len(rows),
        "scales": {col: max(abs(r[j]) for r in rows) for j, col in enumerate(header)
                   if isinstance(rows[0][j], float)},
        "sample_index": index,
        "sample": [rows[i] for i in index],
        "summary": {k: v for k, v in parse_summary(stdout).items() if k not in unpinned},
    }


def _close(value, ref, scale: float) -> bool:
    if isinstance(ref, float) and isinstance(value, float):
        return abs(value - ref) <= PIN_RTOL * scale
    return value == ref


def value_errors(scenario_id: str, stdout: str, data: bytes, reference: dict, pinned: bool) -> list:
    """Checks on one invocation's CSV and summary against the seed-0 record.

    Every seed: header, row count and summary size match the record, and
    error columns stay within their limit.  With ``pinned`` (seed 0): the
    sampled rows and the summary values match the record as well.
    """
    ref = reference[scenario_id]
    header, rows = parse_csv(data)
    summary = parse_summary(stdout)
    errors = []
    if header != ref["header"] or len(rows) != ref["rows"]:
        return [f"table shape {len(rows)}x{header} != recorded {ref['rows']}x{ref['header']}"]
    if len(summary) != len(ref["summary"]) + len(UNPINNED_SUMMARY.get(scenario_id, ())):
        errors.append(f"{len(summary)} summary values, recorded {len(ref['summary'])}")
    for col, limit in ERROR_COLUMNS.get(scenario_id, {}).items():
        worst = max(r[header.index(col)] for r in rows)
        if not worst <= limit:
            errors.append(f"{col} = {worst:.3e} exceeds {limit:.0e}")
    if not pinned:
        return errors
    skip = set(ERROR_COLUMNS.get(scenario_id, {}))
    for i, ref_row in zip(ref["sample_index"], ref["sample"]):
        for col, v, r in zip(header, rows[i], ref_row):
            if col not in skip and not _close(v, r, ref["scales"].get(col, 0.0)):
                errors.append(f"row {i} {col} = {v!r}, recorded {r!r}")
    for key, r in ref["summary"].items():
        v = summary.get(key)
        if not _close(v, r, abs(r) if isinstance(r, float) else 0.0):
            errors.append(f"summary {key} = {v!r}, recorded {r!r}")
    return errors


def sweep_sample_errors(argv, data: bytes) -> list:
    """Recompute sampled sweep rows with ``collapsed_density``, which builds
    its own refinement-guarded grid instead of reusing the sweep grid."""
    # imported here: run.py puts the checkout's src/ on sys.path first
    from wva_lab import MwiSettings, SPEED_OF_LIGHT, SpectralProfile, collapsed_density
    from wva_lab.scenarios import LAMBDA0_M, P0_RAD_PER_M, make_config

    scenario_id = invocation_id(argv)
    if scenario_id not in ("fig3a", "fig3b", "fig4"):
        return []
    params = make_config(scenario_id, overrides(argv)).params
    header, rows = parse_csv(data)
    gamma = float(params["gamma_pi_units"]) * math.pi / P0_RAD_PER_M
    scales = {col: max(abs(r[j]) for r in rows) for j, col in enumerate(header)}
    errors = []
    for i in _sample_index(len(rows), SWEEP_SAMPLE_ROWS):
        row = dict(zip(header, rows[i]))
        width_nm = row.get("sigma_lambda_nm", params.get("width_nm"))
        n = int(row.get("n_1", params.get("n_interactions")))
        profile = SpectralProfile(str(params["shape"]), LAMBDA0_M, float(width_nm) * 1e-9,
                                  int(params["order"]), str(params["width_convention"]))
        k = SPEED_OF_LIGHT * row["tau_as"] * 1e-18
        res = collapsed_density(profile, MwiSettings(n, k, gamma, float(params["rho_rad"])))
        expect = {"delta_lambda_nm": res.delta_lambda * 1e9,
                  "postselection_probability_1": res.postselection_probability}
        for col, value in expect.items():
            if col in row and not abs(row[col] - value) <= PIN_RTOL * scales[col]:
                errors.append(f"row {i} {col} = {row[col]!r}, collapsed_density {value!r}")
    return errors
