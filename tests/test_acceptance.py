"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 1-9 are stated once, by the check functions in
``wva_lab.verify.CRITERIA`` (the checks behind ``wva-lab verify``); one test
is generated per entry, so a criterion added there is tested here too, and
each such test gives its check a fresh ``ScenarioRuns``, so it runs the
scenarios it reads itself.  Criterion 4's verify check covers fig3a's
rates; its fig3b half, the largest rate and the band, is tested here
alone.  Criterion 10 runs every scenario and ``verify`` within a time bound
and reruns each scenario for byte-identical CSVs.  The remaining tests hold
``wva-lab verify`` to its line names, to the scenario results and paper
numbers it reads, and to one run of each scenario it reads per call.
"""
import io
import math
import time
from dataclasses import replace

import pytest

from wva_lab.cli import main
from wva_lab.paper import PAPER
from wva_lab.scenarios import SCENARIOS, ScenarioResult, execute_scenario, make_config, render_csv
from wva_lab.verify import CRITERIA, ScenarioRuns, compare_quoted, verify_all

# wall-clock bounds (seconds) on the verify checks that sweep a case matrix
RUNTIME_BOUNDS_S = {1: 30.0, 2: 10.0}


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _verify_criterion_test(num: int, check):
    name = check.__name__.removeprefix("check_")

    def test():
        start = time.perf_counter()
        lines = check(ScenarioRuns())
        elapsed = time.perf_counter() - start
        bound = RUNTIME_BOUNDS_S.get(num, math.inf)
        detail = "; ".join(f"{n}: {'PASS' if ok else 'FAIL'} ({d})" for n, ok, d in lines)
        _criterion(
            num,
            name,
            all(ok for _, ok, _ in lines) and elapsed < bound,
            f"{detail}; {elapsed:.1f} s" + (f" (< {bound:.0f} s)" if bound < math.inf else ""),
        )

    test.__name__ = f"test_criterion_{num:02d}_{name}"
    return test


for _num, _check in CRITERIA.items():
    _test = _verify_criterion_test(_num, _check)
    globals()[_test.__name__] = _test


def test_criterion_04_shift_rates():
    # fig3b's half of criterion 4, not a verify check: its 48-width map
    # would add about a third to a verify run
    runs = ScenarioRuns()
    ok, detail = compare_quoted(runs, ["fig3b.max_rate_nm_per_as"])
    lo, hi = (runs["fig3b"].summary[f"band_{edge}_sigma_lambda_nm"] for edge in ("lo", "hi"))
    quoted_lo, quoted_hi = (PAPER[f"fig3b.band_{edge}_sigma_lambda_nm"].value for edge in ("lo", "hi"))
    overlap = lo <= quoted_hi and hi >= quoted_lo
    detail += f"; band [{lo:.1f}, {hi:.1f}] nm overlaps quoted [{quoted_lo:g}, {quoted_hi:g}]: {overlap}"
    _criterion(4, "shift rates", ok and overlap, detail)


VERIFY_LINES = [
    "oracle_equivalence",
    "closed_form_consistency",
    "mwi_amplification",
    "momentum_pointer_rates",
    "momentum_pointer_precisions",
    "momentum_pointer_headline",
    "intensity_pointer_anchor",
    "intensity_pointer_delta_k_n1",
    "lgi_k31_spot",
    "lgi_weak_value_238",
    "lgi_negativity_region",
    "weak_value_roundtrip",
    "weak_value_1478",
    "shift_approx_sigma_sq",
    "intensity_shift_decreasing",
    "tilt_even_increasing",
]


def _failed_lines(capsys) -> list:
    return [text.split(":")[0] for text in capsys.readouterr().out.splitlines() if ": FAIL (" in text]


def test_verify_line_names(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [text.split(":")[0] for text in lines] == [*VERIFY_LINES, "verify"]
    assert lines[-1] == f"verify: PASS ({len(VERIFY_LINES)} checks)"


@pytest.mark.parametrize(
    "name, value, line",
    [("fig3a.w6nm.fitted_rate_nm_per_as", 1.0, "momentum_pointer_rates"),
     ("fig4.n3.delta_tau_as", 1e-5, "momentum_pointer_headline"),
     ("fig5.coherent.n1.delta_k_fm", 300.0, "intensity_pointer_delta_k_n1")],
)
def test_verify_reads_the_paper_table(monkeypatch, capsys, name, value, line):
    monkeypatch.setitem(PAPER, name, PAPER[name]._replace(value=value))
    assert main(["verify"]) == 3
    assert _failed_lines(capsys) == [line, "verify"]


@pytest.mark.parametrize(
    "scenario, key, line",
    [("oracle_suite", "oracle_worst_rel_dev", "oracle_equivalence"), ("fig6", "k31_n3_rho0.0124", "lgi_k31_spot")],
)
def test_verify_reads_the_scenario_results(monkeypatch, capsys, scenario, key, line):
    spec = SCENARIOS[scenario]

    def runner(values):
        result = spec.runner(values)
        return ScenarioResult(result.columns, {**result.summary, key: 1.0})

    monkeypatch.setitem(SCENARIOS, scenario, replace(spec, runner=runner))
    assert main(["verify"]) == 3
    assert _failed_lines(capsys) == [line, "verify"]


def test_verify_runs_each_scenario_it_reads_once_per_call(monkeypatch):
    calls = []
    for scenario_id, spec in list(SCENARIOS.items()):
        def runner(values, scenario_id=scenario_id, run=spec.runner):
            calls.append(scenario_id)
            return run(values)

        monkeypatch.setitem(SCENARIOS, scenario_id, replace(spec, runner=runner))
    read = ["fig3a", "fig4", "fig5", "fig6", "oracle_suite"]
    assert verify_all(io.StringIO())
    assert sorted(calls) == read
    assert verify_all(io.StringIO())  # a second call verifies afresh
    assert sorted(calls) == sorted(read * 2)


def test_weak_value_roundtrip_labelled_by_construction(capsys):
    verify_all()
    line = next(text for text in capsys.readouterr().out.splitlines() if text.startswith("weak_value_roundtrip: "))
    assert "[holds by construction: " in line


def test_criterion_10_runtime_and_determinism(tmp_path):
    start = time.perf_counter()
    for scenario_id in SCENARIOS:
        execute_scenario(make_config(scenario_id))
    ok_verify = verify_all()
    elapsed = time.perf_counter() - start

    identical = True
    for scenario_id in SCENARIOS:
        config = make_config(scenario_id)
        first = render_csv(execute_scenario(config), config)
        second = render_csv(execute_scenario(config), config)
        identical &= first == second

    ok = ok_verify and elapsed < 300.0 and identical
    _criterion(
        10,
        "runtime and determinism",
        ok,
        f"all scenarios + verify in {elapsed:.1f} s (< 300 s); repeated CSV bodies byte-identical: "
        f"{identical}",
    )
