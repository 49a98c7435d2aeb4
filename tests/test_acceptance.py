"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 1-3 and 7-9 are stated once, by the check functions in
``wva_lab.verify.CRITERIA`` (the checks behind ``wva-lab verify``); one test
is generated per entry, so a criterion added there is tested here too.
"""
import math
import time

import pytest

from wva_lab.scenarios import SCENARIOS, execute_scenario, make_config, render_csv
from wva_lab.verify import CRITERIA, verify_all

# wall-clock bounds (seconds) on the verify checks that sweep a case matrix
RUNTIME_BOUNDS_S = {1: 30.0, 2: 10.0}


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _verify_criterion_test(num: int, check):
    name = check.__name__.removeprefix("check_")

    def test():
        start = time.perf_counter()
        lines = check()
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


@pytest.fixture(scope="module")
def fig3a_result():
    return execute_scenario(make_config("fig3a"))


@pytest.fixture(scope="module")
def fig3b_result():
    return execute_scenario(make_config("fig3b"))


@pytest.fixture(scope="module")
def fig4_result():
    return execute_scenario(make_config("fig4"))


QUOTED_RATES = {"w0.5nm": 0.27, "w1nm": 0.31, "w3nm": 0.41, "w6nm": 0.43}
QUOTED_PRECISIONS_AS = {"w0.5nm": 1.45e-4, "w1nm": 1.30e-4, "w3nm": 9.62e-5, "w6nm": 9.30e-5}


def test_criterion_04_shift_rates(fig3a_result, fig3b_result):
    details = []
    ok = True
    for label, quoted in QUOTED_RATES.items():
        rate = fig3a_result.summary[f"{label}.fitted_rate_nm_per_as"]
        dev = (rate - quoted) / quoted
        ok &= abs(dev) <= 0.15
        details.append(f"{label} {rate:.3f} vs {quoted} ({dev:+.1%})")
    max_rate = fig3b_result.summary["max_rate_nm_per_as"]
    dev_max = (max_rate - 0.61) / 0.61
    ok &= abs(dev_max) <= 0.20
    lo = fig3b_result.summary["band_lo_sigma_lambda_nm"]
    hi = fig3b_result.summary["band_hi_sigma_lambda_nm"]
    overlap = lo <= 135.0 and hi >= 12.0
    ok &= overlap
    details.append(f"map max {max_rate:.3f} vs 0.61 ({dev_max:+.1%}), band [{lo:.1f}, {hi:.1f}] nm")
    _criterion(4, "shift rates", ok, "; ".join(details))


def test_criterion_05_momentum_pointer_precisions(fig3a_result, fig4_result):
    details = []
    ok = True
    for label, quoted in QUOTED_PRECISIONS_AS.items():
        delta_tau = fig3a_result.summary[f"{label}.delta_tau_as"]
        dev = (delta_tau - quoted) / quoted
        ok &= abs(dev) <= 0.15
        details.append(f"{label} {delta_tau:.3e} vs {quoted:.2e} ({dev:+.1%})")
    best = fig4_result.summary["n3.delta_tau_as"]
    dev_best = (best - 3.34e-5) / 3.34e-5
    ok &= abs(dev_best) <= 0.15
    details.append(f"N=3 {best:.3e} vs 3.34e-05 ({dev_best:+.1%})")
    _criterion(5, "momentum-pointer precisions", ok, "; ".join(details))


def test_criterion_06_intensity_pointer_calibration():
    summary = execute_scenario(make_config("fig5")).summary
    d = {n: summary[f"coherent.n{n}.delta_k_fm"] for n in (1, 2, 3)}
    calibrated = abs(d[3] - 148.8) <= 1e-9
    scaling_exact = all(abs(d[n] * n / 3.0 - d[3]) <= 1e-9 for n in (1, 2, 3))
    dev_quoted = abs(d[1] - 497.8) / 497.8
    ok = calibrated and scaling_exact and dev_quoted <= 0.12
    _criterion(
        6,
        "intensity-pointer precision scaling",
        ok,
        f"delta_k(3) = {d[3]:.4f} fm (anchor), delta_k ~ 1/N exact, "
        f"delta_k(1) = {d[1]:.1f} fm vs quoted 497.8 ({dev_quoted:.1%} <= 12%)",
    )


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
