"""Self-contained verification suite behind ``wva-lab verify``.

The single statement of acceptance criteria 1-3 and 5-9 and of criterion
4's fig3a half, with the paper's numbers read from ``wva_lab.paper``.  A
check compares results and computes nothing that a scenario computes:
criteria 1 and 2 read ``oracle_suite``'s oracle and closed-form deviations
and tolerances, 4 fig3a's fitted shift rates, 5 and 6 the precisions of
fig3a, fig4 and fig5, and 7 fig6's K31 and weak-value spots and region scan.
Criterion 4's fig3b half (the largest rate and its band) stays in the
acceptance tests, as fig3b's 48-width map would add about a third to a run.
Criteria 3, 8 and 9 (the N-amplification ratios, the weak-value round trip
and the monotonicity properties) compute their values, as no scenario does.
Each check takes the ``ScenarioRuns`` of one run, which runs each scenario
it is asked for once.  ``CRITERIA`` maps each criterion number to its check;
the acceptance tests run the same functions.  ``verify_all`` prints one
PASS/FAIL line per check and returns False if anything fails.
"""
from __future__ import annotations

import math
import sys
from typing import Mapping, NamedTuple, TextIO

import numpy as np

from .lgi import weak_value_from_shift
from .meter import (
    collapsed_density,
    intensity_after_postselection,
    intensity_shift_approx,
    pointer_shift_p_approx,
)
from .metrology import TiltGeometry, tau_from_tilt
from .paper import PAPER
from .polarization import MwiSettings, im_weak_value
from .scenarios import LAMBDA0_M, P0_RAD_PER_M, execute_scenario, make_config
from .spectra import SpectralProfile, effective_sigma_p


class ScenarioRun(NamedTuple):
    """One scenario's default run: its config's checked values and its result."""
    values: Mapping
    columns: dict
    summary: dict


class ScenarioRuns(dict):
    """Scenario id -> ``ScenarioRun`` of its default config, run the first
    time the id is read and kept for the life of the mapping: one verify
    run's results."""

    def __missing__(self, scenario_id: str) -> ScenarioRun:
        config = make_config(scenario_id)
        result = execute_scenario(config)
        self[scenario_id] = run = ScenarioRun(config.values, result.columns, result.summary)
        return run


# Each check takes a ScenarioRuns and returns (name, ok, detail) tuples, one per printed line.


def _model_value(runs: ScenarioRuns, name: str):
    """The summary value ``name``, named ``<scenario>.<summary key>``."""
    scenario, key = name.split(".", 1)
    return runs[scenario].summary[key]


def compare_quoted(runs: ScenarioRuns, names) -> tuple:
    """(whether every value is within its tolerance, a detail text) of the
    model's values against the paper's numbers ``names``, each named
    ``<scenario>.<summary key>``."""
    ok, parts = True, []
    for name in names:
        value, quoted = _model_value(runs, name), PAPER[name]
        ok &= quoted.holds(value)
        parts.append(f"{name} {value:.4g} vs {quoted.value:g} ({quoted.deviation(value):+.1%}, tol {quoted.tol:.0%})")
    return ok, ", ".join(parts)


def check_oracle_equivalence(runs: ScenarioRuns) -> list:
    suite = runs["oracle_suite"]
    worst, tol = suite.summary["oracle_worst_rel_dev"], suite.summary["oracle_tolerance"]
    cases = len(suite.columns["oracle_max_rel_dev_1"])
    return [("oracle_equivalence", worst <= tol, f"{cases} cases, worst rel dev {worst:.3e} (tol {tol:.0e})")]


def check_closed_form_consistency(runs: ScenarioRuns) -> list:
    summary = runs["oracle_suite"].summary
    worst_prob, worst_shift = (summary[f"closed_form_{q}_worst_rel_dev"] for q in ("prob", "shift"))
    prob_tol, shift_tol = summary["prob_tolerance"], summary["shift_tolerance"]
    ok = worst_prob <= prob_tol and worst_shift <= shift_tol
    detail = f"prob {worst_prob:.3e} (tol {prob_tol:.0e}), shift {worst_shift:.3e} (tol {shift_tol:.0e})"
    return [("closed_form_consistency", ok, detail)]


def check_mwi_amplification(runs: ScenarioRuns) -> list:
    # linear regime: N*k*p0 well inside rho/50 at the operating point's rho
    k = 1e-12
    rho = PAPER["rho_rad"].value
    profile = SpectralProfile("gaussian", LAMBDA0_M, 6e-9)
    shifts = {}
    intens = {}
    for n in (1, 2, 3):
        settings = MwiSettings(n, k, 0.0, rho)
        shifts[n] = collapsed_density(profile, settings).delta_lambda
        _, intens[n] = intensity_after_postselection(1.0, 0.0, P0_RAD_PER_M, settings)
    worst = 0.0
    for n in (2, 3):
        worst = max(worst, abs(shifts[n] / shifts[1] - n) / n)
        worst = max(worst, abs(intens[n] / intens[1] - n) / n)
    return [
        (
            "mwi_amplification",
            worst <= 5e-3,
            f"worst |ratio/N - 1| = {worst:.3e} (tol 5e-3) at N*k*p0 = {3 * k * P0_RAD_PER_M:.2e}",
        )
    ]


def _fig3a_quoted(key: str) -> list:
    """The names of the paper's fig3a numbers for summary key ``key``, one per source width."""
    return [name for name in PAPER if name.startswith("fig3a.") and name.endswith(f".{key}")]


def check_momentum_pointer_rates(runs: ScenarioRuns) -> list:
    return [("momentum_pointer_rates", *compare_quoted(runs, _fig3a_quoted("fitted_rate_nm_per_as")))]


def check_momentum_pointer_precisions(runs: ScenarioRuns) -> list:
    return [
        ("momentum_pointer_precisions", *compare_quoted(runs, _fig3a_quoted("delta_tau_as"))),
        ("momentum_pointer_headline", *compare_quoted(runs, ["fig4.n3.delta_tau_as"])),
    ]


def check_intensity_pointer_calibration(runs: ScenarioRuns) -> list:
    """Both lines hold by construction: the intensity scale is fixed so that
    delta_k(3) is the anchor, and delta_k(N) = 3 delta_k(3) / N."""
    d = {n: _model_value(runs, f"fig5.coherent.n{n}.delta_k_fm") for n in (1, 2, 3)}
    anchor = PAPER["target_delta_k_n3_fm"]
    exact = anchor.holds(d[3]) and all(abs(d[n] * n / 3.0 - d[3]) <= 1e-9 for n in (1, 2, 3))
    anchor_detail = f"delta_k(3) = {d[3]:.4f} fm vs anchor {anchor.value:g} +- {anchor.tol:g} fm, delta_k ~ 1/N exact"
    ok, detail = compare_quoted(runs, ["fig5.coherent.n1.delta_k_fm"])
    by_construction = f"[holds by construction: delta_k(N) = 3 x {anchor.value:g} fm / N]"
    return [
        ("intensity_pointer_anchor", exact, f"{anchor_detail} {by_construction}"),
        ("intensity_pointer_delta_k_n1", ok, f"{detail} {by_construction}"),
    ]


def check_lgi(runs: ScenarioRuns) -> list:
    rho = PAPER["lgi_rho_rad"].value
    k31_name, im_name = f"fig6.k31_n3_rho{rho:g}", f"fig6.im_weak_value_n3_rho{rho:g}"
    q_k31, q_im = PAPER[k31_name], PAPER[im_name]
    spot, im = _model_value(runs, k31_name), _model_value(runs, im_name)
    k31_tol = np.format_float_scientific(q_k31.tol, trim="-", exp_digits=1)
    im_detail = f"Im weak value {im:.2f} vs quoted {q_im.value:g} (tol {q_im.tol:.0%})"
    fig6 = runs["fig6"]
    scan, arctan = ({n: fig6.summary[f"n{n}.boundary_{q}_rad"] for n in (1, 2, 3)} for q in ("scan", "arctan"))
    step = fig6.values["boundary_scan_step_rad"]
    ok_region = all(abs(scan[n] - arctan[n]) <= step for n in (1, 2, 3)) and scan[3] > scan[2] > scan[1]
    return [
        ("lgi_k31_spot", q_k31.holds(spot), f"k31(3, {rho:g}) = {spot:.6f} (expect {q_k31.value:g} +- {k31_tol})"),
        (f"lgi_weak_value_{q_im.value:g}", q_im.holds(im), im_detail),
        ("lgi_negativity_region", ok_region,
         ", ".join(f"N={n}: scan {scan[n]:.3f} vs arctan {arctan[n]:.3f}" for n in (1, 2, 3))),
    ]


def check_weak_value_round_trip(runs: ScenarioRuns) -> list:
    worst = 0.0
    rhos = np.append(np.linspace(PAPER["rho_rad"].value, PAPER["lgi_rho_rad"].value, 7), 0.005)
    for n in (1, 2, 3):
        theory = im_weak_value(n, rhos)
        for k in (1e-13, 1e-12, 1e-11):
            forward = intensity_shift_approx(0.0, P0_RAD_PER_M, MwiSettings(n, k, 0.0, rhos))
            rec = weak_value_from_shift(forward, k, P0_RAD_PER_M, 0.0, n)
            worst = max(worst, float(np.max(np.abs(rec - theory) / theory)))
    # The anomalous weak value, recovered by the linear inversion from the
    # exact coherent intensity shift at the angle back-solved from it.  At
    # k = 1e-13 the two models agree to ~1.5e-4; at 1e-12 they part by ~1.5e-3.
    target, k = PAPER["anomalous_target"], 1e-13
    rho_star = math.atan(3.0 / target.value)
    _, shift = intensity_after_postselection(1.0, 0.0, P0_RAD_PER_M, MwiSettings(3, k, 0.0, rho_star))
    rec = weak_value_from_shift(shift, k, P0_RAD_PER_M, 0.0, 3)
    detail = f"recovered {rec:.4f} from the exact coherent intensity shift at k = {k:g} (tol {target.tol:.1%})"
    by_construction = (
        "[holds by construction: at sigma_p = 0 the inversion divides by the p0 k"
        " that the forward model multiplies N cot(rho) by]"
    )
    return [
        ("weak_value_roundtrip", worst <= 1e-9, f"worst rel error {worst:.3e} (tol 1e-9) {by_construction}"),
        (f"weak_value_{target.value:g}", target.holds(rec), detail),
    ]


def check_monotonicity(runs: ScenarioRuns) -> list:
    sigma = effective_sigma_p(SpectralProfile("gaussian", LAMBDA0_M, 6e-9))
    rho = PAPER["rho_rad"].value
    settings = MwiSettings(2, 3e-12, 0.0, rho)
    prop = pointer_shift_p_approx(2.0 * sigma, settings) == 4.0 * pointer_shift_p_approx(sigma, settings)

    sigmas = np.linspace(1e3, 1e6, 1024)
    shifts = intensity_shift_approx(sigmas, P0_RAD_PER_M, MwiSettings(3, 3e-10, 0.0, rho))
    decreasing = bool(np.all(shifts[1:] < shifts[:-1]))

    thetas = np.linspace(1e-4, math.pi / 2 - 1e-4, 1024)
    taus = tau_from_tilt(TiltGeometry(thetas))
    increasing = bool(np.all(taus[1:] > taus[:-1]))
    even = bool(np.all(taus == tau_from_tilt(TiltGeometry(-thetas))))
    return [
        ("shift_approx_sigma_sq", prop, "doubling sigma_p quadruples the approximate shift exactly"),
        ("intensity_shift_decreasing", decreasing, "approx intensity shift strictly decreasing in sigma_p"),
        ("tilt_even_increasing", even and increasing, "tau(tilt) even and strictly increasing on (0, pi/2)"),
    ]


# acceptance criterion number -> check, in run order
CRITERIA = {
    1: check_oracle_equivalence,
    2: check_closed_form_consistency,
    3: check_mwi_amplification,
    4: check_momentum_pointer_rates,
    5: check_momentum_pointer_precisions,
    6: check_intensity_pointer_calibration,
    7: check_lgi,
    8: check_weak_value_round_trip,
    9: check_monotonicity,
}


def verify_all(stream: TextIO = None) -> bool:
    stream = stream if stream is not None else sys.stdout
    runs = ScenarioRuns()
    checks = [line for check in CRITERIA.values() for line in check(runs)]
    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})", file=stream)
    print(f"verify: {'PASS' if all_ok else 'FAIL'} ({len(checks)} checks)", file=stream)
    return all_ok
