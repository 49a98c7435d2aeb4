"""Self-contained verification suite behind ``wva-lab verify``.

``CHECKS`` states acceptance criteria 1-3 and 5-9 and criterion 4's fig3a
half once, with the paper's numbers read from ``wva_lab.paper``: one
``Check`` row per printed line, in print order.  A row's ``evaluate`` reads
the ``ScenarioRuns`` of one run, which runs each scenario it is asked for
once, and computes nothing a scenario computes: criteria 1 and 2 read
``oracle_suite``'s deviations and tolerances, 4 fig3a's fitted shift rates,
5 and 6 the precisions of fig3a, fig4 and fig5, and 7 fig6's K31 and
weak-value spots and region scan.  Criteria 3, 8 and 9 compute their
values, as no scenario does.  A row's ``by_construction`` says why its line
holds whatever the model computes ("" for an independent check).
Criterion 4's fig3b half stays in the acceptance tests, as fig3b's
48-width map would add about a quarter to a run.  ``verify_all`` prints one
PASS/FAIL line per row and returns False if anything fails; the acceptance
tests run each row on a fresh ``ScenarioRuns``.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, Mapping, NamedTuple, TextIO

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

_LGI_RHO = PAPER["lgi_rho_rad"].value
_K31, _IM = f"fig6.k31_n3_rho{_LGI_RHO:g}", f"fig6.im_weak_value_n3_rho{_LGI_RHO:g}"
# the intensity scale is fixed so that delta_k(3) is the anchor, and delta_k(N) = 3 delta_k(3) / N
_INTENSITY_SCALE = f"delta_k(N) = 3 x {PAPER['target_delta_k_n3_fm'].value:g} fm / N"


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


class Check(NamedTuple):
    """One printed line of ``wva-lab verify``: ``evaluate(runs)`` returns
    (ok, detail) from a ``ScenarioRuns``; ``by_construction`` is why the line
    holds whatever the model computes, or "" for an independent check."""
    criterion: int
    name: str
    evaluate: Callable[[ScenarioRuns], tuple]
    by_construction: str = ""


def _model_value(runs: ScenarioRuns, name: str):
    """The summary value ``name``, named ``<scenario>.<summary key>``."""
    scenario, key = name.split(".", 1)
    return runs[scenario].summary[key]


def compare_quoted(runs: ScenarioRuns, names) -> tuple:
    """(whether every value is within its tolerance, a detail text) of the
    model's values against the paper's numbers ``names``, each named
    ``<scenario>.<summary key>``.  A relative tolerance prints as a percentage,
    an absolute one (``Quoted.absolute``) in the value's unit."""
    ok, parts = True, []
    for name in names:
        value, quoted = _model_value(runs, name), PAPER[name]
        ok &= quoted.holds(value)
        margin = (f"{quoted.deviation(value):+.2g}, tol {quoted.tol:g}" if quoted.absolute
                  else f"{quoted.deviation(value):+.1%}, tol {quoted.tol:.0%}")
        parts.append(f"{name} {value:.4g} vs {quoted.value:g} ({margin})")
    return ok, ", ".join(parts)


def _oracle_equivalence(runs: ScenarioRuns) -> tuple:
    suite = runs["oracle_suite"]
    worst, tol = suite.summary["oracle_worst_rel_dev"], suite.summary["oracle_tolerance"]
    cases = len(suite.columns["oracle_max_rel_dev_1"])
    return worst <= tol, f"{cases} cases, worst rel dev {worst:.3e} (tol {tol:.0e})"


def _closed_form_consistency(runs: ScenarioRuns) -> tuple:
    summary = runs["oracle_suite"].summary
    worst_prob, worst_shift = (summary[f"closed_form_{q}_worst_rel_dev"] for q in ("prob", "shift"))
    prob_tol, shift_tol = summary["prob_tolerance"], summary["shift_tolerance"]
    ok = worst_prob <= prob_tol and worst_shift <= shift_tol
    return ok, f"prob {worst_prob:.3e} (tol {prob_tol:.0e}), shift {worst_shift:.3e} (tol {shift_tol:.0e})"


def _mwi_amplification(runs: ScenarioRuns) -> tuple:
    # linear regime: N*k*p0 well inside rho/50 at the operating point's rho
    k = 1e-12
    rho = PAPER["rho_rad"].value
    profile = SpectralProfile("gaussian", LAMBDA0_M, 6e-9)
    n = np.array([1, 2, 3])
    settings = MwiSettings(1, n * k, 0.0, rho)  # N = 1, 2, 3 as one family of single passes of N*k
    shifts = collapsed_density(profile, settings).delta_lambda
    _, intens = intensity_after_postselection(1.0, 0.0, P0_RAD_PER_M, settings)
    worst = max(float(np.max(np.abs(values[1:] / values[0] - n[1:]) / n[1:])) for values in (shifts, intens))
    return worst <= 5e-3, f"worst |ratio/N - 1| = {worst:.3e} (tol 5e-3) at N*k*p0 = {3 * k * P0_RAD_PER_M:.2e}"


def _fig3a_quoted(key: str) -> list:
    """The names of the paper's fig3a numbers for summary key ``key``, one per source width."""
    return [name for name in PAPER if name.startswith("fig3a.") and name.endswith(f".{key}")]


def _intensity_pointer_anchor(runs: ScenarioRuns) -> tuple:
    d = {n: _model_value(runs, f"fig5.coherent.n{n}.delta_k_fm") for n in (1, 2, 3)}
    anchor = PAPER["target_delta_k_n3_fm"]
    exact = anchor.holds(d[3]) and all(abs(d[n] * n / 3.0 - d[3]) <= 1e-9 for n in (1, 2, 3))
    return exact, f"delta_k(3) = {d[3]:.4f} fm vs anchor {anchor.value:g} +- {anchor.tol:g} fm, delta_k ~ 1/N exact"


def _lgi_negativity_region(runs: ScenarioRuns) -> tuple:
    fig6 = runs["fig6"]
    scan, arctan = ({n: fig6.summary[f"n{n}.boundary_{q}_rad"] for n in (1, 2, 3)} for q in ("scan", "arctan"))
    step = fig6.values["boundary_scan_step_rad"]
    ok = all(abs(scan[n] - arctan[n]) <= step for n in (1, 2, 3)) and scan[3] > scan[2] > scan[1]
    return ok, ", ".join(f"N={n}: scan {scan[n]:.3f} vs arctan {arctan[n]:.3f}" for n in (1, 2, 3))


def _weak_value_roundtrip(runs: ScenarioRuns) -> tuple:
    worst = 0.0
    rhos = np.append(np.linspace(PAPER["rho_rad"].value, _LGI_RHO, 7), 0.005)
    for n in (1, 2, 3):
        theory = im_weak_value(n, rhos)
        for k in (1e-13, 1e-12, 1e-11):
            forward = intensity_shift_approx(0.0, P0_RAD_PER_M, MwiSettings(n, k, 0.0, rhos))
            rec = weak_value_from_shift(forward, k, P0_RAD_PER_M, 0.0, n)
            worst = max(worst, float(np.max(np.abs(rec - theory) / theory)))
    # 100x the measured worst (1.270e-16), rounded up to a power of ten
    return worst <= 1e-13, f"worst rel error {worst:.3e} (tol 1e-13)"


def _anomalous_weak_value(runs: ScenarioRuns) -> tuple:
    # The anomalous weak value, recovered by the linear inversion from the
    # exact coherent intensity shift at the angle back-solved from it.  At
    # k = 1e-13 the two models agree to ~1.5e-4; at 1e-12 they part by ~1.5e-3.
    target, k = PAPER["anomalous_target"], 1e-13
    rho_star = math.atan(3.0 / target.value)
    _, shift = intensity_after_postselection(1.0, 0.0, P0_RAD_PER_M, MwiSettings(3, k, 0.0, rho_star))
    rec = weak_value_from_shift(shift, k, P0_RAD_PER_M, 0.0, 3)
    detail = f"recovered {rec:.4f} from the exact coherent intensity shift at k = {k:g} (tol {target.tol:.1%})"
    return target.holds(rec), detail


def _shift_approx_sigma_sq(runs: ScenarioRuns) -> tuple:
    sigma = effective_sigma_p(SpectralProfile("gaussian", LAMBDA0_M, 6e-9))
    settings = MwiSettings(2, 3e-12, 0.0, PAPER["rho_rad"].value)
    exact = pointer_shift_p_approx(2.0 * sigma, settings) == 4.0 * pointer_shift_p_approx(sigma, settings)
    return exact, "doubling sigma_p quadruples the approximate shift exactly"


def _intensity_shift_decreasing(runs: ScenarioRuns) -> tuple:
    sigmas = np.linspace(1e3, 1e6, 1024)
    shifts = intensity_shift_approx(sigmas, P0_RAD_PER_M, MwiSettings(3, 3e-10, 0.0, PAPER["rho_rad"].value))
    return bool(np.all(shifts[1:] < shifts[:-1])), "approx intensity shift strictly decreasing in sigma_p"


def _tilt_even_increasing(runs: ScenarioRuns) -> tuple:
    thetas = np.linspace(1e-4, math.pi / 2 - 1e-4, 1024)
    taus = tau_from_tilt(TiltGeometry(thetas))
    ok = bool(np.all(taus[1:] > taus[:-1]) and np.all(taus == tau_from_tilt(TiltGeometry(-thetas))))
    return ok, "tau(tilt) even and strictly increasing on (0, pi/2); no scenario calls metrology.tau_from_tilt"


CHECKS = (
    Check(1, "oracle_equivalence", _oracle_equivalence),
    Check(2, "closed_form_consistency", _closed_form_consistency),
    Check(3, "mwi_amplification", _mwi_amplification),
    Check(4, "momentum_pointer_rates", lambda runs: compare_quoted(runs, _fig3a_quoted("fitted_rate_nm_per_as"))),
    Check(5, "momentum_pointer_precisions", lambda runs: compare_quoted(runs, _fig3a_quoted("delta_tau_as"))),
    Check(5, "momentum_pointer_headline", lambda runs: compare_quoted(runs, ["fig4.n3.delta_tau_as"])),
    Check(6, "intensity_pointer_anchor", _intensity_pointer_anchor, _INTENSITY_SCALE),
    Check(6, "intensity_pointer_delta_k_n1", lambda runs: compare_quoted(runs, ["fig5.coherent.n1.delta_k_fm"]),
          _INTENSITY_SCALE),
    Check(7, "lgi_k31_spot", lambda runs: compare_quoted(runs, [_K31])),
    Check(7, f"lgi_weak_value_{PAPER[_IM].value:g}", lambda runs: compare_quoted(runs, [_IM])),
    Check(7, "lgi_negativity_region", _lgi_negativity_region),
    Check(8, "weak_value_roundtrip", _weak_value_roundtrip,
          "at sigma_p = 0 the inversion divides by the p0 k that the forward model multiplies N cot(rho) by"),
    Check(8, f"weak_value_{PAPER['anomalous_target'].value:g}", _anomalous_weak_value),
    Check(9, "shift_approx_sigma_sq", _shift_approx_sigma_sq,
          "pointer_shift_p_approx is k sigma_p^2 N cot(rho), and scaling a float by a power of two is exact,"
          " so the 4x holds for any sigma_p short of overflow"),
    Check(9, "intensity_shift_decreasing", _intensity_shift_decreasing),
    Check(9, "tilt_even_increasing", _tilt_even_increasing),
)


def verify_all(stream: TextIO = None) -> bool:
    stream = stream if stream is not None else sys.stdout
    runs = ScenarioRuns()
    all_ok = True
    for check in CHECKS:
        ok, detail = check.evaluate(runs)
        if check.by_construction:
            detail += f" [holds by construction: {check.by_construction}]"
        all_ok &= ok
        print(f"{check.name}: {'PASS' if ok else 'FAIL'} ({detail})", file=stream)
    by_construction = sum(bool(check.by_construction) for check in CHECKS)
    print(f"verify: {'PASS' if all_ok else 'FAIL'} ({len(CHECKS)} checks, {by_construction} by construction)",
          file=stream)
    return all_ok
