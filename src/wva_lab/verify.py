"""Self-contained verification suite behind ``wva-lab verify``.

The single statement of acceptance criteria 1-3 and 7-9: the oracle
equivalence matrix, the Gaussian closed-form consistency checks, the
N-amplification ratios, the Leggett-Garg spot values and region scan, the
weak-value round trip, and the monotonicity properties.  ``CRITERIA`` maps
each criterion number to its check function; the acceptance tests run the
same functions.  ``verify_all`` prints one PASS/FAIL line per check and
returns False if anything fails.
"""
from __future__ import annotations

import math
import sys
from typing import TextIO

import numpy as np

from .lgi import k31, negativity_boundary_scan, quantum_region_boundary, weak_value_from_shift
from .meter import (
    collapsed_density,
    intensity_after_postselection,
    intensity_shift_approx,
    pointer_shift_p_approx,
)
from .metrology import TiltGeometry, tau_from_tilt
from .polarization import MwiSettings, im_weak_value
from .scenarios import (
    LAMBDA0_M,
    P0_RAD_PER_M,
    closed_form_deviations,
    make_config,
    oracle_deviation_rows,
)
from .spectra import SpectralProfile, effective_sigma_p

# Each check returns (name, ok, detail) tuples, one per printed line.


def check_oracle_equivalence() -> list:
    values = make_config("oracle_suite").values
    rows = oracle_deviation_rows(values)
    worst = max(row[-1] for row in rows)
    tol = values["oracle_tolerance"]
    return [
        (
            "oracle_equivalence",
            worst <= tol,
            f"{len(rows)} cases, worst rel dev {worst:.3e} (tol {tol:.0e})",
        )
    ]


def check_closed_form_consistency() -> list:
    values = make_config("oracle_suite").values
    worst_prob, worst_shift = closed_form_deviations(values)
    prob_tol = values["prob_tolerance"]
    shift_tol = values["shift_tolerance"]
    return [
        (
            "closed_form_consistency",
            worst_prob <= prob_tol and worst_shift <= shift_tol,
            f"prob {worst_prob:.3e} (tol {prob_tol:.0e}), shift {worst_shift:.3e} (tol {shift_tol:.0e})",
        )
    ]


def check_mwi_amplification() -> list:
    # linear regime: N*k*p0 well inside rho/50 at rho = 0.002
    k = 1e-12
    rho = 0.002
    profile = SpectralProfile("gaussian", LAMBDA0_M, 6e-9)
    shifts = {}
    intens = {}
    for n in (1, 2, 3):
        settings = MwiSettings(n, k, 0.0, rho)
        shifts[n] = collapsed_density(profile, settings).delta_lambda
        intens[n] = intensity_after_postselection(1.0, 0.0, P0_RAD_PER_M, settings).relative_shift
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


def check_lgi() -> list:
    spot, im = k31(3, 0.0124), im_weak_value(3, 0.0124)
    ok_spot = abs(spot - (-0.0741)) <= 1e-4
    ok_wv = abs(im - 238.0) / 238.0 <= 0.02
    checks = [
        ("lgi_k31_spot", ok_spot, f"k31(3, 0.0124) = {spot:.6f} (expect -0.0741 +- 1e-4)"),
        ("lgi_weak_value_238", ok_wv, f"Im weak value {im:.2f} vs quoted 238 (tol 2%)"),
    ]
    step = 1e-3
    boundaries = {n: negativity_boundary_scan(n, 1.5, step) for n in (1, 2, 3)}
    ok_region = all(
        abs(boundaries[n] - quantum_region_boundary(n)) <= step for n in (1, 2, 3)
    ) and boundaries[3] > boundaries[2] > boundaries[1]
    checks.append(
        (
            "lgi_negativity_region",
            ok_region,
            ", ".join(
                f"N={n}: scan {boundaries[n]:.3f} vs arctan {quantum_region_boundary(n):.3f}"
                for n in (1, 2, 3)
            ),
        )
    )
    return checks


def check_weak_value_round_trip() -> list:
    worst = 0.0
    for n in (1, 2, 3):
        for rho in [*np.linspace(0.002, 0.0124, 7).tolist(), 0.005]:
            for k in (1e-13, 1e-12, 1e-11):
                sigma_p = 0.0
                settings = MwiSettings(n, k, 0.0, rho)
                forward = intensity_shift_approx(sigma_p, P0_RAD_PER_M, settings)
                rec = weak_value_from_shift(forward, k, P0_RAD_PER_M, sigma_p, n)
                theory = im_weak_value(n, rho)
                worst = max(worst, abs(rec - theory) / theory)
    rho_star = math.atan(3.0 / 1478.0)
    settings = MwiSettings(3, 1e-12, 0.0, rho_star)
    forward = intensity_shift_approx(0.0, P0_RAD_PER_M, settings)
    rec = weak_value_from_shift(forward, 1e-12, P0_RAD_PER_M, 0.0, 3)
    ok_anom = abs(rec - 1478.0) / 1478.0 <= 1e-3
    return [
        ("weak_value_roundtrip", worst <= 1e-9, f"worst rel error {worst:.3e} (tol 1e-9)"),
        ("weak_value_1478", ok_anom, f"recovered {rec:.4f} at back-solved rho (tol 0.1%)"),
    ]


def check_monotonicity() -> list:
    sigma = effective_sigma_p(SpectralProfile("gaussian", LAMBDA0_M, 6e-9))
    settings = MwiSettings(2, 3e-12, 0.0, 0.002)
    prop = pointer_shift_p_approx(2.0 * sigma, settings) == 4.0 * pointer_shift_p_approx(sigma, settings)

    sigmas = np.linspace(1e3, 1e6, 1024)
    shifts = [intensity_shift_approx(s, P0_RAD_PER_M, MwiSettings(3, 3e-10, 0.0, 0.002)) for s in sigmas]
    decreasing = all(b < a for a, b in zip(shifts, shifts[1:]))

    thetas = np.linspace(1e-4, math.pi / 2 - 1e-4, 1024)
    taus = [tau_from_tilt(TiltGeometry(t)) for t in thetas]
    increasing = all(b > a for a, b in zip(taus, taus[1:]))
    even = all(
        tau_from_tilt(TiltGeometry(t)) == tau_from_tilt(TiltGeometry(-t)) for t in thetas[::16]
    )
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
    7: check_lgi,
    8: check_weak_value_round_trip,
    9: check_monotonicity,
}


def verify_all(stream: TextIO = None) -> bool:
    stream = stream if stream is not None else sys.stdout
    checks = [line for check in CRITERIA.values() for line in check()]
    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})", file=stream)
    print(f"verify: {'PASS' if all_ok else 'FAIL'} ({len(checks)} checks)", file=stream)
    return all_ok
