"""Leggett-Garg K31 values, the quantum-effect (negativity) region, and
weak-value extraction from measured intensity shifts.

K31 = 2 P (1 - Im W) with Im W = N cot(rho), the N-pass weak value of
``polarization.im_weak_value``, goes negative exactly when the weak value
is anomalous (Im W > 1); the small-coupling boundary of the negativity
region in the postselection angle is arctan(N).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import require
from .meter import _neg_square
from .polarization import im_weak_value

# angles per block of ``negativity_boundary_scan``
_SCAN_BLOCK = 2**16


def k31(n_interactions: int, rho, probability=None):
    """K31 = 2 P (1 - N cot rho) at the given postselection angle, a float or an array.

    P is the small-coupling postselection probability sin^2(rho) unless
    ``probability`` is given (for example the exact Gaussian one of
    ``meter.postselection_probability_gaussian``, of the same shape).

    Raises
    ------
    ValueError
        N < 1, or rho (or any entry of it) outside (0, pi/2): the weak value is singular.
    """
    im = im_weak_value(n_interactions, rho)
    prob = np.sin(rho) ** 2 if probability is None else probability
    return 2.0 * prob * (1.0 - im)


def quantum_region_boundary(n_interactions: int) -> float:
    """Largest rho with negative small-coupling K31: arctan(N), radians.

    Grows with N, so the quantum-effect region expands with more passes.
    """
    if n_interactions < 1:
        raise ValueError(f"n_interactions must be >= 1, got {n_interactions!r}")
    return math.atan(float(n_interactions))


def negativity_boundary_scan(n_interactions: int, rho_max: float = 1.5, step: float = 1e-3) -> float:
    """Boundary of the K31 < 0 region located by dense scanning.

    Scans rho = i*step for i = 1..int(min(rho_max, pi/2)/step), below pi/2
    (the cap keeps the count finite for any rho_max), and returns
    the largest scanned rho with small-coupling K31 < 0 (0.0 if none); the
    scan step bounds the deviation from arctan(N).  The scan runs in blocks
    of ``_SCAN_BLOCK`` angles, which bounds its memory for any step.
    """
    if step <= 0.0 or rho_max <= step:
        raise ValueError("need step > 0 and rho_max > step")
    n_steps = int(min(rho_max, 0.5 * math.pi) / step)
    boundary = 0.0
    for lo in range(1, n_steps + 1, _SCAN_BLOCK):
        rho = np.arange(lo, min(lo + _SCAN_BLOCK, n_steps + 1)) * step
        rho = rho[rho < 0.5 * math.pi]
        negative = rho[k31(n_interactions, rho) < 0.0]
        if negative.size:
            boundary = float(negative[-1])
    return boundary


def weak_value_from_shift(
    delta_ell: float, k: float, p0: float, sigma_p: float, n_interactions: int
) -> float:
    """Invert the linear-regime intensity shift to the Im weak value.

    Returns delta_ell / (exp(-(sigma_p N k)^2) p0 k), of a float or an array
    delta_ell; on shifts produced by the forward linear model this recovers
    N cot(rho) exactly.  Raises NumericalError where the damping underflows
    to 0.
    """
    if k == 0.0:
        raise ValueError("k = 0: weak value from an intensity shift is undefined")
    damp = math.exp(_neg_square(sigma_p * n_interactions * k))
    require(damp != 0.0, "the damping exp(-(sigma_p N k)^2) underflows to 0: no weak value")
    return delta_ell / (damp * p0 * k)
