"""Postselection collapse of the meter state and both pointer shifts.

The collapsed (unnormalized) momentum density after N weak passes with a
path-imbalance phase is

    D(p) = Omega(p)/2 * [1 - cos(p*(N*k + gamma) + 2*rho)]
         = Omega(p) * sin^2((p*(N*k + gamma) + 2*rho)/2).

The momentum (P) pointer is the density-weighted mean shift of D, reported
also as a wavelength shift; the intensity (I) pointer is the postselected
total signal.  Both come from the symmetric-density identity in the
docstring of ``collapse_moments_on_grid``, in two steps: C/I and T/I, and
``_pointer_readout``, which turns them into (P, delta_p) at the half phase A
of ``_half_phase``.  On a grid the kernel ``_level_moments`` sums C/I and T/I
on the grid (level 0) and its stride-2 subgrid (level 1), with the sines and
cosines of the half phase from two complex power tables (``_power_table``),
one cos and one sin per table and phase length, a coarse and a fine one
whose row counts ``_factor_base`` sets by what a row of each costs.  The
coarse rows stop at the last slot whose density is at least
``_NEGLIGIBLE_DENSITY`` (2^-64) of the grid's peak, as the slots past it
add less than the sums' rounding; no grid changes for it.
``collapse_moments_on_grid`` composes the two steps at level 0.
``collapsed_density(profile, settings)`` builds its own grid for one
setting or a family (k or rho an array), reads levels 0 and 1 for every
member with one kernel call and doubles the grid until they agree; it
takes no other argument, so there is one way to call it.
``collapsed_sweep(jobs, ks, gamma, rho)`` gives the sweeps' traces: it calls
the two steps apart, to read a kernel call made at scaled phase lengths out
at each source's own, and doubles each job's grid until levels 0 and 1
agree.  Both accept a grid by one test, ``_levels_agree``; the grid levels
stay inside this module.  The exact Gaussian forms are the Gaussian row of
the readout: ``_gaussian_moments`` gives C/I and T/I from the characteristic
function.
Alongside them are the linear-regime approximations (through the weak value
``polarization.im_weak_value``) and a brute-force joint-state oracle for
verification, which projects onto the states of ``wva_lab.polarization``.
Each closed form is one numpy expression for a float or an array (a trace).
The oracle is three steps: the complex phase ``_oracle_amplitude`` (points
and L), the profile-free projection ``_oracle_factor`` (and rho), and
``_oracle_project``, which multiplies by sqrt Omega and squares; the direct
density is ``_half_phase_sine`` (points, L and rho) squared times Omega.
``oracle_joint_state`` composes the oracle's steps for one case, and
``oracle_deviations`` evaluates a verification matrix of (profile, settings)
cases, grouping them so that each step runs once for every case that shares
its inputs.  The oracle takes the N passes as one N-fold phase; the tests
hold it to passes applied one at a time, and keep their own D(p) on a whole
grid as the direct reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, holds, require
from .polarization import MwiSettings, im_weak_value, postselection_state, preselection_state
from .spectra import (MAX_GRID_POINTS, MomentumGrid, SpectralProfile, _grid_half_span, _simpson_weights, build_grid,
                      effective_sigma_p, grid_point_count)

# The kernel's one convergence rule (README, "Sweep engine"): a grid is accepted where it
# and its stride-2 subgrid agree (_levels_agree); the paths differ in start grid, tolerance
# and cap.  collapsed_density starts at build_grid's 8,193 points, which already resolve the
# collapse: 1e-9, at most 3 rebuilds.  It is the reference the tests and the benchmark hold
# sweep rows to, so it does not share the sweeps' grids.  collapsed_sweep starts at twice a
# 257-point floor's intervals: 1e-10, ten times tighter, as that agreement alone picks its grid.
_GUARD_TOLERANCE = 1e-9
_GUARD_REBUILDS = 3
_SWEEP_MIN_GRID_POINTS = 2**8 + 1
_SWEEP_TOLERANCE = 1e-10
# values the ss and sc matmul outputs of one sweep-kernel block hold, 4 per weight row and
# phase length; the block forms its rows' C and T in place over them (bounds its memory; README)
_BLOCK_ELEMENTS = 2**14
# the sweep kernel sums no half-grid slot past the last whose density is at least this fraction
# of the grid's largest: the terms it drops sit below its sums' rounding (_level_moments)
_NEGLIGIBLE_DENSITY = 2.0**-64


@dataclass(frozen=True)
class CollapseResult:
    """The pointer readouts of one collapse, with the grid they were integrated on.

    The readouts are floats for scalar settings, and arrays of the settings'
    broadcast shape for a family (settings whose k or rho is an array)."""

    # the grid, carrying the initial density Omega (not D); the name stays
    # because the benchmark tracer counts the points of ``result.density``
    density: MomentumGrid
    postselection_probability: float
    delta_p: float       # rad/m
    delta_lambda: float  # meters; sign convention delta_lambda = -(lambda0^2/2pi) delta_p

    def __post_init__(self) -> None:
        prob = self.postselection_probability
        if not holds((0.0 <= prob) & (prob <= 1.0)):
            raise ValueError(f"postselection probability outside [0, 1]: {prob!r}")


def _half_phase(p, phase_length, rho):
    """A = (p*L + 2 rho)/2 at momentum p: the one place outside the oracle that forms p*L + 2 rho."""
    return 0.5 * (p * phase_length + 2.0 * rho)


def _half_phase_sine(points: np.ndarray, phase_length: float, rho: float) -> np.ndarray:
    """sin A at momenta ``points``: the direct collapse is Omega sin^2 A."""
    return np.sin(_half_phase(points, phase_length, rho))


def _factor_base(last_slot: int) -> int:
    """K, a power of two and at least 2, for the split i = a*K + b of the kept
    slots i = 1..j (a = 0..j//K, b = 0..K-1), j the last slot the kernel keeps:
    2^((n - 3)//2) for j of n bits, so from j = 16 on j/K^2 lies in [4, 16)
    (4 or 8 where j is a power of two).  A fine row b costs several times a
    coarse row a (README, "Sweep engine"), so K sits below the sqrt(j) that
    would balance the two tables' row counts.  K grows with j, so on a half
    grid of m = 2^n points it divides m for every j <= m."""
    return 1 << max((last_slot.bit_length() - 3) // 2, 1)


def _power_table(angles: np.ndarray, n_rows: int) -> np.ndarray:
    """exp(i j angle) in row j = 0..n_rows-1 (n_rows >= 2), one column per angle:
    cos and sin are taken once, for row 1, and rows k+1..2k are rows 1..k times row k."""
    table = np.empty((n_rows, angles.size), dtype=complex)
    table[0] = 1.0
    table[1].real, table[1].imag = np.cos(angles), np.sin(angles)
    k = 1
    while k < n_rows - 1:
        top = min(2 * k, n_rows - 1)
        np.multiply(table[1 : top - k + 1], table[k], out=table[k + 1 : top + 1])
        k = top
    return table


def _level_moments(grid: MomentumGrid, phase_lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sweep kernel: C/I and T/I on a grid and its stride-2 subgrid at once.

    Level 0 is ``grid``, of step h; level 1 is its stride-2 subgrid, of step
    2h, a Simpson grid only when the half grid's point count m is even (so a
    3-point grid raises ValueError).  Returns (C/I, T/I), each of shape
    (2, len(phase_lengths)): sums over the x > 0 half grid, x_i = i*h for
    i = 1..m, of each level's Simpson weights x Omega on its own points times
    sin^2(x_i L/2) and x_i sin(x_i L), over its own I.

    With i = a*K + b (``_factor_base``) and theta = h*L/2, x_i L/2 = alpha + beta
    with alpha = a*K*theta and beta = b*theta.  Their sines and cosines are the
    parts of two power tables (``_power_table``), exp(i a K theta) for a = 0..j//K
    (j the last kept slot: the tail cut below) and exp(i b theta) for b = 0..K-1, each
    from one cos and one sin per phase length: 4 transcendental calls per
    phase length, not 2m.  Level 0's
    weight rows are b = 0..K-1; level 1 weighs only the even slots i, so its
    rows are the even b.  The a-factors sA^2 and sA cA each meet the rows in
    one matmul (ss, sc), and cA^2 = 1 - sA^2 enters through each row's weight
    sum S.  The fine table's rows are gathered once, as exp(i B) of every
    weight row: its square gives cos 2B and sin 2B, its imaginary part sin B.
    Over ss and sc, in place, a block forms
    C_b = ss cos 2B + sc sin 2B + S sin^2 B and
    T_b = sc cos 2B - ss sin 2B + (S/2) sin 2B, and each level sums its rows
    over b (a numpy row reduction, which gives a lone phase length its
    column's bits, where a selector matmul does not), phase lengths along
    the last axis.  Where C is small (narrow sources) every angle is small:
    the tables' sines keep relative accuracy, as every term of the doubling's
    sines is positive below pi/2; every term of C_b is nonnegative; and
    ss << S, so ss sin 2B takes little off (S/2) sin 2B.  A lone last phase
    length is padded to two, so it takes the matrix product, not the
    matrix-vector one (whose summation order differs), and gets the bits of
    its column in a longer call.

    The kernel drops the negligible tail.  With j the last slot whose density
    is at least ``_NEGLIGIBLE_DENSITY`` = 2^-64 of the grid's largest, it
    takes K from j (``_factor_base``), not from m, and keeps the coarse rows
    a = 0..j//K (at least 2, as the power table needs).  The weight rows, the
    coarse table, the a-factors and the matmuls' inner dimension take only
    those rows; each level's I is summed over the whole grid.  At one K, the
    kept rows' weights are those of the full sum.  Every dropped slot weighs
    under 2^-64 of the peak density times its Simpson weight.  With X the
    half span and D the peak over I, the dropped part of C/I is under
    2 X D 2^-64 and that of T/I under X^2 D 2^-64.  On the order-6 supergaussian's +-8 sigma_p grid
    (D = 1/(3.29 sigma_p)) that is 4.9 * 2^-64 and 19.5 * 2^-64 sigma_p, far
    below the rounding of sums of order 1/2 and sigma_p (2^-53 of them).  At
    small L, where C and T scale as L^2 and L, it is under 2 X^3 D/(3
    sigma_p^2) 2^-64 = 104 * 2^-64 of them.  On that grid j = 106 of m = 256
    on 513 points, so K = 4 and the kernel builds 27 coarse and 4 fine table
    rows (K = 8 would give 33 and 8 over the whole half grid), and j = 1,707
    of 4,096 on 8,193 points: K = 16, 107 coarse and 16 fine rows (129 and 32
    at K = 32).  A Gaussian grid (e^-32 of its peak at 8 sigma_p) and a
    rectangular one keep every slot, so j = m.  Measured against every slot
    summed at the whole half grid's K (supergaussian orders 2-12, 0.05-300
    nm, 129-32,769 points, sigma_p L up to 40), C/I keeps its bits and T/I
    moves by at most 1.2e-19 sigma_p.  That move is the shorter matmul's
    summation order, not the dropped mass; so is the 1-2 ulp move at the
    cut's own K on the order-4 grid of 32,769 points, whose full sum OpenBLAS
    splits into blocks of 256 + 257 inner rows, where the cut's 285 rows go
    in one.
    """
    phase_lengths = np.asarray(phase_lengths, dtype=float)
    m, h = grid.density.size // 2, grid.step
    kept = np.flatnonzero(grid.density[m + 1 :] >= _NEGLIGIBLE_DENSITY * grid.density.max())  # i - 1 of kept slots i
    last = int(kept[-1]) + 1 if kept.size else 0
    base = _factor_base(last)
    n_kept = max(last // base, 1) + 1  # coarse rows a = 0..last // K, at least the power table's 2
    rows_b = np.concatenate([np.arange(base), np.arange(0, base, 2)])  # level 0's rows [:K], level 1's [K:]
    weights = np.empty((n_kept, 2, rows_b.size))  # a x (C or T, row (level, b)), slot i = a*K + b
    totals = np.empty(2)
    x = h * np.arange(n_kept * base)  # x_i = h*i; x[::2] holds the even slots
    for stride, rows in ((1, slice(base)), (2, slice(base, None))):
        density = grid.density[::stride]
        simpson = _simpson_weights(density.size, stride * h)
        level = np.zeros((2, n_kept * base // stride))  # (C or T, slot i = 0, stride, 2*stride, ...)
        filled = min(m // stride, level.shape[1] - 1)  # slots past m, or past the kept rows, stay out
        level[0, 1 : filled + 1] = (simpson * density)[density.size // 2 + 1 :][:filled]
        level[1] = level[0] * x[::stride]
        weights[:, :, rows] = level.reshape(2, n_kept, -1).transpose(1, 0, 2)
        totals[stride - 1] = float(np.dot(simpson, density))
    sums = weights.sum(axis=0)[..., np.newaxis]  # S of each row
    weights = weights.reshape(n_kept, -1).T
    n = phase_lengths.size
    block = _BLOCK_ELEMENTS // (4 * rows_b.size)
    if n % block == 1:
        phase_lengths = np.append(phase_lengths, phase_lengths[-1])
    c, t = np.empty((2, 2, phase_lengths.size))
    for lo in range(0, phase_lengths.size, block):
        lengths = phase_lengths[lo : lo + block]
        alpha = _power_table((0.5 * h * base) * lengths, n_kept)
        s_a = alpha.imag
        ss = (weights @ (s_a * s_a)).reshape(2, -1, lengths.size)
        sc = (weights @ (s_a * alpha.real)).reshape(2, -1, lengths.size)
        fine = _power_table((0.5 * h) * lengths, base)[rows_b]  # exp(i B) of each weight row
        sin_sq = np.square(fine.imag)
        double = np.square(fine)  # exp(2i B)
        cos2, sin2 = double.real, double.imag
        c_rows, c_sc, t_rows, t_ss = ss[0], sc[0], sc[1], ss[1]  # views: C_b and T_b form over ss, sc
        c_sc *= sin2
        t_ss *= sin2
        c_rows *= cos2
        c_rows += c_sc
        sin_sq *= sums[0]
        c_rows += sin_sq
        t_rows *= cos2
        t_rows -= t_ss
        sin2 *= 0.5 * sums[1]
        t_rows += sin2
        c[:, lo : lo + block] = c_rows[:base].sum(axis=0), c_rows[base:].sum(axis=0)
        t[:, lo : lo + block] = t_rows[:base].sum(axis=0), t_rows[base:].sum(axis=0)
    c *= 2.0 / totals[:, np.newaxis]
    t *= 4.0 / totals[:, np.newaxis]  # doubled half sum, and sin(xL) = 2 sin(xL/2) cos(xL/2)
    return c[:, :n], t[:, :n]


def _readout_probability(a, c):
    """P = sin^2 A + cos 2A * C/I at half phase ``a`` (``collapse_moments_on_grid``); P = 0 is a value."""
    sin_a = np.sin(a)
    return sin_a * sin_a + np.cos(2.0 * a) * c


def _pointer_readout(p0: float, phase_lengths, rho, c, t) -> tuple:
    """(P, delta_p) from C/I and T/I at each phase length (the identity in
    ``collapse_moments_on_grid``), of the kernel or a closed form; ``c`` and ``t``
    may carry a leading level axis.  Raises NumericalError where P is not positive and finite."""
    a = _half_phase(p0, np.asarray(phase_lengths, dtype=float), rho)
    prob = _readout_probability(a, c)
    require(np.isfinite(prob) & (prob > 0.0), "postselection probability {!r} is not positive and finite", prob)
    delta_p = 0.5 * np.sin(2.0 * a) * t / prob
    return prob, delta_p


def _levels_agree(prob, delta_p, sigma_p, tolerance):
    """Where levels 0 and 1 of a readout (leading axis) agree to ``tolerance``:
    P relative to itself, delta_p relative to sigma_p.  The one convergence
    test of ``collapsed_density`` and ``collapsed_sweep``."""
    return (np.abs(prob[0] - prob[1]) <= tolerance * np.abs(prob[0])) & (
        np.abs(delta_p[0] - delta_p[1]) <= tolerance * sigma_p)


def collapse_moments_on_grid(grid: MomentumGrid, phase_lengths: np.ndarray, rho: float) -> tuple:
    """Sweep kernel: (postselection probabilities, delta_p) for every phase length.

    For a density symmetric about p0 on a grid centered on p0 (as
    ``build_grid`` makes it), with x = p - p0, A = (p0*L + 2 rho)/2
    and I the grid integral of the density (not assumed to be 1),

        P(L)  = sin^2 A + cos 2A * C(L) / I
        dp(L) = 1/2 sin 2A * (T(L) / I) / P(L)

    where C(L) = integral Omega sin^2(x L/2) and T(L) = integral Omega x sin(x L)
    are Simpson sums over the x > 0 half of the grid, doubled; the sin^2 forms
    avoid cancellation at small arguments.  This is level 0 of one
    ``_level_moments`` call (which also sums the stride-2 subgrid, so the
    grid needs an even half-grid point count), read out by
    ``_pointer_readout``.  Skips any refinement guard; ``collapsed_density``
    and ``collapsed_sweep`` guard convergence by comparing the two levels.
    """
    c, t = _level_moments(grid, phase_lengths)
    return _pointer_readout(grid.center, phase_lengths, rho, c[0], t[0])


def collapsed_density(profile: SpectralProfile, settings: MwiSettings) -> CollapseResult:
    """Collapse the meter density under postselection and integrate its moments.

    ``settings`` may be a family (k or rho an array), read out on one grid
    with one kernel call.  The grid is ``build_grid(profile, settings)``,
    sized for the family's largest |L|.  A stride-2 Simpson comparison guards
    the quadrature: levels 0 and 1 of ``_level_moments`` (the grid and its
    stride-2 subgrid), each read out by ``_pointer_readout``, must agree to
    ``_GUARD_TOLERANCE`` (relative for the probability, relative to sigma_p
    for the mean shift) for every member, or the whole family's grid is
    rebuilt at double resolution, at most ``_GUARD_REBUILDS`` times.

    Returns
    -------
    CollapseResult
        The grid the guard accepted (carrying Omega), the postselection
        probability, the mean momentum shift delta_p, and
        delta_lambda = -(lambda0^2/2pi) * delta_p, all read at level 0:
        floats for scalar settings, arrays of the broadcast shape of k and
        rho for a family.

    Raises
    ------
    NumericalError
        If the guard still disagrees after the last rebuild, or a level's
        probability is not positive and finite.
    """
    sigma_p = effective_sigma_p(profile)
    lengths = np.asarray(settings.phase_length, dtype=float)
    # the kernel's (level, L) sums, with L's axes aligned with rho's on the right
    shape = (2,) + (1,) * max(np.ndim(settings.rho) - lengths.ndim, 0) + lengths.shape
    grid = build_grid(profile, settings)
    for rebuilds in range(_GUARD_REBUILDS + 1):
        if rebuilds:
            grid = build_grid(profile, settings, min_points=2 * (grid.density.size - 1) + 1)
        c, t = _level_moments(grid, lengths.ravel())
        prob, delta_p = _pointer_readout(grid.center, lengths, settings.rho, c.reshape(shape), t.reshape(shape))
        if holds(_levels_agree(prob, delta_p, sigma_p, _GUARD_TOLERANCE)):
            break
    else:
        raise NumericalError("collapse quadrature did not converge under grid refinement")

    prob, delta_p = prob[0], delta_p[0]
    if prob.ndim == 0:
        prob, delta_p = float(prob), float(delta_p)
    return CollapseResult(
        density=grid,
        postselection_probability=prob,
        delta_p=delta_p,
        delta_lambda=-(profile.center_wavelength**2 / (2.0 * math.pi)) * delta_p,
    )


def collapsed_sweep(jobs, ks: np.ndarray, gamma: float, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Probability and mean-shift traces over interaction strengths ``ks``:
    arrays (P, delta_p), one row per job (profile, N) of ``jobs``.

    A job's point count is sized for its largest phase length (the last k)
    from a floor of ``_SWEEP_MIN_GRID_POINTS`` points.  Each kernel call
    doubles the last interval count, starting from that count, and reads
    the grid and its stride-2 subgrid; a job is accepted where the two
    agree to ``_SWEEP_TOLERANCE`` (``_levels_agree``) and gets the grid's
    level 0.

    Jobs whose profiles differ only in width share one lattice in units of
    sigma_p: with r = sigma_p(job)/sigma_p(ref), a job's C/I at L is the
    reference's at r*L and its T/I is r times the reference's.  So jobs are
    grouped by profile without width and by that point count; a group
    calls the kernel on the grid of its first job at every job's lengths
    times its r, and its jobs not yet converged go on doubling as a smaller
    group.
    Raises NumericalError, naming the job, past MAX_GRID_POINTS points.
    """
    prob, delta_p = np.empty((2, len(jobs), ks.size))
    groups: dict = {}
    for index, (profile, n) in enumerate(jobs):
        count = grid_point_count(profile, MwiSettings(n, float(ks[-1]), gamma, rho), min_points=_SWEEP_MIN_GRID_POINTS)
        groups.setdefault((replace(profile, width=1.0), count), []).append(index)
    for (_, count), members in groups.items():
        n_intervals = count - 1
        while members:
            n_intervals *= 2
            sigma_p = np.array([effective_sigma_p(jobs[i][0]) for i in members])
            profile, n = jobs[members[0]]
            if n_intervals + 1 > MAX_GRID_POINTS:
                raise NumericalError(
                    f"sweep quadrature for a {profile.shape.value} source of width {profile.width * 1e9:g} nm "
                    f"at N = {n} did not converge to {_SWEEP_TOLERANCE:g} within {MAX_GRID_POINTS} grid points"
                )
            grid = build_grid(profile, min_points=n_intervals + 1)
            ratio = np.repeat(sigma_p / sigma_p[0], ks.size)  # r at each phase length
            lengths = (np.array([jobs[i][1] for i in members])[:, np.newaxis] * ks + gamma).ravel()
            c, t = _level_moments(grid, ratio * lengths)
            readout = _pointer_readout(grid.center, lengths, rho, c, ratio * t)
            p, dp = (values.reshape(2, len(members), ks.size) for values in readout)
            agree = _levels_agree(p, dp, sigma_p[:, np.newaxis], _SWEEP_TOLERANCE).all(axis=1)
            rows = np.array(members)[agree]
            prob[rows], delta_p[rows] = p[0, agree], dp[0, agree]
            members = [i for i, ok in zip(members, agree) if not ok]
    return prob, delta_p


def _neg_square(x):
    """-x**2 of a float or an array, or -inf where |x| >= 1e154 (the square overflows) or x is NaN:
    the exponent of a Gaussian damping factor, whose exponential is 0 long before that."""
    small = np.abs(x) < 1e154
    return np.where(small, -np.square(np.where(small, x, 0.0)), -np.inf)[()]


def _gaussian_moments(sigma_p: float, phase_length):
    """(C/I, T/I) of a Gaussian density from phi(L) = exp(-x^2/2), x = sigma_p L: C/I = (1 - phi)/2 =
    -expm1(-x^2/2)/2 and T/I = -phi'(L) = sigma_p x phi, damped before the second sigma_p (0, not
    NaN, where sigma_p^2 L overflows)."""
    x = sigma_p * phase_length
    exponent = 0.5 * _neg_square(x)
    return -0.5 * np.expm1(exponent), sigma_p * (x * np.exp(exponent))


def postselection_probability_gaussian(sigma_p: float, p0: float, settings: MwiSettings):
    """Postselection probability for a Gaussian momentum density, exact.

    P = 1/2 [1 - exp(-(sigma_p L)^2 / 2) cos(L p0 + 2 rho)] with
    L = N*k + gamma (the path imbalance enters by the substitution
    N*k -> N*k + gamma), the readout of ``_gaussian_moments``.  sigma_p is the
    standard deviation of the momentum density; 0 gives the monochromatic
    limit.  A float k and rho give a numpy float, an array k or rho an array;
    P = 0 is a value.  Raises ValueError if sigma_p < 0, and NumericalError
    where the phase L*p0 + 2 rho is not finite.
    """
    if sigma_p < 0.0:
        raise ValueError(f"sigma_p must be >= 0, got {sigma_p!r}")
    L = settings.phase_length
    a = _half_phase(p0, L, settings.rho)
    require(np.isfinite(a), "postselection phase L*p0 + 2 rho = {!r} for L = {!r} m: no probability", 2.0 * a, L)
    return _readout_probability(a, _gaussian_moments(sigma_p, L)[0])


def pointer_shift_p_gaussian(sigma_p: float, p0: float, settings: MwiSettings):
    """Mean momentum shift for a Gaussian density (exact closed form), rad/m.

    delta_p = sigma_p^2 L exp(-(sigma_p L)^2/2) sin(L p0 + 2 rho) / (2 P),
    ``_pointer_readout`` of ``_gaussian_moments``; floats or arrays as for P.
    Raises ValueError if sigma_p <= 0 (no momentum pointer), and
    NumericalError where P is not positive and finite (0, or a phase that is
    not finite).
    """
    if sigma_p <= 0.0:
        raise ValueError("no momentum pointer for a monochromatic source (sigma_p = 0)")
    L = settings.phase_length
    return _pointer_readout(p0, L, settings.rho, *_gaussian_moments(sigma_p, L))[1]


def pointer_shift_p_approx(sigma_p: float, settings: MwiSettings) -> float:
    """Linear-regime momentum shift k sigma_p^2 N cot(rho), rad/m.

    Valid for k*p0/2 << rho << 1; exactly proportional to sigma_p^2.
    """
    if sigma_p <= 0.0:
        raise ValueError("no momentum pointer for a monochromatic source (sigma_p = 0)")
    return settings.k * sigma_p**2 * im_weak_value(settings.n_interactions, settings.rho)


def intensity_after_postselection(i_init: float, sigma_p: float, p0: float, settings: MwiSettings):
    """Postselected intensity i_init * P and its relative shift (I - I0) / I0.

    The baseline is the same chain at k = 0 (same gamma and rho): the
    reference is zero interaction strength, not zero total phase.  An array k or rho
    gives arrays.  Raises NumericalError where the baseline underflows to 0.
    """
    if i_init <= 0.0:
        raise ValueError(f"initial intensity must be > 0, got {i_init!r}")
    k0 = MwiSettings(settings.n_interactions, 0.0, settings.gamma, settings.rho)
    baseline = i_init * postselection_probability_gaussian(sigma_p, p0, k0)
    require(baseline > 0.0, "baseline intensity {!r} at k = 0: no relative shift", baseline)
    intensity = i_init * postselection_probability_gaussian(sigma_p, p0, settings)
    return intensity, (intensity - baseline) / baseline


def intensity_shift_approx(sigma_p: float, p0: float, settings: MwiSettings):
    """Linear-regime intensity shift exp(-(sigma_p N k)^2) p0 k N cot(rho).

    Reference small-signal form: grows linearly with N and decreases
    strictly with sigma_p for N*k != 0.  An array sigma_p, k or rho gives an array.
    """
    x = sigma_p * (settings.n_interactions * settings.k)
    damp = np.exp(_neg_square(x))
    return damp * p0 * settings.k * im_weak_value(settings.n_interactions, settings.rho)


def _oracle_amplitude(points: np.ndarray, settings: MwiSettings) -> np.ndarray:
    """The oracle's |H> amplitude phase at momenta ``points``: the complex
    per-pass phases of ``oracle_joint_state``, N passes of k and the path
    imbalance gamma as one phase.  |V>, the -1 eigenvector of the coupling
    diag(+1, -1), carries the conjugate.  It depends on ``settings`` only
    through the phase length: exp(0.5j * L * points), filled from the cosine
    and sine of theta = (0.5 * L) * points, which skips the complex exp's work
    and gives the same bits (a test holds it to them)."""
    theta = (0.5 * settings.phase_length) * points
    amp_h = np.empty(theta.shape, complex)
    np.cos(theta, out=amp_h.real)
    np.sin(theta, out=amp_h.imag)
    return amp_h


def _oracle_factor(amp_h: np.ndarray, rho: float) -> np.ndarray:
    """The oracle's projection before the meter amplitude: the |H> amplitude
    phase and its |V> conjugate weighted by <post|H><H|pre> and <post|V><V|pre>,
    for the postselection state at angle ``rho``.  The one place that forms
    it: numpy rounds a complex scalar x array and array x scalar differently,
    and swaps the operands of a large temporary, so a restatement can move
    the oracle's bits."""
    (pre_h, pre_v), (post_h, post_v) = preselection_state(), postselection_state(rho)
    return post_h.conjugate() * pre_h * amp_h + post_v.conjugate() * pre_v * np.conj(amp_h)


def _oracle_project(factor: np.ndarray, root_density: np.ndarray) -> np.ndarray:
    """The oracle's collapsed density: the projection ``_oracle_factor`` times
    the square root of the initial density, squared (in place: the real part
    of z * conj(z) does not depend on the operand order)."""
    proj = factor * root_density
    proj *= np.conj(proj)
    return proj.real


def oracle_deviations(cases) -> list:
    """The oracle's deviation for every (profile, settings) case of ``cases``,
    in order: the max relative difference of the oracle's collapsed density
    from the direct path's on the case's ``build_grid(profile, settings)``
    grid, over points above 1e-15 of the direct peak.

    Both densities depend on a case only through its grid (profile and point
    count), its phase length L and rho; the oracle's complex phase, the
    half-phase sine and the oracle's factor only through the grid's points
    (center, half span, point count), L and rho.  The cases are grouped by
    points, then by L, then by rho, then by profile: the grids that share
    their points are built once and held together, one such set at a time;
    the phase is taken once per (points, L), the sine and the factor once per
    (points, L, rho), and the two densities and their deviation once per
    profile, shared by every case with those values.
    """
    # (center, half span, point count) -> L -> (settings, rho -> profile -> case indices)
    groups: dict = {}
    keys: dict = {}  # (profile, L) -> the key of its grid points, which depend on nothing else
    for index, (profile, settings) in enumerate(cases):
        key = keys.get((profile, settings.phase_length))
        if key is None:
            key = keys[profile, settings.phase_length] = (
                profile.center_wavelength, _grid_half_span(profile), grid_point_count(profile, settings))
        _, by_rho = groups.setdefault(key, {}).setdefault(settings.phase_length, (settings, {}))
        by_rho.setdefault(settings.rho, {}).setdefault(profile, []).append(index)
    deviations = [0.0] * len(cases)
    for (_, _, n_points), by_length in groups.items():
        grids = {p: build_grid(p, min_points=n_points)
                 for p in dict.fromkeys(p for _, by_rho in by_length.values() for by_p in by_rho.values() for p in by_p)}
        densities = {profile: (grid.density, np.sqrt(grid.density)) for profile, grid in grids.items()}
        points = next(iter(grids.values())).points
        for settings, by_rho in by_length.values():
            amp_h = _oracle_amplitude(points, settings)
            for rho, by_profile in by_rho.items():
                s = _half_phase_sine(points, settings.phase_length, rho)
                factor = _oracle_factor(amp_h, rho)
                for profile, indices in by_profile.items():
                    dev = _oracle_deviation(s, factor, *densities[profile])
                    for index in indices:
                        deviations[index] = dev
                del s, factor  # before the next rho's are formed
            del amp_h  # before the next L's is formed
    return deviations


def _oracle_deviation(s: np.ndarray, factor: np.ndarray, density: np.ndarray, root_density: np.ndarray) -> float:
    """Max relative difference of the oracle's collapsed density from the
    direct path's, Omega*s*s, over points above 1e-15 of the latter's peak.
    The difference is formed once, contiguous, and worked in place; every
    array is released on return."""
    o = _oracle_project(factor, root_density)
    d = density * s * s
    mask = d > 1e-15 * float(d.max())
    o = o - d
    np.abs(o, out=o)
    np.divide(o, d, out=o, where=mask)
    o[~mask] = 0.0
    return float(o.max())


def oracle_joint_state(profile: SpectralProfile, settings: MwiSettings, grid: MomentumGrid) -> CollapseResult:
    """Brute-force oracle: literal joint-state evolution and projection.

    Builds the system-meter state amplitude by amplitude (complex per-pass
    phases on |H> and |V> against sqrt of the density), projects onto the
    postselection state, and squares -- no trigonometric shortcut.  Its
    moments are Simpson sums of the collapsed density on ``grid``, kept apart
    from the sweep kernel.  Used to validate ``collapsed_density``.
    """
    amp_h = _oracle_amplitude(grid.points, settings)
    wd = grid.weights * _oracle_project(_oracle_factor(amp_h, settings.rho), np.sqrt(grid.density))
    prob = float(wd.sum())
    delta_p = float((wd * grid.offsets).sum()) / prob
    return CollapseResult(
        density=grid,
        postselection_probability=prob / grid.integral(),
        delta_p=delta_p,
        delta_lambda=-(profile.center_wavelength**2 / (2.0 * math.pi)) * delta_p,
    )
