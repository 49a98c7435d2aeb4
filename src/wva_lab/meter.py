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
on the grid and its strided coarser levels; ``collapse_moments_on_grid``
composes the two steps at level 0.
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
# values the two a-factor products of one sweep-kernel block hold (bounds its memory; README)
_BLOCK_ELEMENTS = 2**15


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


def _factor_base(half_points: int) -> int:
    """K, a power of two near sqrt(m), for the split i = a*K + b of the half
    grid's point index i = 1..m (a = 0..m//K, b = 0..K-1)."""
    return 1 << (half_points.bit_length() // 2)


def _elements_per_phase_length(half_points: int, n_levels: int) -> int:
    """Values the sweep kernel holds per phase length: two a-factor products,
    each against the C and T weights of the K/min(2^j, K) b rows of each level j."""
    base = _factor_base(half_points)
    return 2 * 2 * sum(base // min(2**j, base) for j in range(n_levels))


def _level_moments(
    grid: MomentumGrid, phase_lengths: np.ndarray, n_levels: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sweep kernel: C/I and T/I on a grid and its coarser levels at once.

    Level j is the stride-2^j subgrid of ``grid``, the lattice of step 2^j*h
    (a Simpson grid while the interval count stays even).  Returns (C/I, T/I),
    each of shape (n_levels, len(phase_lengths)): sums over the x > 0 half
    grid, x_i = i*h for i = 1..m, of each level's Simpson weights x Omega on
    its own points times sin^2(x_i L/2) and x_i sin(x_i L), over its own I.

    With i = a*K + b (``_factor_base``), x_i L/2 = alpha + beta with alpha =
    a*K*h*L/2 and beta = b*h*L/2, so sin and cos are taken on m//K + 1 angles
    alpha and K angles beta per phase length, not on m points.  Level j weighs
    only slots i = 0 mod 2^j: its weight rows are b = 0, s, 2s, ... with
    s = min(2^j, K).  The a-factors sA^2 and sA cA each meet the rows in one
    matmul (ss, sc), cA^2 = 1 - sA^2 enters through each row's weight sum S,
    and a level sums its rows of C_b = ss (cB^2 - sB^2) + 2 sc sB cB + S sB^2
    and T_b = sc (cB^2 - sB^2) + (S - 2 ss) sB cB over b, phase lengths along
    the last axis.  Where C is small (narrow sources) every angle is small:
    ss << S, so S - 2 ss does not cancel, and every term is nonnegative.
    """
    phase_lengths = np.asarray(phase_lengths, dtype=float)
    m, h = grid.density.size // 2, grid.step
    base = _factor_base(m)
    n_coarse = m // base + 1
    strides = [min(2**j, base) for j in range(n_levels)]  # level j's weight rows are b = 0, s, 2s, ...
    rows_b = np.concatenate([np.arange(0, base, s) for s in strides])
    edges = [sum(base // s for s in strides[:j]) for j in range(n_levels + 1)]  # level j: edges[j]:edges[j + 1]
    weights = np.empty((n_coarse, 2, rows_b.size))  # a x (C or T, row (level, b)), slot i = a*K + b
    totals = np.empty(n_levels)
    x = h * np.arange(n_coarse * base)  # x_i = h*i; x[::s] holds slots 0, s, 2s, ...
    for j, s in enumerate(strides):
        stride = 2**j
        density = grid.density[::stride]
        simpson = _simpson_weights(density.size, stride * h)
        level = np.zeros((2, n_coarse * (base // s)))  # (C or T, slot i = 0, s, 2s, ...), 0 off the level
        level[0, stride // s : m // s + 1 : stride // s] = (simpson * density)[density.size // 2 + 1 :]
        level[1] = level[0] * x[::s]
        weights[:, :, edges[j] : edges[j + 1]] = level.reshape(2, n_coarse, -1).transpose(1, 0, 2)
        totals[j] = float(np.dot(simpson, density))
    sums = weights.sum(axis=0)[..., np.newaxis]  # S of each row
    weights = weights.reshape(n_coarse, -1).T
    coarse_angles, fine_angles = (0.5 * h * base) * np.arange(n_coarse), (0.5 * h) * np.arange(base)
    c, t = np.empty((2, n_levels, phase_lengths.size))
    block = max(1, _BLOCK_ELEMENTS // _elements_per_phase_length(m, n_levels))
    for lo in range(0, phase_lengths.size, block):
        lengths = phase_lengths[lo : lo + block]
        alpha = np.multiply.outer(coarse_angles, lengths)
        s_a, c_a = np.sin(alpha), np.cos(alpha)
        beta = np.multiply.outer(fine_angles, lengths)
        s_b, c_b = np.sin(beta), np.cos(beta)
        ss = (weights @ (s_a * s_a)).reshape(2, -1, lengths.size)
        sc = (weights @ (s_a * c_a)).reshape(2, -1, lengths.size)
        ss_b = s_b * s_b
        cos2_b, sin2_b, ss_b = (c_b * c_b - ss_b)[rows_b], (2.0 * (s_b * c_b))[rows_b], ss_b[rows_b]
        c_rows = ss[0] * cos2_b + sc[0] * sin2_b + sums[0] * ss_b
        t_rows = sc[1] * cos2_b + (0.5 * sums[1] - ss[1]) * sin2_b  # T_b bit for bit: a factor 2 is exact
        for j in range(n_levels):
            c[j, lo : lo + block] = c_rows[edges[j] : edges[j + 1]].sum(axis=0)
            t[j, lo : lo + block] = t_rows[edges[j] : edges[j + 1]].sum(axis=0)
    c *= 2.0 / totals[:, np.newaxis]
    t *= 4.0 / totals[:, np.newaxis]  # doubled half sum, and sin(xL) = 2 sin(xL/2) cos(xL/2)
    return c, t


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
    avoid cancellation at small arguments.  This is level 0 of
    ``_level_moments`` (all K weight rows per C or T, and two a-factor
    products of at most ``_BLOCK_ELEMENTS`` values per block of L), read out
    by ``_pointer_readout``.  Skips any refinement guard; ``collapsed_density``
    and ``collapsed_sweep`` guard convergence by comparing grid levels.
    """
    c, t = _level_moments(grid, phase_lengths, 1)
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
        c, t = _level_moments(grid, lengths.ravel(), 2)
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
            c, t = _level_moments(grid, ratio * lengths, 2)
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
