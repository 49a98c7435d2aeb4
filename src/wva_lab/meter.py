"""Postselection collapse of the meter state and both pointer shifts.

The collapsed (unnormalized) momentum density after N weak passes with a
path-imbalance phase is

    D(p) = Omega(p)/2 * [1 - cos(p*(N*k + gamma) + 2*rho)]
         = Omega(p) * sin^2((p*(N*k + gamma) + 2*rho)/2).

The momentum (P) pointer is the density-weighted mean shift of D, reported
also as a wavelength shift; the intensity (I) pointer is the postselected
total signal.  One grid path computes them, from the symmetric-density
identity in the docstring of ``collapse_moments_on_grid``, in two steps:
the kernel ``_level_moments`` sums C/I and T/I on a grid and its strided
coarser levels, and ``_pointer_readout`` turns (C/I, T/I, A) into
(P, delta_p).  ``collapse_moments_on_grid`` composes the two at level 0.
``collapsed_density(profile, settings)`` builds its own grid for one
setting, reads levels 0 and 1 and doubles the grid until they agree; it
takes no other argument, so there is one way to call it.  The sweeps of
``wva_lab.scenarios`` call the two steps apart, to read a kernel call made
at scaled phase lengths out at each source's own.
Alongside them this module provides exact closed forms for Gaussian
densities, the linear-regime approximations (through the weak value
``polarization.im_weak_value``), and a brute-force joint-state oracle for
verification, which projects onto the states of ``wva_lab.polarization``.
The closed forms take a float or an array, as settings whose k or rho is an array (a trace) do.
The oracle is three steps: the complex phase ``_oracle_amplitude`` (points
and L), the profile-free projection ``_oracle_factor`` (and rho), and
``_oracle_project``, which multiplies by sqrt Omega and squares; the direct
density is ``_half_phase_sine`` (points, L and rho) squared times Omega.
``oracle_joint_state`` composes the oracle's steps for one case, and
``_oracle_deviations`` evaluates a verification matrix on one set of grid
points, each step once for every profile that shares it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, require
from .polarization import MwiSettings, _xp, im_weak_value, postselection_state, preselection_state
from .spectra import MomentumGrid, SpectralProfile, _simpson_weights, build_grid, effective_sigma_p

# collapsed_density's stride-2 guard: the agreement it asks of the kernel's
# levels 0 and 1, and the grid doublings it makes before giving up
_GUARD_TOLERANCE = 1e-9
_GUARD_REBUILDS = 3
# values the a-factor products of one sweep-kernel block hold (bounds its memory)
_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class CollapseResult:
    """The pointer readouts of one collapse, with the grid they were integrated on."""

    # the grid, carrying the initial density Omega (not D); the name stays
    # because the benchmark tracer counts the points of ``result.density``
    density: MomentumGrid
    postselection_probability: float
    delta_p: float       # rad/m
    delta_lambda: float  # meters; sign convention delta_lambda = -(lambda0^2/2pi) delta_p

    def __post_init__(self) -> None:
        if not (0.0 <= self.postselection_probability <= 1.0):
            raise ValueError(
                f"postselection probability outside [0, 1]: {self.postselection_probability!r}"
            )


def _half_phase_sine(points: np.ndarray, phase_length: float, two_rho: float) -> np.ndarray:
    """sin((p*L + 2 rho)/2) at momenta ``points``: the collapse's half phase."""
    return np.sin(0.5 * (points * phase_length + two_rho))


def _collapse(grid: MomentumGrid, phase_length: float, two_rho: float) -> np.ndarray:
    """D(p) = Omega(p) * sin^2((p*L + 2 rho)/2) on the grid; the sin^2 form is
    the exact rewrite of (1 - cos)/2 and avoids cancellation at small arguments."""
    s = _half_phase_sine(grid.points, phase_length, two_rho)
    return grid.density * s * s


def _factor_base(half_points: int) -> int:
    """K, a power of two near sqrt(m), for the split i = a*K + b of the half
    grid's point index i = 1..m (a = 0..m//K, b = 0..K-1)."""
    return 1 << (half_points.bit_length() // 2)


def _elements_per_phase_length(half_points: int, n_levels: int) -> int:
    """Values the sweep kernel holds per phase length: three a-factor
    products, each against the C and T weights of every level and b."""
    return 3 * 2 * n_levels * _factor_base(half_points)


def _level_moments(
    grid: MomentumGrid, phase_lengths: np.ndarray, n_levels: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sweep kernel: C/I and T/I on a grid and its coarser levels at once.

    Level j is the stride-2^j subgrid of ``grid``, the lattice of step 2^j*h
    (a Simpson grid while the interval count stays even).  Returns (C/I, T/I),
    each of shape (n_levels, len(phase_lengths)).  C and T are sums over the
    x > 0 half grid, x_i = i*h for i = 1..m, of weights (each level's Simpson
    weights of step 2^j*h x Omega on its own points, zero elsewhere) times
    sin^2(x_i L/2) and x_i sin(x_i L); each level is normalized by its own I.

    With i = a*K + b (``_factor_base``) the half phase x_i L/2 is
    alpha + beta, alpha = a*K*h*L/2 and beta = b*h*L/2, so

        sin^2(alpha + beta)  = sA^2 cB^2 + 2 sA cA sB cB + cA^2 sB^2
        sin(2(alpha + beta)) = 2 sA cA (cB^2 - sB^2) + (cA^2 - sA^2) 2 sB cB

    and sin and cos are taken on m//K + 1 angles alpha and K angles beta
    per phase length instead of on m points.  Each a-factor (sA^2, sA cA,
    cA^2) meets the weights, arranged as (C or T, level, b) x a, in one
    matmul, and the b-factors finish the sums over b.  Phase lengths run
    along the last axis, so every elementwise step runs over them.  Where C
    is small (narrow sources) every angle is small and every term is
    nonnegative, so the expansion does not cancel.
    """
    phase_lengths = np.asarray(phase_lengths, dtype=float)
    m = grid.density.size // 2
    h = grid.step
    base = _factor_base(m)
    n_coarse = m // base + 1
    # (C or T, level, slot i = a*K + b of the half grid); slot 0 (x = 0) and slots past m weigh 0
    weights = np.zeros((2, n_levels, n_coarse * base))
    totals = np.empty(n_levels)
    for j in range(n_levels):
        stride = 2**j
        density = grid.density[::stride]
        simpson = _simpson_weights(density.size, stride * h)
        level_mid = density.size // 2
        weights[0, j, stride : m + 1 : stride] = simpson[level_mid + 1 :] * density[level_mid + 1 :]
        totals[j] = float(np.dot(simpson, density))
    weights[1] = weights[0] * (h * np.arange(n_coarse * base))
    weights = weights.reshape(2 * n_levels, n_coarse, base).transpose(0, 2, 1).reshape(-1, n_coarse)
    coarse_angles = (0.5 * h * base) * np.arange(n_coarse)
    fine_angles = (0.5 * h) * np.arange(base)
    c = np.empty((n_levels, phase_lengths.size))
    t = np.empty((n_levels, phase_lengths.size))
    block = max(1, _BLOCK_ELEMENTS // _elements_per_phase_length(m, n_levels))
    for lo in range(0, phase_lengths.size, block):
        lengths = phase_lengths[lo : lo + block]
        alpha = np.multiply.outer(coarse_angles, lengths)
        s_a, c_a = np.sin(alpha), np.cos(alpha)
        beta = np.multiply.outer(fine_angles, lengths)
        s_b, c_b = np.sin(beta), np.cos(beta)
        shape = (2, n_levels, base, lengths.size)
        ss = (weights @ (s_a * s_a)).reshape(shape)
        sc = (weights @ (s_a * c_a)).reshape(shape)
        cc = (weights @ (c_a * c_a)).reshape(shape)
        ss_b, sc_b, cc_b = s_b * s_b, s_b * c_b, c_b * c_b
        c[:, lo : lo + block] = (ss[0] * cc_b + 2.0 * sc[0] * sc_b + cc[0] * ss_b).sum(axis=1)
        t[:, lo : lo + block] = (sc[1] * (cc_b - ss_b) + (cc[1] - ss[1]) * sc_b).sum(axis=1)
    c *= 2.0 / totals[:, np.newaxis]
    t *= 4.0 / totals[:, np.newaxis]  # doubled half sum, and sin(xL) = 2 sin(xL/2) cos(xL/2)
    return c, t


def _pointer_readout(
    p0: float, phase_lengths: np.ndarray, rho: float, c: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(P, delta_p) from C/I and T/I at each phase length (the identity in
    ``collapse_moments_on_grid``); ``c`` and ``t`` may carry a leading level
    axis.  Raises NumericalError where P is not positive and finite."""
    a = 0.5 * (p0 * np.asarray(phase_lengths, dtype=float) + 2.0 * rho)
    sin_a = np.sin(a)
    prob = sin_a * sin_a + np.cos(2.0 * a) * c
    require(np.isfinite(prob) & (prob > 0.0), "collapsed density integrated to a non-positive value")
    delta_p = 0.5 * np.sin(2.0 * a) * t / prob
    return prob, delta_p


def collapse_moments_on_grid(
    grid: MomentumGrid, phase_lengths: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep kernel: (postselection probabilities, delta_p) for every phase length.

    For a density symmetric about p0 on a grid centered on p0 (as
    ``build_grid`` makes it), with x = p - p0, A = (p0*L + 2 rho)/2
    and I the grid integral of the density (not assumed to be 1),

        P(L)  = sin^2 A + cos 2A * C(L) / I
        dp(L) = 1/2 sin 2A * (T(L) / I) / P(L)

    where C(L) = integral Omega sin^2(x L/2) and T(L) = integral Omega x sin(x L)
    are Simpson sums over the x > 0 half of the grid, doubled; the sin^2 forms
    avoid cancellation at small arguments.
    The L axis runs in blocks whose products hold at most ``_BLOCK_ELEMENTS``
    values.
    Skips any refinement guard; ``collapsed_density`` and the sweeps guard
    convergence by comparing grid levels.  This is level 0 of
    ``_level_moments``, read out by ``_pointer_readout``.
    """
    c, t = _level_moments(grid, phase_lengths, 1)
    return _pointer_readout(grid.center, phase_lengths, rho, c[0], t[0])


def collapsed_density(profile: SpectralProfile, settings: MwiSettings) -> CollapseResult:
    """Collapse the meter density under postselection and integrate its moments.

    The grid is ``build_grid(profile, settings)``.  A stride-2 Simpson
    comparison guards the quadrature: levels 0 and 1 of ``_level_moments``
    (the grid and its stride-2 subgrid), each read out by
    ``_pointer_readout``, must agree to ``_GUARD_TOLERANCE`` (relative for
    the probability, relative to sigma_p for the mean shift), or the grid is
    rebuilt at double resolution, at most ``_GUARD_REBUILDS`` times.

    Returns
    -------
    CollapseResult
        The grid the guard accepted (carrying Omega), the postselection
        probability, the mean momentum shift delta_p, and
        delta_lambda = -(lambda0^2/2pi) * delta_p, all read at level 0.

    Raises
    ------
    ValueError
        For a monochromatic profile (no momentum pointer).
    NumericalError
        If the guard still disagrees after the last rebuild, or a level's
        probability is not positive and finite.
    """
    if profile.is_monochromatic:
        raise ValueError(
            "monochromatic profile: the momentum pointer is undefined; "
            "use intensity_after_postselection"
        )
    sigma_p = effective_sigma_p(profile)
    length = settings.phase_length
    grid = build_grid(profile, settings)
    for rebuilds in range(_GUARD_REBUILDS + 1):
        if rebuilds:
            grid = build_grid(profile, settings, min_points=2 * (grid.density.size - 1) + 1)
        c, t = _level_moments(grid, [length], 2)
        (prob, prob_half), (delta_p, shift_half) = _pointer_readout(grid.center, length, settings.rho, c[:, 0], t[:, 0])
        prob_ok = abs(prob - prob_half) <= _GUARD_TOLERANCE * abs(prob)
        shift_ok = abs(delta_p - shift_half) <= _GUARD_TOLERANCE * sigma_p
        if prob_ok and shift_ok:
            break
    else:
        raise NumericalError("collapse quadrature did not converge under grid refinement")

    delta_p = float(delta_p)
    return CollapseResult(
        density=grid,
        postselection_probability=float(prob),
        delta_p=delta_p,
        delta_lambda=-(profile.center_wavelength**2 / (2.0 * math.pi)) * delta_p,
    )


def _neg_square(x):
    """-x**2 of a float or an array, or -inf where |x| >= 1e154 (the square overflows) or x is NaN:
    the exponent of a Gaussian damping factor, whose exponential is 0 long before that."""
    small = np.abs(x) < 1e154
    return np.where(small, -np.square(np.where(small, x, 0.0)), -np.inf)[()]


def postselection_probability_gaussian(sigma_p: float, p0: float, settings: MwiSettings):
    """Postselection probability for a Gaussian momentum density, exact.

    P = 1/2 [1 - exp(-(sigma_p L)^2 / 2) cos(L p0 + 2 rho)] with
    L = N*k + gamma (the path imbalance enters by the substitution
    N*k -> N*k + gamma).  sigma_p refers to the standard deviation of the
    momentum density; sigma_p = 0 gives the monochromatic limit.  An array
    k or rho gives an array; a phase that is not finite raises NumericalError.
    """
    if sigma_p < 0.0:
        raise ValueError(f"sigma_p must be >= 0, got {sigma_p!r}")
    L = settings.phase_length
    theta = L * p0 + 2.0 * settings.rho
    require(np.isfinite(theta), "postselection phase L*p0 + 2 rho = {!r} for L = {!r} m: no probability", theta, L)
    x, xp = sigma_p * L, _xp(theta)
    # 1/2(1 - d cos) = sin^2(theta/2) + (1 - d)/2 cos(theta), both terms stable
    half_one_minus_damp = -0.5 * _xp(x).expm1(0.5 * _neg_square(x))
    return xp.sin(0.5 * theta) ** 2 + half_one_minus_damp * xp.cos(theta)


def pointer_shift_p_gaussian(sigma_p: float, p0: float, settings: MwiSettings):
    """Mean momentum shift for a Gaussian density (exact closed form), rad/m.

    delta_p = sigma_p^2 L exp(-(sigma_p L)^2/2) sin(L p0 + 2 rho) / (2 P),
    with the damping applied to sigma_p L before the second sigma_p, so a
    damping of 0 gives 0 where sigma_p^2 L overflows.  An array k or rho
    gives an array.
    """
    if sigma_p <= 0.0:
        raise ValueError("no momentum pointer for a monochromatic source (sigma_p = 0)")
    L = settings.phase_length
    prob = postselection_probability_gaussian(sigma_p, p0, settings)
    x, theta = sigma_p * L, L * p0 + 2.0 * settings.rho
    return sigma_p * (x * _xp(x).exp(0.5 * _neg_square(x))) * _xp(theta).sin(theta) / (2.0 * prob)


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
    damp = _xp(x).exp(_neg_square(x))
    return damp * p0 * settings.k * im_weak_value(settings.n_interactions, settings.rho)


def _oracle_amplitude(points: np.ndarray, settings: MwiSettings, sequential: bool = False) -> np.ndarray:
    """The oracle's |H> amplitude phase at momenta ``points``: the complex
    per-pass phases of ``oracle_joint_state``.  |V>, the -1 eigenvector of
    the coupling diag(+1, -1), carries the conjugate.
    Without ``sequential`` it depends on ``settings`` only through the
    phase length."""
    if sequential:
        amp_h = np.exp(0.5j * settings.gamma * points)
        step = np.exp(0.5j * settings.k * points)
        for _ in range(settings.n_interactions):
            amp_h = amp_h * step
        return amp_h
    return np.exp(0.5j * settings.phase_length * points)


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


def _oracle_deviations(points: np.ndarray, by_length: dict, densities: dict):
    """Yield (tag, deviation) for every case of one set of grid points: the
    max relative difference of the oracle's collapsed density from the direct
    path's, over points above 1e-15 of the direct peak.

    ``by_length`` maps each phase length L to (settings with that L,
    rho -> profile key -> tag), and ``densities`` each profile key to
    (Omega, sqrt Omega) on ``points``.  The oracle's phase is taken once per
    L, the half-phase sine and the oracle's factor once per (L, rho), and
    both densities and their deviation once per profile.
    """
    for settings, by_rho in by_length.values():
        amp_h = _oracle_amplitude(points, settings)
        for rho, by_profile in by_rho.items():
            s = _half_phase_sine(points, settings.phase_length, 2.0 * rho)
            factor = _oracle_factor(amp_h, rho)
            for key, tag in by_profile.items():
                yield tag, _oracle_deviation(s, factor, *densities[key])
            del s, factor  # before the next rho's are formed


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


def oracle_joint_state(
    profile: SpectralProfile,
    settings: MwiSettings,
    grid: MomentumGrid,
    *,
    sequential: bool = False,
) -> CollapseResult:
    """Brute-force oracle: literal joint-state evolution and projection.

    Builds the system-meter state amplitude by amplitude (complex per-pass
    phases on |H> and |V> against sqrt of the density), projects onto the
    postselection state, and squares -- no trigonometric shortcut.  With
    ``sequential=True`` the N passes are applied one at a time instead of as
    a single N-fold phase.  Its moments are Simpson sums of the collapsed
    density on ``grid``, kept apart from the sweep kernel.  Used to validate
    ``collapsed_density``.
    """
    if profile.is_monochromatic:
        raise ValueError("monochromatic profile: oracle needs a momentum grid")
    amp_h = _oracle_amplitude(grid.points, settings, sequential)
    wd = grid.weights * _oracle_project(_oracle_factor(amp_h, settings.rho), np.sqrt(grid.density))
    prob = float(wd.sum())
    delta_p = float((wd * grid.offsets).sum()) / prob
    return CollapseResult(
        density=grid,
        postselection_probability=prob / grid.integral(),
        delta_p=delta_p,
        delta_lambda=-(profile.center_wavelength**2 / (2.0 * math.pi)) * delta_p,
    )
