"""Meter spectral models and wavelength <-> momentum conversion.

Momentum is the angular wavenumber p = 2*pi/lambda in rad/m.  A profile's
quoted width is interpreted according to ``width_convention``:

* ``"sigma"`` (default): the quoted width is the standard deviation of the
  momentum-space density, whatever the shape (equal-variance rule: a
  rectangle of full width W has sigma = W/sqrt(12), a flat-top supergaussian
  is matched the same way).
* ``"fwhm"``: the quoted width is the full width at half maximum.

Grids are exact offset lattices p0 + i*h stored as (p0, h, density), carry
composite-Simpson weights, and normalize the sampled density to unit
integral under their own quadrature rule.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NumericalError, require
from .polarization import MwiSettings

MIN_GRID_POINTS = 2**13 + 1
MAX_GRID_POINTS = 2**21 + 1
_SPAN_WIDTHS = 8.0       # grid half span in effective widths sigma_p (not rectangular)
_PERIOD_SAMPLES = 32     # grid points per period of the postselection modulation


class Shape(str, enum.Enum):
    GAUSSIAN = "gaussian"
    SUPERGAUSSIAN = "supergaussian"
    RECTANGULAR = "rectangular"


_WIDTH_CONVENTIONS = ("sigma", "fwhm")


def _supergaussian_sigma_factor(order: int) -> float:
    """Std of exp(-|x/w|^order) relative to w: sqrt(G(3/order)/G(1/order))."""
    return math.sqrt(math.gamma(3.0 / order) / math.gamma(1.0 / order))


@dataclass(frozen=True)
class SpectralProfile:
    """Source spectrum: shape family, center wavelength, quoted width (meters)."""

    shape: Shape
    center_wavelength: float
    width: float
    order: int = 6
    width_convention: str = "sigma"

    def __post_init__(self) -> None:
        if self.shape not in {s.value for s in Shape}:
            raise ValueError(f"shape must be one of {[s.value for s in Shape]}, got {self.shape!r}")
        object.__setattr__(self, "shape", Shape(self.shape))
        if self.center_wavelength <= 0.0:
            raise ValueError(f"center wavelength must be > 0, got {self.center_wavelength!r}")
        if self.width <= 0.0:
            raise ValueError(f"width must be > 0 for shape {self.shape.value}, got {self.width!r}")
        if self.shape is Shape.SUPERGAUSSIAN and (self.order < 2 or self.order % 2 != 0):
            raise ValueError(f"supergaussian order must be an even integer >= 2, got {self.order!r}")
        if self.width_convention not in _WIDTH_CONVENTIONS:
            raise ValueError(f"width_convention must be one of {_WIDTH_CONVENTIONS}, got {self.width_convention!r}")

    @property
    def sigma_lambda(self) -> float:
        """Equal-variance standard deviation in wavelength (meters)."""
        if self.width_convention == "sigma":
            return self.width
        # fwhm -> sigma, per shape
        if self.shape is Shape.GAUSSIAN:
            return self.width / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        if self.shape is Shape.RECTANGULAR:
            return self.width / math.sqrt(12.0)
        w = self.width / (2.0 * math.log(2.0) ** (1.0 / self.order))
        return w * _supergaussian_sigma_factor(self.order)


def lambda_p_convert(value: float) -> float:
    """Convert wavelength to angular wavenumber or back: p = 2*pi/lambda.

    The map x -> 2*pi/x is its own inverse, so a single function serves both
    directions; the round trip is the identity to within rounding.
    """
    if value <= 0.0:
        raise ValueError(f"conversion requires a positive value, got {value!r}")
    return 2.0 * math.pi / value


def effective_sigma_p(profile: SpectralProfile) -> float:
    """First-order momentum-space width (2*pi/lambda0^2) * sigma_lambda, rad/m."""
    return 2.0 * math.pi * profile.sigma_lambda / profile.center_wavelength**2


def _simpson_weights(n_points: int, dx: float) -> np.ndarray:
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd point count >= 3, got {n_points}")
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= dx / 3.0
    w.setflags(write=False)
    return w


def _rectangular_half_width(sigma_p: float) -> float:
    """Half width sqrt(3)*sigma_p of the equal-variance rectangle: its support
    edge and the half span of its grid, so both grid endpoints sit on the edge."""
    return math.sqrt(3.0) * sigma_p


def _density_offsets(profile: SpectralProfile, x: np.ndarray) -> np.ndarray:
    """Unnormalized momentum density at offsets x from the center p0."""
    sigma_p = effective_sigma_p(profile)
    if profile.shape is Shape.GAUSSIAN:
        return np.exp(-0.5 * (x / sigma_p) ** 2)
    if profile.shape is Shape.SUPERGAUSSIAN:
        w = sigma_p / _supergaussian_sigma_factor(profile.order)
        return np.exp(-np.abs(x / w) ** profile.order)
    return np.where(np.abs(x) <= _rectangular_half_width(sigma_p), 1.0, 0.0)


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum lattice p0 + i*h, i = -m..m, with a density on it.
    Only (p0, h, density) is stored: the offsets i*h round relative to
    themselves, not to p0, and ``points`` and ``weights`` derive from them."""

    center: float        # p0, rad/m
    step: float          # h, rad/m
    density: np.ndarray  # finite and >= 0 at each of the 2m + 1 points

    def __post_init__(self) -> None:
        density = np.asarray(self.density, dtype=float)
        if density.ndim != 1 or density.size < 3 or density.size % 2 == 0:
            raise ValueError("grid needs an odd number of points >= 3")
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"grid step must be positive and finite, got {self.step!r}")
        if np.any(density < 0.0) or not np.all(np.isfinite(density)):
            raise ValueError("density values must be finite and >= 0")
        density.setflags(write=False)
        object.__setattr__(self, "density", density)

    @property
    def offsets(self) -> np.ndarray:
        """p - p0 = i*h for i = -m..m, symmetric about 0."""
        m = self.density.size // 2
        return self.step * np.arange(-m, m + 1)

    @cached_property
    def points(self) -> np.ndarray:
        """Absolute momenta p0 + i*h, rad/m (read-only)."""
        points = self.center + self.offsets
        points.setflags(write=False)
        return points

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite-Simpson weights, including h/3 (read-only)."""
        return _simpson_weights(self.density.size, self.step)

    def integral(self) -> float:
        """Simpson integral of the stored density."""
        return float(np.dot(self.weights, self.density))


def _grid_half_span(profile: SpectralProfile) -> float:
    """Half span of a profile's grid: +- ``_SPAN_WIDTHS`` effective widths, or
    exactly the support of a rectangular profile."""
    sigma_p = effective_sigma_p(profile)
    if profile.shape is Shape.RECTANGULAR:
        return _rectangular_half_width(sigma_p)
    return _SPAN_WIDTHS * sigma_p


def grid_point_count(
    profile: SpectralProfile, settings: Optional[MwiSettings] = None, *, min_points: int = MIN_GRID_POINTS
) -> int:
    """Point count of ``build_grid`` for these arguments: the smallest 2^m + 1
    that samples the postselection modulation (momentum period
    2*pi/(N*k + gamma)) at least ``_PERIOD_SAMPLES`` times over the grid's
    span, with a floor of ``min_points``.  For settings whose k is an array
    (a family) the largest |N*k + gamma| sets the count.

    Raises
    ------
    NumericalError
        If the count would exceed ``MAX_GRID_POINTS``.
    """
    n_intervals = max(min_points - 1, 4)
    length = 0.0 if settings is None else float(np.abs(settings.phase_length).max())  # a family's largest |L|
    if length != 0.0:
        max_step = 2.0 * math.pi / (_PERIOD_SAMPLES * length)
        needed = 2.0 * _grid_half_span(profile) / max_step if max_step > 0.0 else math.inf  # L overflows to inf
        if needed > MAX_GRID_POINTS - 1:
            raise NumericalError(f"grid would need {needed:.4g} intervals (> {MAX_GRID_POINTS - 1}); "
                                 "modulation period too short for this span")
        while n_intervals < needed:
            n_intervals *= 2
    # power-of-two interval count so stride-2 subsampling stays a Simpson grid
    n_intervals = 2 ** math.ceil(math.log2(n_intervals))
    if n_intervals + 1 > MAX_GRID_POINTS:
        raise NumericalError(f"grid would need {n_intervals + 1} points (> {MAX_GRID_POINTS}); "
                             "modulation period too short for this span")
    return n_intervals + 1


def build_grid(
    profile: SpectralProfile, settings: Optional[MwiSettings] = None, *, min_points: int = MIN_GRID_POINTS
) -> MomentumGrid:
    """Build a uniform momentum grid around p0 = 2*pi/lambda0.

    The grid spans +- ``_SPAN_WIDTHS`` (8) effective widths, except for a
    rectangular profile, whose grid spans exactly its support +- sqrt(3)*sigma_p
    (Simpson's rule is not applied across the band edge).  Its point count
    is ``grid_point_count`` of the same arguments, so the grid depends on
    ``settings`` only through that count.  The density is normalized to unit
    integral under the grid's own Simpson rule.

    Raises
    ------
    NumericalError
        If the point count would exceed ``MAX_GRID_POINTS``.
    """
    n_points = grid_point_count(profile, settings, min_points=min_points)
    m = n_points // 2
    step = _grid_half_span(profile) / m  # m is a power of two: m*h is the half span exactly
    density = _density_offsets(profile, step * np.arange(-m, m + 1))
    total = float(np.dot(_simpson_weights(n_points, step), density))
    require(total > 0.0 and math.isfinite(total), "density integral is not positive and finite")
    return MomentumGrid(center=lambda_p_convert(profile.center_wavelength), step=step, density=density / total)
