"""Wave-plate tilt geometry and derived metrology.

Maps a wave-plate tilt to the time difference it introduces, and turns
instrument resolutions and pointer shift rates dS/dk into precisions
delta_k = delta_m / |dS/dk| and delta_tau = delta_k / c.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import SPEED_OF_LIGHT
from .errors import holds, require
from .paper import PAPER
from .polarization import _xp


@dataclass(frozen=True)
class TiltGeometry:
    """Tilted wave plate: tilt angle (a float or an array of them), refractive index, working wavelength."""

    theta: float                    # rad
    refractive_index: float = 1.54
    wavelength: float = PAPER["lambda0_m"].value

    def __post_init__(self) -> None:
        if not holds(abs(self.theta) < math.pi / 2):
            raise ValueError(f"|theta| must be < pi/2, got {self.theta!r}")
        if self.refractive_index <= 1.0:
            raise ValueError(f"refractive index must be > 1, got {self.refractive_index!r}")
        if self.wavelength <= 0.0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength!r}")


def tau_from_tilt(geom: TiltGeometry) -> float:
    """Time difference from a wave-plate tilt, seconds.

    tau = (lambda / 2c) * (1/sqrt(1 - sin^2(theta)/n^2) - 1); even in theta,
    zero at zero tilt, strictly increasing on (0, pi/2).  An array tilt gives an array.
    """
    xp = _xp(geom.theta)
    s2 = xp.sin(geom.theta) ** 2 / geom.refractive_index**2
    return geom.wavelength / (2.0 * SPEED_OF_LIGHT) * (1.0 / xp.sqrt(1.0 - s2) - 1.0)


def precision(instrument_resolution: float, rate: float) -> tuple[float, float]:
    """(delta_k, delta_tau): delta_k = resolution / |rate| in meters and
    delta_tau = delta_k / c in seconds.  Raises NumericalError where
    delta_tau is not a normal float, so that delta_k = c delta_tau no longer
    holds to rounding."""
    if instrument_resolution <= 0.0:
        raise ValueError(f"instrument resolution must be > 0, got {instrument_resolution!r}")
    if rate == 0.0:
        raise ValueError("zero shift rate: precision undefined")
    delta_k = instrument_resolution / abs(rate)
    delta_tau = delta_k / SPEED_OF_LIGHT
    require(delta_tau >= sys.float_info.min, "precision delta_tau = {!r} s is below the normal float range", delta_tau)
    return delta_k, delta_tau


def snr_db(signal, noise: float):
    """Signal-to-noise ratio 10 log10(signal/noise), decibels, of a float or an array signal."""
    if not holds(signal > 0.0) or noise <= 0.0:
        raise ValueError(f"signal and noise must be > 0, got {signal!r}, {noise!r}")
    return 10.0 * _xp(signal).log10(signal / noise)
