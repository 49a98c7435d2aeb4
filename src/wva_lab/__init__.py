"""Dual-pointer weak-value-amplification lab.

Simulates the postselected collapse of a spectral meter state under N weak
polarization-momentum couplings and derives everything measured from it:
momentum- and intensity-pointer shifts, shift rates and precisions,
signal-to-noise, and Leggett-Garg K31 values.  The ``wva-lab`` CLI drives
named scenario sweeps that emit deterministic CSV tables.
"""
from ._version import __version__
from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, NumericalError
from .lgi import (
    k31,
    negativity_boundary_scan,
    quantum_region_boundary,
    weak_value_from_shift,
)
from .meter import (
    CollapseResult,
    collapse_moments_on_grid,
    collapsed_density,
    intensity_after_postselection,
    intensity_shift_approx,
    oracle_joint_state,
    pointer_shift_p_approx,
    pointer_shift_p_gaussian,
    postselection_probability_gaussian,
)
from .metrology import (
    TiltGeometry,
    k_from_tau,
    precision,
    snr_db,
    tau_from_tilt,
)
from .polarization import (
    MwiSettings,
    im_weak_value,
    postselection_state,
    preselection_state,
)
from .spectra import (
    MomentumGrid,
    Shape,
    SpectralProfile,
    build_grid,
    effective_sigma_p,
    lambda_p_convert,
)

# Every numeric path is plain numpy; the name stays for run records that log it.
kernel_backend = "numpy"

__all__ = [
    "__version__",
    "kernel_backend",
    "SPEED_OF_LIGHT",
    "ConfigError",
    "NumericalError",
    "k31",
    "negativity_boundary_scan",
    "quantum_region_boundary",
    "weak_value_from_shift",
    "CollapseResult",
    "collapse_moments_on_grid",
    "collapsed_density",
    "intensity_after_postselection",
    "intensity_shift_approx",
    "oracle_joint_state",
    "pointer_shift_p_approx",
    "pointer_shift_p_gaussian",
    "postselection_probability_gaussian",
    "TiltGeometry",
    "k_from_tau",
    "precision",
    "snr_db",
    "tau_from_tilt",
    "MwiSettings",
    "im_weak_value",
    "postselection_state",
    "preselection_state",
    "MomentumGrid",
    "Shape",
    "SpectralProfile",
    "build_grid",
    "effective_sigma_p",
    "lambda_p_convert",
]
