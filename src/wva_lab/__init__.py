"""Dual-pointer weak-value-amplification lab.

Simulates the postselected collapse of a spectral meter state under N weak
polarization-momentum couplings and derives everything measured from it:
momentum- and intensity-pointer shifts, shift rates and precisions,
signal-to-noise, and Leggett-Garg K31 values.  The ``wva-lab`` CLI drives
named scenario sweeps that emit deterministic CSV tables.  The package root
holds the version, the two error types and the few names the benchmark
harness imports; everything else is read from its submodule.
"""
from ._version import __version__
from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, NumericalError
from .meter import collapsed_density
from .polarization import MwiSettings
from .spectra import SpectralProfile

# Every numeric path is plain numpy; the name stays for run records that log it.
kernel_backend = "numpy"

__all__ = [
    "__version__",
    "kernel_backend",
    "SPEED_OF_LIGHT",
    "ConfigError",
    "NumericalError",
    "MwiSettings",
    "SpectralProfile",
    "collapsed_density",
]
