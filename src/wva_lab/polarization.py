"""Two-level polarization algebra: the interaction chain, the pre- and
postselected states, and the weak value.

The system lives in the {|H>, |V>} basis, and a state is its pair of
amplitudes (H, V).  Preselection is the balanced superposition;
postselection projects onto a state parameterized by an angle rho that
controls how close to orthogonal the projection is (squared overlap with
the preselection equals sin^2(rho)).  The weak value of the N-pass
coupling observable diag(+1, -1) is purely imaginary, i*N*cot(rho), and
grows linearly with the number of interactions; ``im_weak_value`` is the
one statement of N*cot(rho) in the package, one numpy expression for a float
or an array angle, so a float and the same value in an array give the same bits.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import holds
from .paper import PAPER


@dataclass(frozen=True)
class MwiSettings:
    """Interaction-chain settings; ``k`` or ``rho`` may be an array, a family of settings (a trace) at once.

    Parameters
    ----------
    n_interactions : int
        Number of weak-coupling passes (>= 1).
    k : float or array
        Single-pass interaction strength in meters (k = c*tau); may be signed.
    gamma : float
        Residual interferometric path imbalance in meters; contributes a
        phase gamma*p and biases the operating point.  Nonnegative.
    rho : float or array
        Postselection angle in radians, inside (0, pi/2); the paper's operating point by default.
    """

    n_interactions: int
    k: float
    gamma: float = 0.0
    rho: float = PAPER["rho_rad"].value

    def __post_init__(self) -> None:
        if int(self.n_interactions) != self.n_interactions or self.n_interactions < 1:
            raise ValueError(f"n_interactions must be an integer >= 1, got {self.n_interactions!r}")
        if not holds((0.0 < self.rho) & (self.rho < math.pi / 2)):
            raise ValueError(f"rho must lie in (0, pi/2), got {self.rho!r}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma!r}")
        if not holds(np.isfinite(self.k)):
            raise ValueError(f"k must be finite, got {self.k!r}")

    @property
    def phase_length(self) -> float:
        """Total phase length N*k + gamma in meters (multiplies p in the phase)."""
        return self.n_interactions * self.k + self.gamma


def preselection_state() -> tuple[complex, complex]:
    """Balanced input state (|H> + |V>)/sqrt(2), as its (H, V) amplitudes."""
    r = 1.0 / math.sqrt(2.0)
    return complex(r), complex(r)


def postselection_state(rho: float) -> tuple[complex, complex]:
    """Projection state (e^{-i rho}|H> - e^{+i rho}|V>)/sqrt(2), as its (H, V)
    amplitudes.

    rho = 0 is the exactly orthogonal limit and is permitted here; the weak
    value rejects it separately.
    """
    if not (0.0 <= rho < math.pi / 2):
        raise ValueError(f"rho must lie in [0, pi/2), got {rho!r}")
    r = 1.0 / math.sqrt(2.0)
    return r * cmath.exp(-1j * rho), -r * cmath.exp(1j * rho)


def im_weak_value(n_interactions: int, rho):
    """Im of the weak value i*N*cot(rho) of the N-pass coupling observable,
    N / tan(rho), of a float or an array angle.

    Raises
    ------
    ValueError
        If N < 1, or rho (a float, or any entry of an array) is outside
        (0, pi/2): the postselection is singular at rho = 0.
    """
    if n_interactions < 1:
        raise ValueError(f"n_interactions must be >= 1, got {n_interactions!r}")
    if not holds((0.0 < rho) & (rho < math.pi / 2)):
        raise ValueError(f"singular postselection: rho must lie in (0, pi/2), got {rho!r}")
    return n_interactions / np.tan(rho)
