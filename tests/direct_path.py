"""The direct path's collapsed density, the tests' reference for the kernel,
the oracle and s2's table; and the oracle's collapsed density in its literal
complex form."""
import numpy as np

from wva_lab import meter


def direct_collapse(grid, phase_length, rho):
    """D(p) = Omega(p) * sin^2((p*L + 2 rho)/2) on the grid; the sin^2 form is
    the exact rewrite of (1 - cos)/2 and avoids cancellation at small arguments."""
    s = np.sin(meter._half_phase(grid.points, phase_length, rho))
    return grid.density * s * s


def literal_oracle_density(factor, root_density):
    """|z|^2 as the real part of z * conj(z), z = factor * sqrt(Omega): the
    complex form that ``meter._oracle_project`` squares part by part."""
    z = factor * root_density
    return (z * np.conj(z)).real
