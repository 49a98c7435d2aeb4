"""The direct path's collapsed density, the tests' reference for the kernel,
the oracle and s2's table."""
from wva_lab import meter


def direct_collapse(grid, phase_length, rho):
    """D(p) = Omega(p) * sin^2((p*L + 2 rho)/2) on the grid; the sin^2 form is
    the exact rewrite of (1 - cos)/2 and avoids cancellation at small arguments."""
    s = meter._half_phase_sine(grid.points, phase_length, rho)
    return grid.density * s * s
