import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wva_lab.constants import SPEED_OF_LIGHT
from wva_lab.polarization import MwiSettings
from wva_lab.scenarios import make_config
from wva_lab.spectra import (
    MomentumGrid,
    Shape,
    SpectralProfile,
    build_grid,
    effective_sigma_p,
    grid_point_count,
    lambda_p_convert,
)

from direct_path import direct_collapse

LAMBDA0 = 1550e-9
P0 = 4053667.9401158622            # 2*pi / 1550 nm, frozen
SIGMA_P_6NM = 15691.617832706564   # 2*pi * 6 nm / lambda0^2, frozen
SIGMA_P_05NM = 1307.6348193922136


def gaussian(width=6e-9, convention="sigma"):
    return SpectralProfile("gaussian", LAMBDA0, width, width_convention=convention)


def mean_and_variance(grid):
    """Density-weighted mean momentum and variance, Simpson sums on the offsets."""
    wv = grid.weights * grid.density
    total = np.sum(wv)
    m1 = float(np.dot(wv, grid.offsets) / total)
    return grid.center + m1, float(np.dot(wv, (grid.offsets - m1) ** 2) / total)


def half_resolution(grid):
    """The stride-2 subgrid (a Simpson grid while the interval count is even)."""
    return MomentumGrid(center=grid.center, step=2.0 * grid.step, density=grid.density[::2])


class TestConversion:
    def test_center_wavelength(self):
        assert lambda_p_convert(LAMBDA0) == pytest.approx(P0, rel=1e-12)

    def test_unit_case(self):
        assert lambda_p_convert(2.0 * math.pi) == pytest.approx(1.0, rel=1e-15)

    @given(st.floats(min_value=1e-9, max_value=1e-3))
    def test_round_trip_identity(self, lam):
        assert lambda_p_convert(lambda_p_convert(lam)) == pytest.approx(lam, rel=1e-12)

    def test_nonpositive_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                lambda_p_convert(bad)


class TestEffectiveSigma:
    def test_six_nanometers(self):
        assert effective_sigma_p(gaussian(6e-9)) == pytest.approx(SIGMA_P_6NM, rel=1e-12)

    def test_half_nanometer(self):
        assert effective_sigma_p(gaussian(0.5e-9)) == pytest.approx(SIGMA_P_05NM, rel=1e-12)

    def test_fwhm_convention_gaussian(self):
        fwhm = 2.0 * math.sqrt(2.0 * math.log(2.0))  # sigma -> fwhm factor
        direct = effective_sigma_p(gaussian(6e-9))
        via_fwhm = effective_sigma_p(gaussian(6e-9 * fwhm, convention="fwhm"))
        assert via_fwhm == pytest.approx(direct, rel=1e-12)

    def test_fwhm_convention_rectangular(self):
        profile = SpectralProfile("rectangular", LAMBDA0, 3e-9, width_convention="fwhm")
        assert profile.sigma_lambda == pytest.approx(3e-9 / math.sqrt(12.0), rel=1e-12)


class TestProfileValidation:
    def test_width_required(self):
        for shape in Shape:
            with pytest.raises(ValueError, match="width must be > 0"):
                SpectralProfile(shape, LAMBDA0, 0.0)

    def test_monochromatic_is_not_a_shape(self):
        # a coherent source is sigma_p = 0 in the closed forms, not a profile
        with pytest.raises(ValueError, match=r"\['gaussian', 'supergaussian', 'rectangular'\]"):
            SpectralProfile("monochromatic", LAMBDA0, 0.0)

    def test_supergaussian_order_must_be_even(self):
        with pytest.raises(ValueError):
            SpectralProfile("supergaussian", LAMBDA0, 6e-9, order=5)
        with pytest.raises(ValueError):
            SpectralProfile("supergaussian", LAMBDA0, 6e-9, order=0)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            SpectralProfile("gaussian", LAMBDA0, 6e-9, width_convention="hwhm")


class TestBuildGrid:
    def test_normalized_and_centered(self):
        grid = build_grid(gaussian())
        assert grid.points.size >= 2**12
        assert grid.integral() == pytest.approx(1.0, abs=1e-12)
        assert mean_and_variance(grid)[0] == pytest.approx(P0, rel=1e-9)

    def test_gaussian_moments(self):
        mean, variance = mean_and_variance(build_grid(gaussian()))
        assert mean == pytest.approx(P0, rel=1e-3 * SIGMA_P_6NM / P0)
        assert variance == pytest.approx(SIGMA_P_6NM**2, rel=1e-3)

    def test_supergaussian_equal_variance(self):
        profile = SpectralProfile("supergaussian", LAMBDA0, 6e-9, order=6)
        grid = build_grid(profile)
        assert mean_and_variance(grid)[1] == pytest.approx(SIGMA_P_6NM**2, rel=1e-3)

    def test_doubling_resolution_converged(self):
        base = build_grid(gaussian())
        fine = build_grid(gaussian(), min_points=2 * (base.points.size - 1) + 1)
        assert fine.integral() == pytest.approx(base.integral(), rel=1e-9)
        assert mean_and_variance(fine)[0] == pytest.approx(mean_and_variance(base)[0], rel=1e-9)

    def test_supergaussian_order_two_matches_gaussian(self):
        sg = build_grid(SpectralProfile("supergaussian", LAMBDA0, 6e-9, order=2))
        ga = build_grid(gaussian())
        peak = ga.density.max()
        assert np.max(np.abs(sg.density - ga.density)) < 1e-6 * peak

    def test_rectangular_density(self):
        profile = SpectralProfile("rectangular", LAMBDA0, 3e-9)
        grid = build_grid(profile)
        half_width = 0.5 * math.sqrt(12.0) * effective_sigma_p(profile)
        inside = np.abs(grid.points - grid.center) <= half_width * (1 - 1e-12)
        outside = np.abs(grid.points - grid.center) > half_width * (1 + 1e-12)
        values = grid.density[inside]
        assert np.max(np.abs(values - values[0])) <= 1e-12 * values[0]
        assert np.all(grid.density[outside] == 0.0)

    def test_rectangular_grid_spans_support(self):
        profile = SpectralProfile("rectangular", LAMBDA0, 3e-9)
        grid = build_grid(profile)
        half_width = math.sqrt(3.0) * effective_sigma_p(profile)
        assert grid.offsets[-1] == half_width and grid.offsets[0] == -half_width
        assert np.all(grid.density == grid.density[grid.points.size // 2])

    def test_modulation_period_resolved(self):
        settings = MwiSettings(1, 0.0, gamma=1.9 * math.pi / P0, rho=0.002)
        grid = build_grid(gaussian(), settings)
        assert abs(settings.phase_length) * grid.step <= 2.0 * math.pi / 32.0

    # 32 samples per period of N k over the 8-sigma span: N k = 7.5e-3 m and
    # 1.5e-2 m need 2x and 4x the 8,193-point floor
    @pytest.mark.parametrize(
        "n, k, points", [(1, 0.0, 8193), (1, 2.5e-3, 8193), (3, 2.5e-3, 16385), (3, 5e-3, 32769)]
    )
    def test_point_count_is_build_grid_size(self, n, k, points):
        settings = MwiSettings(n, k, 0.0, 0.002)
        assert grid_point_count(gaussian(), settings) == points
        for profile in (gaussian(), SpectralProfile("rectangular", LAMBDA0, 6e-9)):
            assert grid_point_count(profile, settings) == build_grid(profile, settings).points.size

    def test_span_covers_eight_widths(self):
        grid = build_grid(gaussian())
        assert grid.points[0] <= P0 - 8.0 * SIGMA_P_6NM * (1 - 1e-12)
        assert grid.points[-1] >= P0 + 8.0 * SIGMA_P_6NM * (1 - 1e-12)

    def test_half_resolution_consistent(self):
        grid = build_grid(gaussian())
        half = half_resolution(grid)
        assert half.points.size == (grid.points.size + 1) // 2
        assert half.integral() == pytest.approx(grid.integral(), rel=1e-9)


@pytest.mark.parametrize("shape", list(Shape), ids=[shape.value for shape in Shape])
def test_every_shape_has_a_grid(shape):
    profile = SpectralProfile(shape, LAMBDA0, 6e-9)
    density = build_grid(profile).density
    assert np.all(np.isfinite(density)) and density.max() > 0.0
    assert make_config("fig3a", {"shape": shape.value}).values["shape"] == shape.value


class TestMomentumGridValidation:
    def test_rejects_bad_inputs(self):
        bad = [
            (1.0, np.ones(4)),                     # even point count
            (1.0, np.ones(1)),                     # too short
            (1.0, np.ones((3, 3))),                # not one lattice
            (1.0, np.array([1.0, -1.0, 1.0])),     # negative density
            (1.0, np.array([1.0, np.nan, 1.0])),   # non-finite density
            (1.0, np.array([1.0, np.inf, 1.0])),
            (0.0, np.ones(3)),                     # step not positive
            (-1.0, np.ones(3)),
            (np.inf, np.ones(3)),                  # step not finite
            (np.nan, np.ones(3)),
        ]
        for step, density in bad:
            with pytest.raises(ValueError):
                MomentumGrid(center=P0, step=step, density=density)

    def test_arrays_read_only(self):
        grid = build_grid(gaussian())
        for values in (grid.density, grid.points, grid.weights):
            with pytest.raises(ValueError):
                values[0] = 1.0
        assert grid.points is grid.points  # cached, not rebuilt per access


class TestLattice:
    @pytest.mark.parametrize("width_nm", [0.05, 6.0])
    @pytest.mark.parametrize("shape", ["gaussian", "supergaussian", "rectangular"])
    def test_offsets_are_exact_lattice(self, shape, width_nm):
        grid = build_grid(SpectralProfile(shape, LAMBDA0, width_nm * 1e-9), min_points=129)
        m = grid.density.size // 2
        assert np.array_equal(grid.offsets, grid.step * np.arange(-m, m + 1))
        assert np.array_equal(grid.offsets, -grid.offsets[::-1])
        assert np.array_equal(half_resolution(grid).offsets, grid.offsets[::2])
        # so the kernel's stride-2 level is the lattice of step 2h, and a
        # strided read of a collapse (as s2's table takes it) is the collapse
        # of the strided lattice
        for phase_length, rho in ((SPEED_OF_LIGHT * 330e-18 + 1.9 * math.pi / P0, 0.002), (3e-10, 0.1)):
            half = direct_collapse(half_resolution(grid), phase_length, rho)
            assert np.array_equal(half, direct_collapse(grid, phase_length, rho)[::2])
        assert np.array_equal(grid.points, grid.center + grid.offsets)
        assert grid.points.size == grid.weights.size == grid.density.size == 2 * m + 1
