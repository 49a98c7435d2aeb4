import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wva_lab.constants import SPEED_OF_LIGHT
from wva_lab.metrology import (
    TiltGeometry,
    precision,
    snr_db,
    tau_from_tilt,
)


def central_slope(signal, k0=SPEED_OF_LIGHT * 0.05e-18, h=SPEED_OF_LIGHT * 0.02e-18):
    """Central-difference slope of ``signal`` at ``k0``."""
    return (signal(k0 + h) - signal(k0 - h)) / (2.0 * h)


# frozen from 40-digit evaluation of the tilt formula (n = 1.54, 1550 nm)
TAU_10_DEG = 1.6592649084640633e-17
TAU_30_DEG = 1.4806916824117781e-16


class TestTiltMap:
    def test_zero_tilt(self):
        assert tau_from_tilt(TiltGeometry(0.0)) == 0.0

    def test_ten_degrees(self):
        geom = TiltGeometry(math.radians(10.0))
        assert tau_from_tilt(geom) == pytest.approx(TAU_10_DEG, rel=1e-12)

    def test_thirty_degrees(self):
        geom = TiltGeometry(math.radians(30.0))
        assert tau_from_tilt(geom) == pytest.approx(TAU_30_DEG, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=math.pi / 2 - 1e-6))
    def test_even_in_tilt(self, theta):
        assert tau_from_tilt(TiltGeometry(theta)) == tau_from_tilt(TiltGeometry(-theta))

    def test_strictly_increasing(self):
        thetas = np.linspace(1e-4, math.pi / 2 - 1e-4, 1024)
        taus = [tau_from_tilt(TiltGeometry(t)) for t in thetas]
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_array_tilt_is_the_scalar_map(self):
        thetas = np.linspace(-math.pi / 2 + 1e-4, math.pi / 2 - 1e-4, 1023)
        taus = tau_from_tilt(TiltGeometry(thetas))
        expected = [tau_from_tilt(TiltGeometry(float(t))) for t in thetas]
        np.testing.assert_allclose(taus, expected, rtol=4 * np.finfo(float).eps, atol=0.0)
        with pytest.raises(ValueError):
            TiltGeometry(np.array([0.1, math.pi / 2]))

    def test_small_tilt_quadratic(self):
        for theta in (1e-5, 1e-4, 1e-3):
            geom = TiltGeometry(theta)
            quadratic = geom.wavelength * theta**2 / (4.0 * SPEED_OF_LIGHT * geom.refractive_index**2)
            assert tau_from_tilt(geom) == pytest.approx(quadratic, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            TiltGeometry(math.pi / 2)
        with pytest.raises(ValueError):
            TiltGeometry(0.1, refractive_index=1.0)


class TestPrecision:
    def test_identity_case(self):
        delta_k, delta_tau = precision(1.0, 1.0)
        assert delta_k == 1.0
        assert delta_tau == pytest.approx(1.0 / SPEED_OF_LIGHT, rel=1e-15)

    def test_consistency_relation(self):
        delta_k, delta_tau = precision(0.04e-12, 1.43)
        assert delta_k == pytest.approx(SPEED_OF_LIGHT * delta_tau, rel=1e-12)

    def test_quoted_momentum_pointer_point(self):
        # 0.04 pm resolution against a 0.43 nm/as wavelength rate:
        # delta_tau = 4e-5 nm / 0.43 nm/as
        rate = 0.43e-9 / (SPEED_OF_LIGHT * 1e-18)  # dimensionless d(shift)/dk
        _, delta_tau = precision(0.04e-12, rate)
        assert delta_tau * 1e18 == pytest.approx(4e-5 / 0.43, rel=1e-12)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="zero shift rate"):
            precision(1e-12, 0.0)


class TestSnr:
    def test_equal_levels(self):
        assert snr_db(1.0, 1.0) == 0.0

    def test_decade(self):
        assert snr_db(10.0, 1.0) == pytest.approx(10.0, rel=1e-15)

    def test_quoted_operating_point(self):
        noise = 0.5e-3
        assert snr_db(noise * 10**1.75, noise) == pytest.approx(17.5, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            snr_db(0.0, 1.0)
        with pytest.raises(ValueError):
            snr_db(1.0, -1.0)


class TestRateOnPointerSignals:
    def test_wavelength_and_momentum_paths_agree(self):
        # delta_tau from the wavelength-space rate must match the
        # momentum-space route delta_m * (2 pi / lambda0^2) / (c * dDp/dk)
        from wva_lab.meter import pointer_shift_p_gaussian
        from wva_lab.polarization import MwiSettings
        from wva_lab.scenarios import LAMBDA0_M as lambda0, P0_RAD_PER_M as p0

        sigma_p = 15691.617832706564
        factor = lambda0**2 / (2.0 * math.pi)

        def delta_p(k):
            return pointer_shift_p_gaussian(sigma_p, p0, MwiSettings(1, k, 0.0, 0.002))

        k0, h = SPEED_OF_LIGHT * 0.05e-18, SPEED_OF_LIGHT * 0.02e-18
        rate_lambda = central_slope(lambda k: -factor * delta_p(k), k0, h)
        rate_p = central_slope(delta_p, k0, h)
        delta_m = 0.04e-12
        _, via_lambda = precision(delta_m, rate_lambda)
        via_momentum = delta_m / factor / abs(rate_p) / SPEED_OF_LIGHT
        assert via_lambda == pytest.approx(via_momentum, rel=1e-9)

    def test_pass_count_triples_trace_slope(self):
        # local slope of the biased wavelength-shift trace scales with the
        # pass count at small k (within a percent)
        from wva_lab.meter import collapse_moments_on_grid
        from wva_lab.polarization import MwiSettings
        from wva_lab.scenarios import LAMBDA0_M as lambda0, P0_RAD_PER_M as p0
        from wva_lab.spectra import SpectralProfile, build_grid

        gamma = 1.9 * math.pi / p0
        profile = SpectralProfile("supergaussian", lambda0, 6e-9, order=6)
        grid = build_grid(profile, MwiSettings(3, SPEED_OF_LIGHT * 0.1e-18, gamma, 0.002))

        def delta_lambda_fn(n):
            def signal(k):
                _, dp = collapse_moments_on_grid(grid, np.array([n * k + gamma]), 0.002)
                return -(lambda0**2 / (2.0 * math.pi)) * float(dp[0])

            return signal

        rates = {n: central_slope(delta_lambda_fn(n)) for n in (1, 3)}
        assert rates[3] / rates[1] == pytest.approx(3.0, rel=0.01)
