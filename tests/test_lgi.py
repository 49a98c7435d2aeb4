import math

import pytest
from hypothesis import given, strategies as st

from wva_lab import lgi
from wva_lab.lgi import (
    k31,
    negativity_boundary_scan,
    quantum_region_boundary,
    weak_value_from_shift,
)
from wva_lab.meter import intensity_shift_approx, postselection_probability_gaussian
from wva_lab.polarization import MwiSettings, im_weak_value
from wva_lab.scenarios import P0_RAD_PER_M as P0

# frozen from 40-digit evaluation
K31_3_00124 = -0.074084869499628511
K31_1_0002 = -0.0039919893440085276
IM_3_00124 = 241.92308374385761
ARCTAN_3 = 1.2490457723982544
RHO_STAR = 0.0020297671718836917  # back-solved from 3 cot(rho) = 1478


def _exact_probability(n, rho, k):
    """The exact Gaussian postselection probability of a monochromatic probe."""
    return postselection_probability_gaussian(0.0, P0, MwiSettings(n, k, 0.0, rho))


class TestK31:
    def test_zero_crossing_at_quarter_pi(self):
        assert abs(k31(1, math.pi / 4)) < 1e-15

    def test_triple_pass_operating_point(self):
        assert k31(3, 0.0124) == pytest.approx(K31_3_00124, rel=1e-12)
        assert im_weak_value(3, 0.0124) == pytest.approx(IM_3_00124, rel=1e-12)

    def test_single_pass_small_angle(self):
        assert k31(1, 0.002) == pytest.approx(K31_1_0002, rel=1e-12)

    def test_exact_mode_matches_approx_at_tiny_coupling(self):
        # N p0 k cot(rho) <= 1e-6 makes the probability correction invisible
        approx = k31(3, 0.002)
        exact = k31(3, 0.002, _exact_probability(3, 0.002, 1e-17))
        assert exact == pytest.approx(approx, rel=1e-6)

    def test_exact_mode_deviates_linearly_in_coupling(self):
        k = 1e-12
        approx = k31(3, 0.002)
        exact = k31(3, 0.002, _exact_probability(3, 0.002, k))
        expected_rel = 3 * P0 * k / math.tan(0.002)  # leading probability correction
        assert (exact - approx) / approx == pytest.approx(expected_rel, rel=0.01)

    @given(st.floats(min_value=1e-3, max_value=1.5), st.integers(min_value=1, max_value=3))
    def test_negative_iff_anomalous(self, rho, n):
        assert (k31(n, rho) < 0.0) == (im_weak_value(n, rho) > 1.0)

    def test_invariants_reconstruct(self):
        im = im_weak_value(2, 0.01)
        assert im == pytest.approx(2.0 / math.tan(0.01), rel=1e-12)
        assert k31(2, 0.01) == pytest.approx(2.0 * math.sin(0.01) ** 2 * (1.0 - im), rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            k31(1, 0.0)
        with pytest.raises(ValueError):
            k31(1, math.pi / 2)


class TestNegativityRegion:
    def test_boundaries(self):
        assert quantum_region_boundary(1) == pytest.approx(math.pi / 4, rel=1e-15)
        assert quantum_region_boundary(3) == pytest.approx(ARCTAN_3, rel=1e-15)

    def test_monotone_in_pass_count(self):
        b = [quantum_region_boundary(n) for n in (1, 2, 3)]
        assert b[2] > b[1] > b[0]

    def test_scan_matches_arctan_within_step(self):
        step = 1e-3
        for n in (1, 2, 3):
            scanned = negativity_boundary_scan(n, 1.5, step)
            assert abs(scanned - quantum_region_boundary(n)) <= step

    @staticmethod
    def _loop_scan(n, rho_max, step):
        """The boundary scan as one k31 call per scanned angle."""
        boundary = 0.0
        for i in range(1, int(rho_max / step) + 1):
            rho = i * step
            if rho >= math.pi / 2:
                break
            if k31(n, rho) < 0.0:
                boundary = rho
        return boundary

    @pytest.mark.parametrize("step", [1e-3, 7e-4, 1.3e-2, 0.1])
    @pytest.mark.parametrize("rho_max", [0.5, 1.5, 1.5707963267948966, 3.0])
    def test_scan_matches_loop(self, step, rho_max):
        for n in range(1, 9):
            assert negativity_boundary_scan(n, rho_max, step) == self._loop_scan(n, rho_max, step)

    def test_scan_blocks_match_one_block(self, monkeypatch):
        one_block = [negativity_boundary_scan(n, 1.5, 7e-4) for n in (1, 3, 8)]
        monkeypatch.setattr(lgi, "_SCAN_BLOCK", 97)
        assert [negativity_boundary_scan(n, 1.5, 7e-4) for n in (1, 3, 8)] == one_block
        assert one_block == [self._loop_scan(n, 1.5, 7e-4) for n in (1, 3, 8)]

    def test_region_grows_with_passes(self):
        assert negativity_boundary_scan(3) > negativity_boundary_scan(1)


class TestWeakValueFromShift:
    def test_zero_shift(self):
        assert weak_value_from_shift(0.0, 3e-12, P0, 0.0, 1) == 0.0

    @given(
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=0.002, max_value=0.0124),
        st.sampled_from([1e-13, 1e-12, 1e-11]),
    )
    def test_round_trip_inverts_forward_model(self, n, rho, k):
        settings = MwiSettings(n, k, 0.0, rho)
        forward = intensity_shift_approx(0.0, P0, settings)
        recovered = weak_value_from_shift(forward, k, P0, 0.0, n)
        assert recovered == pytest.approx(n / math.tan(rho), rel=1e-9)

    def test_round_trip_with_spectral_damping(self):
        settings = MwiSettings(3, 1e-11, 0.0, 0.005)
        forward = intensity_shift_approx(1.5e4, P0, settings)
        recovered = weak_value_from_shift(forward, 1e-11, P0, 1.5e4, 3)
        assert recovered == pytest.approx(3.0 / math.tan(0.005), rel=1e-9)

    def test_anomalous_value_at_back_solved_angle(self):
        assert 3.0 / math.tan(RHO_STAR) == pytest.approx(1478.0, rel=1e-12)
        settings = MwiSettings(3, 1e-12, 0.0, RHO_STAR)
        forward = intensity_shift_approx(0.0, P0, settings)
        recovered = weak_value_from_shift(forward, 1e-12, P0, 0.0, 3)
        assert recovered == pytest.approx(1478.0, rel=1e-3)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            weak_value_from_shift(0.01, 0.0, P0, 0.0, 1)
