import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wva_lab.lgi import k31
from wva_lab.polarization import (
    MwiSettings,
    im_weak_value,
    postselection_state,
    preselection_state,
)

# high-precision reference values (frozen from 40-digit evaluation)
COT_0002 = 499.99933333315556
COT_00124_X3 = 241.92308374385761
SIN2_0002 = 3.9999946666695111e-6


def _probability(bra, ket):
    """|<bra|ket>|^2 of two (H, V) amplitude pairs."""
    return abs(np.vdot(bra, ket)) ** 2


class TestStates:
    def test_preselection_is_balanced(self):
        state = preselection_state()
        r = 1.0 / math.sqrt(2.0)
        assert state[0] == pytest.approx(r, abs=0) and state[1] == pytest.approx(r, abs=0)
        assert _probability(state, state) == pytest.approx(1.0, abs=1e-15)

    def test_postselection_zero_angle_is_orthogonal(self):
        post = postselection_state(0.0)
        r = 1.0 / math.sqrt(2.0)
        assert post[0] == pytest.approx(r, abs=1e-15)
        assert post[1] == pytest.approx(-r, abs=1e-15)
        assert abs(np.vdot(post, preselection_state())) == pytest.approx(0.0, abs=1e-15)

    def test_overlap_small_angle(self):
        prob = _probability(postselection_state(0.002), preselection_state())
        assert prob == pytest.approx(SIN2_0002, rel=1e-12)

    def test_overlap_quarter_pi(self):
        prob = _probability(postselection_state(math.pi / 4), preselection_state())
        assert prob == pytest.approx(0.5, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=math.pi / 2 - 1e-6))
    def test_overlap_equals_sin_squared(self, rho):
        prob = _probability(postselection_state(rho), preselection_state())
        assert prob == pytest.approx(math.sin(rho) ** 2, rel=1e-12, abs=1e-15)

    def test_postselection_angle_range(self):
        with pytest.raises(ValueError):
            postselection_state(-0.1)
        with pytest.raises(ValueError):
            postselection_state(math.pi / 2)


class TestWeakValue:
    def test_unit_cotangent(self):
        assert im_weak_value(1, math.pi / 4) == pytest.approx(1.0, rel=1e-12)

    def test_small_angle(self):
        assert im_weak_value(1, 0.002) == pytest.approx(COT_0002, rel=1e-12)

    def test_triple_pass_operating_point(self):
        assert im_weak_value(3, 0.0124) == pytest.approx(COT_00124_X3, rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=1e-3, max_value=1.5),
    )
    def test_linearity_in_pass_count(self, n, rho):
        # N / tan(rho) is one rounding from N cot(rho): exact against N times
        # the single-pass value for a power-of-two N, within 2 ulp otherwise
        if n & (n - 1) == 0:
            assert im_weak_value(n, rho) == n * im_weak_value(1, rho)
        assert im_weak_value(n, rho) == pytest.approx(n * im_weak_value(1, rho), rel=2**-51)

    def test_singular_postselection_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            im_weak_value(1, 0.0)
        with pytest.raises(ValueError):
            im_weak_value(1, math.pi / 2)
        with pytest.raises(ValueError):
            im_weak_value(0, 0.01)

    def test_float_and_array_forms_give_the_same_bits(self):
        # one numpy tangent serves both forms: math.tan differs from np.tan in
        # the last bit at some of these angles, and neither form may use it
        rho = np.linspace(1e-3, 1.5, 1001)
        floats = np.array([im_weak_value(3, r) for r in rho.tolist()])
        assert im_weak_value(3, rho).tobytes() == floats.tobytes() == (3 / np.tan(rho)).tobytes()

    def test_singular_entry_of_an_array_rejected(self):
        # an array angle is checked as a float one is, not returned as inf or nan
        rho = np.array([0.0, 0.5])
        with pytest.raises(ValueError, match="singular"):
            im_weak_value(3, rho)
        with pytest.raises(ValueError, match="singular"):
            k31(3, rho)

    @given(
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=1e-3, max_value=1.5),
    )
    def test_matches_bra_ket_quotient_up_to_conjugation(self, n, rho):
        # independent route: assemble the quotient <f|N A|i> / <f|i> from raw
        # matrix/vector arithmetic, with A = diag(+1, -1).  The stored
        # postselection phases put the quotient at the complex conjugate of
        # i * Im W; magnitudes and the collapse structure are unaffected.
        pre = np.array(preselection_state())
        post = np.array(postselection_state(rho))
        operator = n * np.diag([1.0 + 0j, -1.0 + 0j])
        quotient = (np.conj(post) @ (operator @ pre)) / (np.conj(post) @ pre)
        symbolic = 1j * im_weak_value(n, rho)
        assert quotient.real == pytest.approx(0.0, abs=1e-10 * abs(symbolic))
        assert np.conj(quotient) == pytest.approx(symbolic, rel=1e-10)


class TestMwiSettings:
    def test_phase_length(self):
        settings = MwiSettings(n_interactions=3, k=2e-12, gamma=1e-7, rho=0.002)
        assert settings.phase_length == pytest.approx(3 * 2e-12 + 1e-7, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            MwiSettings(0, 1e-12)
        with pytest.raises(ValueError):
            MwiSettings(1, 1e-12, rho=0.0)
        with pytest.raises(ValueError):
            MwiSettings(1, 1e-12, rho=math.pi / 2)
        with pytest.raises(ValueError):
            MwiSettings(1, 1e-12, gamma=-1e-9)
        with pytest.raises(ValueError):
            MwiSettings(1, math.inf)

    def test_signed_k_allowed(self):
        assert MwiSettings(1, -3e-12).phase_length == -3e-12
