import math

import numpy as np
import pytest

from wva_lab import meter, scenarios
from wva_lab.cli import main
from wva_lab.constants import SPEED_OF_LIGHT
from wva_lab.errors import NumericalError
from wva_lab.meter import (
    CollapseResult,
    _oracle_amplitude,
    _oracle_factor,
    _oracle_project,
    collapsed_density,
    intensity_after_postselection,
    intensity_shift_approx,
    oracle_joint_state,
    pointer_shift_p_approx,
    pointer_shift_p_gaussian,
    postselection_probability_gaussian,
)
from wva_lab.polarization import MwiSettings
from wva_lab.scenarios import LAMBDA0_M as LAMBDA0, P0_RAD_PER_M as P0, make_config
from wva_lab.spectra import SpectralProfile, build_grid, effective_sigma_p, grid_point_count

from direct_path import direct_collapse

SIGMA_P_6NM = 15691.617832706564
SIN2_0002 = 3.9999946666695111e-6

# frozen from 40-digit evaluation of the Gaussian closed forms
PROB_6NM_N3_K3E10 = 1.4624106176627469e-5
PROB_COH_N3_K3E10 = 1.4624056317144593e-5
DP_6NM_N1_K3E12 = 0.36822032760525164
DP_APPROX_N1_K3E12 = 0.36933981285770021
DP_6NM_N3_K3E10 = 57.948122894260935
DP_APPROX_N3_K3E10 = 110.80194385731006
DL_COH_N1_K3E12 = 0.0060897368669348407
DL_APPROX_N1_K3E12 = 0.0060804938028357512
DL_COH_N3_K3E10 = 2.6560189539754871


def gaussian(width=6e-9):
    return SpectralProfile("gaussian", LAMBDA0, width)


def sequential_amplitude(points, settings):
    """The oracle's |H> amplitude phase with the N passes applied one at a
    time: exp(0.5j gamma p), then N factors exp(0.5j k p)."""
    amp_h = np.exp(0.5j * settings.gamma * points)
    step = np.exp(0.5j * settings.k * points)
    for _ in range(settings.n_interactions):
        amp_h = amp_h * step
    return amp_h


def oracle_collapse(grid, settings, sequential=False):
    """The oracle's collapsed density on ``grid``, composed from its steps,
    with the passes as one phase or, with ``sequential``, one at a time."""
    amp_h = (sequential_amplitude if sequential else _oracle_amplitude)(grid.points, settings)
    return _oracle_project(_oracle_factor(amp_h, settings.rho), np.sqrt(grid.density))


def oracle_moments(grid, collapsed):
    """(postselection probability, delta_p): the Simpson sums of a collapsed
    density on ``grid``, as ``oracle_joint_state`` takes them."""
    wd = grid.weights * collapsed
    return float(wd.sum()) / grid.integral(), float((wd * grid.offsets).sum()) / float(wd.sum())


class TestCollapsedDensity:
    def test_zero_coupling_scales_initial_density(self):
        settings = MwiSettings(1, 0.0, 0.0, 0.002)
        res = collapsed_density(gaussian(), settings)
        initial = build_grid(gaussian(), settings)
        assert np.array_equal(res.density.density, initial.density)  # the result's grid carries Omega
        collapsed = direct_collapse(res.density, settings.phase_length, settings.rho)
        expected = initial.density * math.sin(0.002) ** 2
        assert np.max(np.abs(collapsed - expected)) <= 1e-12 * expected.max()
        assert res.delta_p == pytest.approx(0.0, abs=1e-6)
        assert res.postselection_probability == pytest.approx(SIN2_0002, rel=1e-9)

    @pytest.mark.parametrize("shape", ["gaussian", "supergaussian", "rectangular"])
    def test_zero_phase_length_gives_exactly_zero_shift(self, shape):
        # at L = 0 every sin(x L) of the kernel is 0; a Simpson sum of
        # (p - p0) D on absolute momenta left about -1.1e-12 rad/m here
        for n, rho in ((1, 0.002), (2, 0.01), (3, 0.1)):
            res = collapsed_density(SpectralProfile(shape, LAMBDA0, 6e-9), MwiSettings(n, 0.0, 0.0, rho))
            assert res.delta_p == 0.0
            assert res.postselection_probability == pytest.approx(math.sin(rho) ** 2, rel=1e-12)

    def test_shift_matches_frozen_value(self):
        res = collapsed_density(gaussian(), MwiSettings(1, 3e-12, 0.0, 0.002))
        assert res.delta_p == pytest.approx(DP_6NM_N1_K3E12, rel=1e-6)

    def test_probability_matches_frozen_value(self):
        res = collapsed_density(gaussian(), MwiSettings(3, 3e-10, 0.0, 0.002))
        assert res.postselection_probability == pytest.approx(PROB_6NM_N3_K3E10, rel=1e-9)

    def test_delta_lambda_sign_convention(self):
        res = collapsed_density(gaussian(), MwiSettings(1, 3e-12, 0.0, 0.002))
        assert res.delta_lambda == pytest.approx(
            -(LAMBDA0**2 / (2.0 * math.pi)) * res.delta_p, rel=1e-12
        )

    def test_collapsed_bounded_by_initial(self):
        for k in (0.0, 1e-12, 1e-10):
            for rho in (0.002, 0.1):
                settings = MwiSettings(2, k, 1.9 * math.pi / P0, rho)
                res = collapsed_density(gaussian(), settings)
                initial = build_grid(gaussian(), settings)
                collapsed = direct_collapse(res.density, settings.phase_length, rho)
                assert np.all(collapsed <= initial.density + 1e-15)
                assert 0.0 <= res.postselection_probability <= 1.0

    def test_probability_is_integral_ratio(self):
        settings = MwiSettings(2, 1e-11, 0.0, 0.01)
        grid = build_grid(gaussian(), settings)
        res = collapsed_density(gaussian(), settings)
        assert np.array_equal(res.density.points, grid.points)  # the guard kept the grid built here
        collapsed = direct_collapse(grid, settings.phase_length, settings.rho)
        ratio = float(np.dot(grid.weights, collapsed)) / grid.integral()
        assert res.postselection_probability == pytest.approx(ratio, rel=1e-9)

    @pytest.mark.parametrize("shape", ["gaussian", "supergaussian"])
    def test_narrow_sources_converge(self, shape):
        # a grid step taken from two absolute momenta near p0 carried ulp(p0),
        # which broke the stride-2 Simpson weights below ~0.05 nm
        settings = MwiSettings(1, 3e-8, 1.9 * math.pi / P0, 0.002)
        for width_nm in np.geomspace(0.005, 0.5, 60):
            res = collapsed_density(SpectralProfile(shape, LAMBDA0, width_nm * 1e-9), settings)
            assert 0.0 < res.postselection_probability < 1.0

    @pytest.mark.parametrize("width_nm", [0.05, 0.5])
    @pytest.mark.parametrize("shape", ["gaussian", "supergaussian", "rectangular"])
    def test_moments_on_exact_lattice(self, shape, width_nm):
        # the kernel's C/I and T/I, read out, against the same Simpson sums and
        # readout in long double on the half lattice x_i = i*h; offsets taken
        # as absolute momenta minus p0 carry up to ulp(p0)/2 each, which moved
        # delta_p by 9.5e-13 relative on these grids
        grid = build_grid(SpectralProfile(shape, LAMBDA0, width_nm * 1e-9), min_points=129)
        assert grid.density.size == 129
        step = np.longdouble(grid.step)
        x = step * np.arange(1, 65)  # i*h is exact in long double
        weights = np.ones(129, dtype=np.longdouble)
        weights[1:-1:2], weights[2:-1:2] = 4, 2
        weights *= step / 3
        omega = grid.density.astype(np.longdouble)
        w_omega = 2 * weights[65:] * omega[65:] / np.dot(weights, omega)  # the doubled half sum over I
        gamma, rho = 1.9 * math.pi / P0, 0.002
        for tau_as in (40.0, 170.0, 330.0):
            length = SPEED_OF_LIGHT * tau_as * 1e-18 + gamma
            c, t = meter._level_moments(grid, [length])
            prob, delta_p = meter._pointer_readout(grid.center, length, rho, c[0, 0], t[0, 0])
            long_length = np.longdouble(length)
            angle = (np.longdouble(grid.center) * long_length + 2 * np.longdouble(rho)) / 2
            prob_want = np.sin(angle) ** 2 + np.cos(2 * angle) * np.sum(w_omega * np.sin(x * long_length / 2) ** 2)
            shift_want = np.sin(2 * angle) * np.sum(w_omega * x * np.sin(x * long_length)) / (2 * prob_want)
            assert abs(prob - prob_want) <= 2e-13 * prob_want
            assert abs(delta_p - shift_want) <= 2e-13 * abs(shift_want)

    def test_quadrature_against_independent_simpson(self):
        # third route: scipy Simpson on an independently constructed grid
        from scipy.integrate import simpson

        sigma = SIGMA_P_6NM
        x = np.linspace(-8 * sigma, 8 * sigma, 2**15 + 1)
        om = np.exp(-0.5 * (x / sigma) ** 2)
        om /= simpson(om, x=x)
        k = 3e-12
        d = om * np.sin(((x + P0) * k + 0.004) / 2.0) ** 2
        prob_ref = simpson(d, x=x)
        dp_ref = simpson(x * d, x=x) / prob_ref
        res = collapsed_density(gaussian(), MwiSettings(1, k, 0.0, 0.002))
        assert res.postselection_probability == pytest.approx(prob_ref, rel=1e-9)
        assert res.delta_p == pytest.approx(dp_ref, rel=1e-6)


class TestSettingsFamily:
    """``collapsed_density`` on settings whose k or rho is an array: one grid
    for the family's largest |L|, one kernel call, arrays of the broadcast shape."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_family_matches_scalar_calls_on_default_matrix(self, n):
        values = make_config("oracle_suite").values
        ks = [k for k in values["k_list_m"] if k != 0.0]
        rhos = values["rho_list_rad"]
        family = collapsed_density(gaussian(), MwiSettings(n, np.array(ks)[:, np.newaxis], 0.0, np.array(rhos)))
        assert family.postselection_probability.shape == family.delta_p.shape == (len(ks), len(rhos))
        for i, k in enumerate(ks):
            for j, rho in enumerate(rhos):
                case = collapsed_density(gaussian(), MwiSettings(n, k, 0.0, rho))
                assert family.postselection_probability[i, j] == pytest.approx(case.postselection_probability, rel=1e-14)
                assert family.delta_p[i, j] == pytest.approx(case.delta_p, rel=1e-14)
                assert family.delta_lambda[i, j] == pytest.approx(case.delta_lambda, rel=1e-14)

    def test_family_grid_is_that_of_its_largest_length(self):
        ks = np.array([1e-12, -2.5e-3])  # per-case grids of 8,193 and 16,385 points
        assert [grid_point_count(gaussian(), MwiSettings(3, float(k))) for k in ks] == [8193, 16385]
        res = collapsed_density(gaussian(), MwiSettings(3, ks, 0.0, 0.002))
        widest = build_grid(gaussian(), MwiSettings(3, float(ks[1])))
        assert np.array_equal(res.density.points, widest.points)
        assert res.delta_p.shape == (2,)

    def test_scalar_settings_give_float_fields(self):
        res = collapsed_density(gaussian(), MwiSettings(1, 3e-12, 0.0, 0.002))
        assert all(type(v) is float for v in (res.postselection_probability, res.delta_p, res.delta_lambda))
        with pytest.raises(ValueError, match="outside"):
            CollapseResult(res.density, np.array([0.5, 1.5]), np.zeros(2), np.zeros(2))


class TestRefinementGuard:
    """The stride-2 guard of ``collapsed_density``: a grid whose full- and
    half-resolution moments disagree for any member of a family is rebuilt,
    for the whole family, at twice the intervals, up to ``_GUARD_REBUILDS``
    times, and then the call raises."""

    SETTINGS = MwiSettings(1, 3e-12, 0.0, 0.002)
    FAMILY = MwiSettings(1, np.array([3e-12, 1e-10])[:, np.newaxis], 0.0, np.array([0.002, 0.01]))

    @staticmethod
    def _spy_build_grid(monkeypatch):
        sizes = []

        def spy(*args, **kwargs):
            grid = build_grid(*args, **kwargs)
            sizes.append(grid.points.size)
            return grid

        monkeypatch.setattr(meter, "build_grid", spy)
        return sizes

    @pytest.fixture
    def never_agrees(self, monkeypatch):
        monkeypatch.setattr(meter, "_GUARD_TOLERANCE", -1.0)  # no difference is within a negative bound

    def _check_one_disagreement(self, settings, monkeypatch):
        kernel = meter._level_moments
        evaluated = []

        def disagree_once(grid, lengths):
            c, t = kernel(grid, lengths)
            evaluated.append(grid.density.size)
            if len(evaluated) == 1:
                c[1, -1] += 1e-6  # the first half-resolution estimate of one member
            return c, t

        monkeypatch.setattr(meter, "_level_moments", disagree_once)
        sizes = self._spy_build_grid(monkeypatch)
        res = collapsed_density(gaussian(), settings)
        assert sizes == [8193, 16385]
        assert evaluated == [8193, 16385]
        fine = build_grid(gaussian(), settings, min_points=16385)
        assert np.array_equal(res.density.points, fine.points)
        lengths = np.asarray(settings.phase_length)
        c, t = kernel(fine, lengths.ravel())
        prob, delta_p = meter._pointer_readout(
            fine.center, lengths, settings.rho, c[0].reshape(lengths.shape), t[0].reshape(lengths.shape))
        assert np.array_equal(res.postselection_probability, prob)
        assert np.array_equal(res.delta_p, delta_p)

    def _check_never_agreeing_raises(self, settings, monkeypatch):
        sizes = self._spy_build_grid(monkeypatch)
        with pytest.raises(NumericalError, match="did not converge under grid refinement"):
            collapsed_density(gaussian(), settings)
        assert len(sizes) == meter._GUARD_REBUILDS + 1
        assert sizes == [8193 * 2**j - 2**j + 1 for j in range(len(sizes))]

    def test_one_disagreement_rebuilds_at_double_resolution(self, monkeypatch):
        self._check_one_disagreement(self.SETTINGS, monkeypatch)

    def test_one_disagreeing_member_rebuilds_the_family(self, monkeypatch):
        self._check_one_disagreement(self.FAMILY, monkeypatch)

    def test_never_agreeing_guard_raises(self, never_agrees, monkeypatch):
        self._check_never_agreeing_raises(self.SETTINGS, monkeypatch)

    def test_never_agreeing_family_raises(self, never_agrees, monkeypatch):
        self._check_never_agreeing_raises(self.FAMILY, monkeypatch)

    def test_oracle_suite_exits_3_without_csv(self, never_agrees, tmp_path, capsys):
        out = tmp_path / "oracle_suite.csv"
        assert main(["run", "oracle_suite", "--out", str(out)]) == 3
        assert "did not converge under grid refinement" in capsys.readouterr().err
        assert not out.exists()


class TestGaussianClosedForms:
    def test_probability_zero_coupling(self):
        settings = MwiSettings(1, 0.0, 0.0, 0.002)
        assert postselection_probability_gaussian(SIGMA_P_6NM, P0, settings) == pytest.approx(
            SIN2_0002, rel=1e-12
        )

    def test_probability_frozen_values(self):
        settings = MwiSettings(3, 3e-10, 0.0, 0.002)
        assert postselection_probability_gaussian(SIGMA_P_6NM, P0, settings) == pytest.approx(
            PROB_6NM_N3_K3E10, rel=1e-12
        )
        assert postselection_probability_gaussian(0.0, P0, settings) == pytest.approx(
            PROB_COH_N3_K3E10, rel=1e-12
        )

    def test_probability_in_unit_interval(self):
        for sigma in (0.0, 1e3, SIGMA_P_6NM, 1e6):
            for k in (0.0, 1e-12, 1e-8, 1e-6):
                for rho in (0.002, 0.3, 1.5):
                    p = postselection_probability_gaussian(sigma, P0, MwiSettings(3, k, 0.0, rho))
                    assert 0.0 <= p <= 1.0

    def test_shift_zero_at_zero_coupling(self):
        assert pointer_shift_p_gaussian(SIGMA_P_6NM, P0, MwiSettings(1, 0.0, 0.0, 0.002)) == 0.0

    def test_shift_frozen_values(self):
        assert pointer_shift_p_gaussian(
            SIGMA_P_6NM, P0, MwiSettings(1, 3e-12, 0.0, 0.002)
        ) == pytest.approx(DP_6NM_N1_K3E12, rel=1e-12)
        assert pointer_shift_p_gaussian(
            SIGMA_P_6NM, P0, MwiSettings(3, 3e-10, 0.0, 0.002)
        ) == pytest.approx(DP_6NM_N3_K3E10, rel=1e-12)

    def test_linear_regime_approximation_agrees(self):
        # k p0 / 2 << rho: approximation valid to within a percent
        exact = pointer_shift_p_gaussian(SIGMA_P_6NM, P0, MwiSettings(1, 3e-12, 0.0, 0.002))
        approx = pointer_shift_p_approx(SIGMA_P_6NM, MwiSettings(1, 3e-12, 0.0, 0.002))
        assert approx == pytest.approx(DP_APPROX_N1_K3E12, rel=1e-12)
        assert exact / approx == pytest.approx(1.0, abs=0.01)

    def test_outside_linear_regime_approximation_breaks(self):
        # N k p0 / 2 comparable to rho: the linear form overestimates badly
        exact = pointer_shift_p_gaussian(SIGMA_P_6NM, P0, MwiSettings(3, 3e-10, 0.0, 0.002))
        approx = pointer_shift_p_approx(SIGMA_P_6NM, MwiSettings(3, 3e-10, 0.0, 0.002))
        assert approx == pytest.approx(DP_APPROX_N3_K3E10, rel=1e-12)
        assert approx / exact > 1.5

    def test_approx_zero_at_zero_coupling(self):
        assert pointer_shift_p_approx(SIGMA_P_6NM, MwiSettings(2, 0.0, 0.0, 0.002)) == 0.0

    def test_monochromatic_shift_rejected(self):
        with pytest.raises(ValueError):
            pointer_shift_p_gaussian(0.0, P0, MwiSettings(1, 1e-12))
        with pytest.raises(ValueError):
            pointer_shift_p_approx(0.0, MwiSettings(1, 1e-12))


class TestIntensityPointer:
    def test_zero_coupling_zero_shift(self):
        _, shift = intensity_after_postselection(1.0, 0.0, P0, MwiSettings(2, 0.0, 0.0, 0.002))
        assert shift == 0.0

    def test_coherent_frozen_values(self):
        _, shift = intensity_after_postselection(1.0, 0.0, P0, MwiSettings(1, 3e-12, 0.0, 0.002))
        assert shift == pytest.approx(DL_COH_N1_K3E12, rel=1e-10)
        approx = intensity_shift_approx(0.0, P0, MwiSettings(1, 3e-12, 0.0, 0.002))
        assert approx == pytest.approx(DL_APPROX_N1_K3E12, rel=1e-12)
        assert shift / approx == pytest.approx(1.0, abs=0.01)

    def test_coherent_outside_linear_regime(self):
        _, shift = intensity_after_postselection(1.0, 0.0, P0, MwiSettings(3, 3e-10, 0.0, 0.002))
        assert shift == pytest.approx(DL_COH_N3_K3E10, rel=1e-10)

    def test_intensity_scales_with_input(self):
        a_intensity, a_shift = intensity_after_postselection(1.0, 0.0, P0, MwiSettings(1, 3e-12, 0.0, 0.002))
        b_intensity, b_shift = intensity_after_postselection(2.5, 0.0, P0, MwiSettings(1, 3e-12, 0.0, 0.002))
        assert b_intensity == pytest.approx(2.5 * a_intensity, rel=1e-15)
        assert b_shift == pytest.approx(a_shift, rel=1e-12)

    def test_baseline_keeps_gamma(self):
        gamma = 1.9 * math.pi / P0
        intensity, shift = intensity_after_postselection(1.0, 0.0, P0, MwiSettings(1, 3e-12, gamma, 0.002))
        baseline = postselection_probability_gaussian(0.0, P0, MwiSettings(1, 0.0, gamma, 0.002))
        assert intensity / (1.0 + shift) == pytest.approx(baseline, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            intensity_after_postselection(0.0, 0.0, P0, MwiSettings(1, 1e-12))


class TestOracle:
    def test_equivalence_spot_case(self):
        settings = MwiSettings(2, 1e-11, 0.0, 0.005)
        grid = build_grid(gaussian(), settings)
        direct = collapsed_density(gaussian(), settings)
        assert np.array_equal(direct.density.points, grid.points)  # the guard kept the grid built here
        oracle = oracle_joint_state(gaussian(), settings, grid)
        assert oracle.density is grid
        d = direct_collapse(direct.density, settings.phase_length, settings.rho)
        o = oracle_collapse(grid, settings)
        mask = d > 1e-15 * d.max()
        assert np.max(np.abs(d[mask] - o[mask]) / d[mask]) <= 1e-10
        assert oracle.postselection_probability == pytest.approx(
            direct.postselection_probability, rel=1e-12
        )

    def test_kernel_moments_match_oracle_on_default_matrix(self):
        # every shape, N, k, rho and gamma of oracle_suite's matrix: the sweep kernel's
        # level 0 (read out as the sweeps read it) against the literal joint state's
        # Simpson sums on the case's own grid. The worst measured is 8.3e-15 (P,
        # relative) and 4.2e-15 (delta_p over sigma_p); the bound is ten times that,
        # rounded up to a power of ten
        values = make_config("oracle_suite").values
        worst_prob = worst_shift = 0.0
        for shape, width_nm, n, k, rho, gamma_pi in scenarios.oracle_case_matrix(values):
            profile = scenarios._profile(values, width_nm, shape)
            settings = MwiSettings(n, k, scenarios._gamma_length(gamma_pi), rho)
            grid = build_grid(profile, settings)
            lengths = np.array([settings.phase_length])
            c, t = meter._level_moments(grid, lengths)
            (prob,), (delta_p,) = meter._pointer_readout(grid.center, lengths, rho, c[0], t[0])
            oracle_prob, oracle_shift = oracle_moments(grid, oracle_collapse(grid, settings))
            worst_prob = max(worst_prob, abs(prob - oracle_prob) / oracle_prob)
            worst_shift = max(worst_shift, abs(delta_p - oracle_shift) / effective_sigma_p(profile))
        assert worst_prob <= 1e-13 and worst_shift <= 1e-13

    def test_zero_coupling_reduces_to_projection(self):
        settings = MwiSettings(1, 0.0, 0.0, 0.002)
        grid = build_grid(gaussian(), settings)
        oracle = oracle_joint_state(gaussian(), settings, grid)
        expected = grid.density * math.sin(0.002) ** 2
        assert np.max(np.abs(oracle_collapse(grid, settings) - expected)) <= 1e-12 * expected.max()
        assert oracle.postselection_probability == pytest.approx(SIN2_0002, rel=1e-12)

    def test_sequential_passes_match_single_application(self):
        settings = MwiSettings(2, 1e-11, 0.0, 0.005)
        grid = build_grid(gaussian(), settings)
        one_shot = oracle_collapse(grid, settings)
        stepwise = oracle_collapse(grid, settings, sequential=True)
        mask = one_shot > 1e-15 * one_shot.max()
        assert np.max(np.abs(one_shot[mask] - stepwise[mask]) / one_shot[mask]) <= 1e-14
        oracle = oracle_joint_state(gaussian(), settings, grid)
        prob, delta_p = oracle_moments(grid, stepwise)
        assert prob == pytest.approx(oracle.postselection_probability, rel=1e-14)
        assert delta_p == pytest.approx(oracle.delta_p, rel=1e-14)

    @pytest.mark.parametrize("sequential", [False, True])
    def test_array_core_is_the_oracle(self, sequential):
        # the oracle is its composed steps' Simpson sums, bit for bit; with the
        # passes (and gamma) applied one at a time, to rounding
        settings = MwiSettings(3, 1e-10, 1.9 * math.pi / P0, 0.01)
        grid = build_grid(gaussian(), settings)
        prob, delta_p = oracle_moments(grid, oracle_collapse(grid, settings, sequential))
        oracle = oracle_joint_state(gaussian(), settings, grid)
        assert oracle.density is grid
        tol = 1e-14 if sequential else 0.0
        assert prob == pytest.approx(oracle.postselection_probability, rel=tol, abs=0.0)
        assert delta_p == pytest.approx(oracle.delta_p, rel=tol, abs=0.0)


class TestAmplificationDeepLinearRegime:
    def test_pass_count_multiplies_both_pointers(self):
        # deep in the linear regime (N k p0 well under rho/50) the ratio error
        # (N-1) k p0 / sin(2 rho) sits below 1e-3
        k, rho = 3e-13, 0.002
        shifts = {}
        intensities = {}
        for n in (1, 2, 3):
            settings = MwiSettings(n, k, 0.0, rho)
            shifts[n] = collapsed_density(gaussian(), settings).delta_p
            _, intensities[n] = intensity_after_postselection(1.0, 0.0, P0, settings)
        for n in (2, 3):
            assert abs(shifts[n] / shifts[1] - n) <= 1e-3 * n
            assert abs(intensities[n] / intensities[1] - n) <= 1e-3 * n
