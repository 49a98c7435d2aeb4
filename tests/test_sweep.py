"""The batched sweep engine: the C/T kernel and the grid-level guard of the sweeps."""
import math
import tracemalloc

import numpy as np
import pytest

from wva_lab import meter, scenarios
from wva_lab.cli import main
from wva_lab.constants import SPEED_OF_LIGHT
from wva_lab.errors import NumericalError
from wva_lab.meter import (
    collapse_moments_on_grid,
    collapsed_density,
    pointer_shift_p_gaussian,
    postselection_probability_gaussian,
)
from wva_lab.polarization import MwiSettings
from wva_lab.scenarios import LAMBDA0_M as LAMBDA0, P0_RAD_PER_M as P0, execute_scenario, make_config
from wva_lab.spectra import MomentumGrid, SpectralProfile, build_grid, effective_sigma_p, grid_point_count
GAMMA = 1.9 * math.pi / P0
RHO = 0.002
TAUS_AS = np.arange(0.0, 331.0)  # the default 331-point sweep
KS = SPEED_OF_LIGHT * TAUS_AS * 1e-18
KERNEL = meter._level_moments  # the spies below replace meter's name; they and the references call this
UNEVEN_TAUS_AS = 330.0 * np.linspace(0.0, 1.0, 53) ** 2
SHAPES = ["gaussian", "supergaussian", "rectangular"]
TO_NM = -(LAMBDA0**2 / (2.0 * math.pi)) * 1e9


def phase_lengths(n, taus_as=TAUS_AS):
    return n * (SPEED_OF_LIGHT * taus_as * 1e-18) + GAMMA


def sweep_grid(profile, n, **kwargs):
    return build_grid(profile, MwiSettings(1, float(phase_lengths(n)[-1]), 0.0, RHO), **kwargs)


def kernel_levels(grid, lengths, rho, n_levels):
    """(P, delta_p) on ``grid`` and its coarser levels, each of shape
    (n_levels, len(lengths)): the sweep kernel read out as the sweeps do."""
    c, t = KERNEL(grid, lengths, n_levels)
    return meter._pointer_readout(grid.center, lengths, rho, c, t)


def direct_levels(grid, lengths, rho, n_levels):
    """(P, delta_p) of every stride-2^j level with sin and cos taken at every
    half-grid offset x = i*h."""
    step = grid.step
    angle = 0.5 * (grid.center * lengths + 2.0 * rho)
    probs, shifts = [], []
    for j in range(n_levels):
        level = MomentumGrid(grid.center, 2**j * step, grid.density[:: 2**j])  # the stride-2^j subgrid
        half = level.points.size // 2
        x = 2**j * step * np.arange(1, half + 1)
        w_omega = level.weights[half + 1 :] * level.density[half + 1 :]
        half_phase = np.multiply.outer(0.5 * lengths, x)
        c = 2.0 * np.sin(half_phase) ** 2 @ w_omega / level.integral()
        t = 2.0 * np.sin(2.0 * half_phase) @ (w_omega * x) / level.integral()
        prob = np.sin(angle) ** 2 + np.cos(2.0 * angle) * c
        probs.append(prob)
        shifts.append(0.5 * np.sin(2.0 * angle) * t / prob)
    return np.array(probs), np.array(shifts)


def readout(c, t, length, rho):
    """(P, delta_p) from C/I and T/I at phase length ``length``."""
    angle = 0.5 * (P0 * length + 2.0 * rho)
    prob = np.sin(angle) ** 2 + np.cos(2.0 * angle) * c
    return prob, 0.5 * np.sin(2.0 * angle) * t / prob


def rectangular_exact(sigma_p, length, rho):
    """(P, delta_p) from the exact C and T of a rectangle of half width sqrt(3)*sigma_p."""
    a = math.sqrt(3.0) * sigma_p
    c = 0.5 * (1.0 - np.sin(a * length) / (a * length))
    t = (np.sin(a * length) / length**2 - a * np.cos(a * length) / length) / a
    return readout(c, t, length, rho)


def supergaussian_reference(profile, length, rho):
    """(P, delta_p) from C and T of the supergaussian by composite
    Gauss-Legendre, 32 panels of 64 nodes on [0, 8 sigma_p]: no grid of the
    program's enters."""
    sigma_p = effective_sigma_p(profile)
    w = sigma_p / math.sqrt(math.gamma(3.0 / profile.order) / math.gamma(1.0 / profile.order))
    u, u_weights = np.polynomial.legendre.leggauss(64)
    half = 4.0 * sigma_p / 32  # half a panel
    x = (half * (2.0 * np.arange(32)[:, np.newaxis] + 1.0 + u)).ravel()
    omega = np.tile(half * u_weights, 32) * np.exp(-np.abs(x / w) ** profile.order)
    total = omega.sum()
    c = omega @ np.sin(0.5 * x * length) ** 2 / total
    t = omega @ (x * np.sin(x * length)) / total
    return readout(c, t, length, rho)


class TestKernel:
    @pytest.mark.parametrize("n", [1, 3])
    def test_gaussian_closed_forms_over_sweep(self, n):
        profile = SpectralProfile("gaussian", LAMBDA0, 6e-9)
        sigma_p = effective_sigma_p(profile)
        lengths = phase_lengths(n)
        prob, delta_p = collapse_moments_on_grid(sweep_grid(profile, n), lengths, RHO)
        settings = [MwiSettings(n, (length - GAMMA) / n, GAMMA, RHO) for length in lengths]
        prob_closed = np.array([postselection_probability_gaussian(sigma_p, P0, s) for s in settings])
        shift_closed = np.array([pointer_shift_p_gaussian(sigma_p, P0, s) for s in settings])
        assert np.max(np.abs(prob - prob_closed) / prob_closed) <= 1e-12
        assert np.max(np.abs(delta_p - shift_closed) / np.abs(shift_closed)) <= 1e-12

    def test_partial_last_block_matches_one_pass(self, monkeypatch):
        profile = SpectralProfile("supergaussian", LAMBDA0, 6e-9)
        grid = sweep_grid(profile, 1)
        lengths = phase_lengths(1)
        blocked = {}
        for n_levels in (1, 3):
            block = meter._BLOCK_ELEMENTS // meter._elements_per_phase_length(grid.points.size // 2, n_levels)
            assert 1 < block < lengths.size and lengths.size % block != 0
            blocked[n_levels] = kernel_levels(grid, lengths, RHO, n_levels)
        monkeypatch.setattr(meter, "_BLOCK_ELEMENTS", grid.points.size * lengths.size)
        for n_levels, blocked_values in blocked.items():
            single = kernel_levels(grid, lengths, RHO, n_levels)
            # equal up to the summation order BLAS picks for each block's shape
            for got, want in zip(blocked_values, single):
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_elements_count_only_the_rows_each_level_reads(self):
        # m = 256, K = 16: levels 0, 1 and 2 read 16 + 8 + 4 b rows, each for C
        # and T against two a-factor products
        assert meter._elements_per_phase_length(256, 3) == 2 * 2 * 28

    def test_levels_coarser_than_the_factor_base_match_direct_reference(self):
        # a 17-point grid: m = 8 and K = 4, so level 3 (stride 8 > K) reads its b = 0 row only;
        # the flat density weighs the band edge, the one point of level 3
        fine = sweep_grid(SpectralProfile("rectangular", LAMBDA0, 6e-9), 1, min_points=129)
        grid = MomentumGrid(fine.center, 8 * fine.step, fine.density[::8])
        assert grid.points.size == 17 and meter._factor_base(8) == 4
        lengths = phase_lengths(1, UNEVEN_TAUS_AS)
        got = kernel_levels(grid, lengths, RHO, 4)
        for got_values, want_values in zip(got, direct_levels(grid, lengths, RHO, 4)):
            np.testing.assert_allclose(got_values, want_values, rtol=1e-12, atol=0.0)

    def test_fig3b_kernel_transient_memory(self, monkeypatch):
        calls = []

        def spy_kernel(grid, lengths, n_levels):
            calls.append((grid, lengths, n_levels))
            return KERNEL(grid, lengths, n_levels)

        monkeypatch.setattr(meter, "_level_moments", spy_kernel)
        execute_scenario(make_config("fig3b"))
        ((grid, lengths, n_levels),) = calls
        assert (grid.points.size, lengths.size, n_levels) == (513, 15888, 2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            KERNEL(grid, lengths, n_levels)
            transient = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # three a-factor products over every level's 16 b rows, at 2**16 values
        # per block, took 1.80 MiB on this call (1.89e6 bytes)
        assert transient <= 1.80 * 2**20

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("width_nm", [0.05, 0.5, 6.0, 300.0])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_levels_match_direct_reference(self, shape, width_nm, n):
        profile = SpectralProfile(shape, LAMBDA0, width_nm * 1e-9)
        grid = sweep_grid(profile, n, min_points=513)
        lengths = phase_lengths(n, UNEVEN_TAUS_AS)
        got = kernel_levels(grid, lengths, RHO, 3)
        for got_values, want_values in zip(got, direct_levels(grid, lengths, RHO, 3)):
            np.testing.assert_allclose(got_values, want_values, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fine_grid_matches_direct_reference(self, shape):
        profile = SpectralProfile(shape, LAMBDA0, 6e-9)
        grid = sweep_grid(profile, 3, min_points=2**15 + 1)
        assert grid.points.size == 2**15 + 1
        # the half grid is the lattice x_i = i*h the kernel factors
        m = grid.points.size // 2
        assert np.array_equal(grid.offsets[m + 1 :], grid.step * np.arange(1, m + 1))
        for lengths in (phase_lengths(3, UNEVEN_TAUS_AS), phase_lengths(3, np.array([170.0]))):
            got = kernel_levels(grid, lengths, RHO, 2)
            for got_values, want_values in zip(got, direct_levels(grid, lengths, RHO, 2)):
                np.testing.assert_allclose(got_values, want_values, rtol=1e-12, atol=0.0)

    def test_rectangular_exact_forms(self):
        profile = SpectralProfile("rectangular", LAMBDA0, 6e-9)
        sigma_p = effective_sigma_p(profile)
        for n, k, rho in ((1, 3e-12, 0.002), (3, 1e-10, 0.01), (2, 0.0, 0.1)):
            settings = MwiSettings(n, k, GAMMA, rho)
            res = collapsed_density(profile, settings)
            prob, delta_p = rectangular_exact(sigma_p, settings.phase_length, rho)
            assert res.postselection_probability == pytest.approx(prob, rel=1e-9)
            assert res.delta_p == pytest.approx(delta_p, rel=1e-9)

    @pytest.mark.parametrize("width_nm", [0.5, 6.0, 50.0])
    def test_supergaussian_against_gauss_legendre(self, width_nm):
        profile = SpectralProfile("supergaussian", LAMBDA0, width_nm * 1e-9)
        cases = ((1, 3e-12, 0.0, 0.002), (3, 1e-10, GAMMA, 0.01), (2, 2e-11, GAMMA, 0.1),
                 (3, SPEED_OF_LIGHT * 330e-18, GAMMA, 0.002), (1, 0.0, GAMMA, 0.05))
        for n, k, gamma, rho in cases:
            settings = MwiSettings(n, k, gamma, rho)
            res = collapsed_density(profile, settings)
            prob, delta_p = supergaussian_reference(profile, settings.phase_length, rho)
            assert abs(res.postselection_probability - prob) <= 1e-12 * prob
            assert abs(res.delta_p - delta_p) <= 1e-12 * abs(delta_p)


class TestAdaptiveSweep:
    @pytest.mark.parametrize("shape", ["gaussian", "supergaussian"])
    @pytest.mark.parametrize("width_nm", [0.5, 6.0, 300.0])
    def test_matches_fixed_fine_grid(self, shape, width_nm):
        profile = SpectralProfile(shape, LAMBDA0, width_nm * 1e-9)
        (prob,), (delta_p,) = meter.collapsed_sweep([(profile, 1)], KS, GAMMA, RHO)
        fine = sweep_grid(profile, 1, min_points=2**15 + 1)
        prob_fine, delta_p_fine = collapse_moments_on_grid(fine, phase_lengths(1), RHO)
        dlam, dlam_fine = TO_NM * delta_p, TO_NM * delta_p_fine
        assert np.max(np.abs(dlam - dlam_fine)) <= 1e-12 * np.max(np.abs(dlam_fine))
        assert np.max(np.abs(prob - prob_fine)) <= 1e-12 * np.max(prob_fine)

    def test_returns_the_grid_it_integrated(self):
        # the 257- and 513-point levels of the first call agree here: the job gets the 513-point level
        profile = SpectralProfile("gaussian", LAMBDA0, 6e-9)
        (prob,), (delta_p,) = meter.collapsed_sweep([(profile, 1)], KS, GAMMA, RHO)
        want_prob, want_delta_p = kernel_levels(build_grid(profile, min_points=513), phase_lengths(1), RHO, 2)
        assert np.array_equal(prob, want_prob[0])
        assert np.array_equal(delta_p, want_delta_p[0])

    def test_fig3a_rectangular_matches_exact_forms(self):
        columns = execute_scenario(make_config("fig3a", {"shape": "rectangular"})).columns
        widths = columns["sigma_lambda_nm"]
        for width_nm in np.unique(widths):
            rows = widths == width_nm
            sigma_p = effective_sigma_p(SpectralProfile("rectangular", LAMBDA0, width_nm * 1e-9))
            lengths = SPEED_OF_LIGHT * columns["tau_as"][rows] * 1e-18 + GAMMA
            prob, delta_p = rectangular_exact(sigma_p, lengths, RHO)
            dlam = TO_NM * delta_p
            assert np.max(np.abs(columns["postselection_probability_1"][rows] - prob) / prob) <= 1e-9
            assert np.max(np.abs(columns["delta_lambda_nm"][rows] - dlam)) <= 1e-9 * np.max(np.abs(dlam))

    @pytest.mark.parametrize(
        "scenario_id, fast",
        [
            ("fig3b", ["n_widths=4", "tau_max_as=60", "tau_step_as=6"]),
            ("fig4", ["n_list=1,2", "tau_max_as=60", "tau_step_as=4"]),
        ],
    )
    def test_rectangular_runs_exit_0(self, scenario_id, fast, tmp_path, capsys):
        argv = ["run", scenario_id, "--out", str(tmp_path / "out.csv"), "--set", "shape=rectangular"]
        for setting in fast:
            argv += ["--set", setting]
        assert main(argv) == 0

    def test_fig3b_grids_and_kernel_calls_stay_small(self, monkeypatch):
        sizes = []
        calls = []

        def spy_build_grid(*args, **kwargs):
            grid = build_grid(*args, **kwargs)
            sizes.append(grid.points.size)
            return grid

        def spy_kernel(grid, lengths, n_levels):
            calls.append(grid.points.size)
            return KERNEL(grid, lengths, n_levels)

        monkeypatch.setattr(meter, "build_grid", spy_build_grid)
        monkeypatch.setattr(meter, "_level_moments", spy_kernel)
        config = make_config("fig3b")
        execute_scenario(config)
        assert max(sizes) <= 1025
        assert len(calls) <= 5 * int(config.params["n_widths"])

    def test_fig3b_one_trig_pass_per_width(self, monkeypatch):
        grid_points = []
        angle_values = []  # sin of (factor angle, tau) arrays
        sin = np.sin

        def spy_kernel(grid, lengths, n_levels):
            grid_points.append((grid.points.size, lengths.size))
            return KERNEL(grid, lengths, n_levels)

        def spy_sin(values, *args, **kwargs):
            if np.ndim(values) == 2:
                angle_values.append(np.size(values))
            return sin(values, *args, **kwargs)

        monkeypatch.setattr(meter, "_level_moments", spy_kernel)
        monkeypatch.setattr(np, "sin", spy_sin)
        config = make_config("fig3b")
        execute_scenario(config)
        n_widths = int(config.params["n_widths"])
        # one kernel call on the 513-point grid takes every width's taus, and
        # its 256 half-grid points factor into 17 coarse and 16 fine angles per tau
        assert grid_points == [(513, TAUS_AS.size * n_widths)]
        assert sum(angle_values) == (17 + 16) * TAUS_AS.size * n_widths


def per_job_sweep(profile, n):
    """(delta_lambda_nm, P, kernel calls) of one job on its own grids: from a
    257-point floor, double the grid until it and its stride-2 subgrid agree
    (``kernel_levels``), and keep level 0."""
    lengths = phase_lengths(n)
    sigma_p = effective_sigma_p(profile)
    widest = MwiSettings(n, SPEED_OF_LIGHT * TAUS_AS[-1] * 1e-18, GAMMA, RHO)
    n_intervals = grid_point_count(profile, widest, min_points=257) - 1
    calls = []
    for _ in range(4):
        n_intervals *= 2
        grid = build_grid(profile, min_points=n_intervals + 1)
        calls.append((grid.points.size, 2))
        prob, delta_p = kernel_levels(grid, lengths, RHO, 2)
        if np.all(np.abs(prob[0] - prob[1]) <= 1e-10 * prob[0]) and np.all(
            np.abs(delta_p[0] - delta_p[1]) <= 1e-10 * sigma_p
        ):
            return TO_NM * delta_p[0], prob[0], calls
    raise AssertionError("reference sweep did not converge")


class TestBatchedSweep:
    """Every job of a sweep scenario shares its group's grid in units of
    sigma_p; each must match the job swept alone on its own grids."""

    @staticmethod
    def _check(jobs, monkeypatch):
        calls = []

        def spy_kernel(grid, lengths, n_levels):
            calls.append((grid.points.size, n_levels))
            return KERNEL(grid, lengths, n_levels)

        monkeypatch.setattr(meter, "_level_moments", spy_kernel)
        prob, delta_p = meter.collapsed_sweep(jobs, KS, GAMMA, RHO)
        want_calls = set()
        for job, dlam_job, prob_job in zip(jobs, TO_NM * delta_p, prob):
            want_dlam, want_prob, job_calls = per_job_sweep(*job)
            want_calls.update(job_calls)
            # past about 1,500 nm delta_lambda is a small remainder of sums of
            # order sigma_lambda, and either path carries up to 2e-13 of the
            # column scale in rounding (measured against long double at 2,493 nm)
            sigma_lambda_nm = job[0].sigma_lambda * 1e9
            limit = 1e-13 * np.max(np.abs(want_dlam)) + 1e-15 * sigma_lambda_nm
            assert np.max(np.abs(dlam_job - want_dlam)) <= limit
            assert np.max(np.abs(prob_job - want_prob)) <= 1e-13 * np.max(want_prob)
        # the groups compare the grid levels each job compares alone
        assert set(calls) == want_calls
        return calls

    def test_all_shapes(self, monkeypatch):
        widths_nm = (0.05, 0.5, 6.0, 300.0)
        jobs = [(SpectralProfile(shape, LAMBDA0, w * 1e-9), n) for shape in SHAPES for w in widths_nm for n in (1, 3)]
        self._check(jobs, monkeypatch)

    def test_fig3b_four_groups(self, monkeypatch):
        values = make_config("fig3b", {"width_max_nm": "6000"}).values
        profiles = [scenarios._profile(values, float(width)) for width in values["widths_nm"]]
        widest = MwiSettings(1, SPEED_OF_LIGHT * TAUS_AS[-1] * 1e-18, GAMMA, RHO)
        counts = {grid_point_count(profile, widest, min_points=257) for profile in profiles}
        assert counts == {257, 513, 1025, 2049}
        calls = self._check([(profile, 1) for profile in profiles], monkeypatch)
        assert sorted(calls) == [(513, 2), (1025, 2), (2049, 2), (4097, 2)]

    def test_fig4_pass_counts(self, monkeypatch):
        profile = SpectralProfile("supergaussian", LAMBDA0, 6e-9)
        self._check([(profile, n) for n in (1, 2, 3)], monkeypatch)


class TestStridedLevels:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_subgrids_equal_coarser_builds(self, shape):
        profile = SpectralProfile(shape, LAMBDA0, 6e-9)
        fine = sweep_grid(profile, 1, min_points=513)
        assert fine.points.size == 513
        for stride, n_points in ((2, 257), (4, 129)):
            coarse = sweep_grid(profile, 1, min_points=n_points)
            assert coarse.points.size == n_points
            np.testing.assert_array_equal(fine.points[::stride], coarse.points)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_levels_match_kernel_on_coarser_builds(self, shape):
        profile = SpectralProfile(shape, LAMBDA0, 6e-9)
        lengths = phase_lengths(1)
        prob, delta_p = kernel_levels(
            sweep_grid(profile, 1, min_points=513), lengths, RHO, 3
        )
        assert prob.shape == delta_p.shape == (3, lengths.size)
        for level, n_points in enumerate((513, 257, 129)):
            want_prob, want_delta_p = collapse_moments_on_grid(
                sweep_grid(profile, 1, min_points=n_points), lengths, RHO
            )
            np.testing.assert_allclose(prob[level], want_prob, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(delta_p[level], want_delta_p, rtol=1e-13, atol=0.0)


class TestLevelsAgree:
    def test_agrees_up_to_the_tolerance(self):
        # powers of two keep every bound exact: P within 0.25 of level 0's P, delta_p within 0.25 sigma_p = 0.5
        past = np.nextafter
        prob = np.array([[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], [1.25, past(1.25, 2.0), 0.75, 1.0, 1.0, 1.0]])
        delta_p = np.array([[8.0, 8.0, 8.0, 8.0, 8.0, 8.0], [8.0, 8.0, 8.0, 8.5, past(8.5, 9.0), 7.5]])
        agree = meter._levels_agree(prob, delta_p, 2.0, 0.25)
        assert agree.tolist() == [True, False, True, True, False, True]
        # level 1 is not the scale: 0.25 is more than 0.25 of P = 0.75
        assert not meter._levels_agree(prob[::-1, 2], delta_p[:, 2], 2.0, 0.25)


class TestSweepGuard:
    @pytest.fixture
    def never_converges(self, monkeypatch):
        def drifting_kernel(grid, lengths, n_levels):
            # consecutive grid levels differ by far more than the tolerance
            level_points = (grid.points.size - 1) / 2.0 ** np.arange(n_levels) + 1
            values = np.repeat((0.5 + 1e-3 / level_points)[:, np.newaxis], lengths.size, axis=1)
            return values, values

        monkeypatch.setattr(meter, "_level_moments", drifting_kernel)
        # a lower ceiling keeps the doubling (and the memory it takes) small
        monkeypatch.setattr(meter, "MAX_GRID_POINTS", 2**12 + 1)

    def test_raises_numerical_error(self, never_converges):
        profile = SpectralProfile("supergaussian", LAMBDA0, 6e-9)
        with pytest.raises(NumericalError, match="supergaussian source of width 6 nm at N = 1 did not converge"):
            meter.collapsed_sweep([(profile, 1)], KS, GAMMA, RHO)

    def test_run_exits_3_without_csv(self, never_converges, tmp_path, capsys):
        out = tmp_path / "fig3a.csv"
        assert main(["run", "fig3a", "--out", str(out)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()
