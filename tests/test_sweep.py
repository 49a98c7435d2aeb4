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
from wva_lab.spectra import (MAX_GRID_POINTS, MomentumGrid, SpectralProfile, build_grid, effective_sigma_p,
                             grid_point_count)
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


def kernel_levels(grid, lengths):
    """(P, delta_p) at RHO on ``grid`` and its stride-2 subgrid, each of shape
    (2, len(lengths)): the sweep kernel read out as the sweeps do."""
    c, t = KERNEL(grid, lengths)
    return meter._pointer_readout(grid.center, lengths, RHO, c, t)


def direct_levels(grid, lengths):
    """(P, delta_p) at RHO of ``grid`` and its stride-2 subgrid with sin and
    cos taken at every half-grid offset x = i*h."""
    step = grid.step
    angle = 0.5 * (grid.center * lengths + 2.0 * RHO)
    probs, shifts = [], []
    for stride in (1, 2):
        level = MomentumGrid(grid.center, stride * step, grid.density[::stride])
        half = level.points.size // 2
        x = stride * step * np.arange(1, half + 1)
        w_omega = level.weights[half + 1 :] * level.density[half + 1 :]
        half_phase = np.multiply.outer(0.5 * lengths, x)
        c = 2.0 * np.sin(half_phase) ** 2 @ w_omega / level.integral()
        t = 2.0 * np.sin(2.0 * half_phase) @ (w_omega * x) / level.integral()
        prob = np.sin(angle) ** 2 + np.cos(2.0 * angle) * c
        probs.append(prob)
        shifts.append(0.5 * np.sin(2.0 * angle) * t / prob)
    return np.array(probs), np.array(shifts)


def table_shapes(monkeypatch):
    """The shape of every power table the kernel builds from now on: the
    (row, L) tables exp(i a K theta) then exp(i b theta) of each block of L."""
    shapes = []
    power_table = meter._power_table

    def spy_power_table(angles, n_rows):
        table = power_table(angles, n_rows)
        shapes.append(table.shape)
        return table

    monkeypatch.setattr(meter, "_power_table", spy_power_table)
    return shapes


def last_kept_slot(grid):
    """The last half-grid slot i = 1..m whose density is at least the kernel's
    negligible fraction of the grid's largest (0 if none is)."""
    m = grid.points.size // 2
    kept = np.flatnonzero(grid.density[m + 1 :] >= meter._NEGLIGIBLE_DENSITY * grid.density.max())
    return int(kept[-1]) + 1 if kept.size else 0


def trig_elements(monkeypatch):
    """The element count of every argument np.sin and np.cos take from now on."""
    counts = []

    def counting(trig):
        def spy(values, *args, **kwargs):
            counts.append(np.size(values))
            return trig(values, *args, **kwargs)

        return spy

    monkeypatch.setattr(np, "sin", counting(np.sin))
    monkeypatch.setattr(np, "cos", counting(np.cos))
    return counts


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
        assert grid.points.size == 8193
        # the density stays at or above 2**-64 of its peak up to slot 1,707 of m = 4096
        # (3.33 of the 8 sigma_p of the half grid); 1707 has 11 bits, so K = 2**((11 - 3) // 2)
        # = 16, and the kernel builds 1707 // 16 + 1 = 107 coarse and 16 fine table rows;
        # 16 + 8 weight rows take 2**14 // (4 * 24) = 170 lengths per block, so the 331
        # end in a block of 161
        assert last_kept_slot(grid) == 1707
        shapes = table_shapes(monkeypatch)
        blocked = kernel_levels(grid, lengths)
        assert shapes == [shape for width in (170, 161) for shape in ((107, width), (16, width))]
        monkeypatch.setattr(meter, "_BLOCK_ELEMENTS", grid.points.size * lengths.size)
        shapes.clear()
        single = kernel_levels(grid, lengths)
        assert shapes == [(107, 331), (16, 331)]
        # equal up to the summation order BLAS picks for each block's shape: the
        # last columns of the 331-wide product are summed apart from the rest
        for got, want in zip(blocked, single):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n_points", [513, 8193])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_each_length_alone_matches_its_column(self, shape, n_points):
        # a lone length is padded to a two-column block, so it takes the matrix
        # product, not the matrix-vector one, and gets its column's bits in the full call
        grid = build_grid(SpectralProfile(shape, LAMBDA0, 6e-9), min_points=n_points)
        assert grid.points.size == n_points
        lengths = phase_lengths(1)
        c, t = KERNEL(grid, lengths)
        for j in range(0, lengths.size, 7):
            c_alone, t_alone = KERNEL(grid, lengths[j : j + 1])
            assert c_alone.shape == t_alone.shape == (2, 1)
            np.testing.assert_array_equal(c_alone[:, 0], c[:, j])
            np.testing.assert_array_equal(t_alone[:, 0], t[:, j])

    def test_smallest_grid_matches_direct_reference(self):
        # a 5-point grid: m = 2 and K = 2, so level 1 (3 points) reads its b = 0 row only;
        # the flat density weighs the band edge, the outer point of both levels
        fine = sweep_grid(SpectralProfile("rectangular", LAMBDA0, 6e-9), 1, min_points=129)
        grid = MomentumGrid(fine.center, 32 * fine.step, fine.density[::32])
        assert grid.points.size == 5 and meter._factor_base(2) == 2 and grid.density[-1] > 0.0
        lengths = phase_lengths(1, UNEVEN_TAUS_AS)
        for got_values, want_values in zip(kernel_levels(grid, lengths), direct_levels(grid, lengths)):
            np.testing.assert_allclose(got_values, want_values, rtol=1e-12, atol=0.0)

    def test_factor_base_fits_every_half_grid(self):
        # the half grid m of every grid build_grid makes, 2m + 1 = 5 to MAX_GRID_POINTS:
        # K is a power of two and at least 2, so level 1 reads the even b rows,
        # and it divides m, so the coarse rows a*K land on grid points
        half_grids = [2**j for j in range(1, 21)]
        assert 2 * half_grids[-1] + 1 == MAX_GRID_POINTS
        for m in half_grids:
            base = meter._factor_base(m)
            assert base >= 2 and base & (base - 1) == 0 and m % base == 0, (m, base)

    def test_factor_base_fits_every_last_kept_slot(self):
        # the kernel takes K from the last kept slot j = 0..m of every half grid m of
        # test_factor_base_fits_every_half_grid: K is a power of two, at least 2, and divides
        # m, and the coarse rows a = 0..max(j // K, 1) are at least the power table's 2 and
        # reach slot j
        last = np.arange(MAX_GRID_POINTS // 2 + 1)
        base = np.fromiter(map(meter._factor_base, range(last.size)), int, last.size)
        assert np.all(base >= 2) and np.all(base & (base - 1) == 0)
        n_kept = np.maximum(last // base, 1) + 1
        assert np.all(n_kept >= 2) and np.all(n_kept * base > last)
        for m in (2**j for j in range(1, 21)):
            assert np.all(m % base[: m + 1] == 0), m

    @pytest.mark.parametrize("order", [2, 4, 6, 8, 12])
    def test_negligible_slots_match_full_sum(self, order, monkeypatch):
        # the slots past the last whose density is at least 2**-64 of the peak move
        # C/I by nothing and T/I by at most 1.2e-19 sigma_p (measured) against every
        # slot summed, as with the fraction at 0; K, which follows the cut, is pinned
        # on both sides to the whole half grid's, so the two sides differ in the dropped
        # coarse rows only. (At the cut's own K, 32, the order-4 grid of 32,769 points
        # keeps 285 of 513 coarse rows; OpenBLAS sums the 513-row product as 256 + 257
        # rows, so rows 256-284 enter the full sum as a partial of their own, and the two
        # sides differ by 1 or 2 ulp from that regrouping alone: the full sum with the
        # dropped slots zeroed keeps the full sum's C/I bits.)
        for width_nm in (0.05, 0.5, 6.0, 300.0):
            profile = SpectralProfile("supergaussian", LAMBDA0, width_nm * 1e-9, order=order)
            sigma_p = effective_sigma_p(profile)
            lengths = np.concatenate([[0.0], np.geomspace(1e-6, 40.0, 41) / sigma_p])
            for n_points in (129, 513, 8193, 32769):
                grid = build_grid(profile, min_points=n_points)
                base = meter._factor_base(n_points // 2)
                with monkeypatch.context() as patch:
                    patch.setattr(meter, "_factor_base", lambda last: base)
                    c, t = KERNEL(grid, lengths)
                    patch.setattr(meter, "_NEGLIGIBLE_DENSITY", 0.0)
                    c_full, t_full = KERNEL(grid, lengths)
                assert np.max(np.abs(c - c_full)) <= 1e-18
                assert np.max(np.abs(t - t_full)) <= 1e-18 * sigma_p

    def test_tail_cut_keeps_two_coarse_rows(self, monkeypatch):
        # a 5-point supergaussian grid: its slots 1 and 2, at 4 and 8 sigma_p, are both
        # below 2**-64 of the peak, and the coarse table keeps the 2 rows it needs
        fine = sweep_grid(SpectralProfile("supergaussian", LAMBDA0, 6e-9), 1, min_points=129)
        grid = MomentumGrid(fine.center, 32 * fine.step, fine.density[::32])
        assert grid.points.size == 5 and last_kept_slot(grid) == 0
        lengths = phase_lengths(1, UNEVEN_TAUS_AS)
        shapes = table_shapes(monkeypatch)
        c, t = KERNEL(grid, lengths)
        assert shapes == [(2, lengths.size), (2, lengths.size)]
        monkeypatch.setattr(meter, "_NEGLIGIBLE_DENSITY", 0.0)
        c_full, t_full = KERNEL(grid, lengths)
        np.testing.assert_array_equal(c, c_full)
        np.testing.assert_array_equal(t, t_full)

    @pytest.mark.parametrize("n_points, n_coarse, base", [pytest.param(513, 33, 8, id="513"),
                                                          pytest.param(8193, 129, 32, id="8193")])
    @pytest.mark.parametrize("shape", ["gaussian", "rectangular"])
    def test_gaussian_and_rectangle_keep_every_row(self, shape, n_points, n_coarse, base, monkeypatch):
        # the Gaussian is e**-32 of its peak at the 8 sigma_p edge, the rectangle flat: the
        # last kept slot is m, 256 (9 bits, K = 2**((9 - 3) // 2) = 8) or 4,096 (13 bits,
        # K = 32), and the kernel builds m // K + 1 coarse rows, 33 or 129
        grid = build_grid(SpectralProfile(shape, LAMBDA0, 6e-9), min_points=n_points)
        assert last_kept_slot(grid) == n_points // 2
        shapes = table_shapes(monkeypatch)
        KERNEL(grid, phase_lengths(1))
        assert [rows for rows, _ in shapes[:2]] == [n_coarse, base]

    @pytest.mark.parametrize("n_points, last, n_coarse, base", [pytest.param(513, 106, 27, 4, id="513"),
                                                                pytest.param(8193, 1707, 107, 16, id="8193")])
    def test_supergaussian_rows_follow_the_cut(self, n_points, last, n_coarse, base, monkeypatch):
        # the order-6 supergaussian keeps the slots up to 3.33 sigma_p, 106 of 256 (7 bits,
        # K = 2**((7 - 3) // 2) = 4) or 1,707 of 4,096 (11 bits, K = 16), and the kernel
        # builds 106 // 4 + 1 = 27 or 1707 // 16 + 1 = 107 coarse rows, where K from m
        # gave 33 and 129 coarse rows over the whole half grid (14 and 54 of them kept)
        grid = build_grid(SpectralProfile("supergaussian", LAMBDA0, 6e-9), min_points=n_points)
        assert grid.points.size == n_points and last_kept_slot(grid) == last
        shapes = table_shapes(monkeypatch)
        KERNEL(grid, phase_lengths(1))
        assert [rows for rows, _ in shapes[:2]] == [n_coarse, base]

    @pytest.mark.parametrize("scenario_id", ["fig3a", "fig3b", "fig4"])
    def test_sweep_csvs_match_full_sum(self, scenario_id, monkeypatch):
        # K follows the cut, so the full sum replays the K of each of the cut's kernel
        # calls, in order, and only the dropped slots differ
        config = make_config(scenario_id)
        bases = []
        factor_base = meter._factor_base

        def recording_factor_base(last):
            bases.append(factor_base(last))
            return bases[-1]

        with monkeypatch.context() as patch:
            patch.setattr(meter, "_factor_base", recording_factor_base)
            result = execute_scenario(config)
        replay = iter(bases)
        with monkeypatch.context() as patch:
            patch.setattr(meter, "_NEGLIGIBLE_DENSITY", 0.0)
            patch.setattr(meter, "_factor_base", lambda last: next(replay))
            full = execute_scenario(config)
        assert next(replay, None) is None
        assert scenarios.render_csv(result, config) == scenarios.render_csv(full, config)
        assert {k: repr(v) for k, v in result.summary.items()} == {k: repr(v) for k, v in full.summary.items()}

    def test_three_point_grid_raises(self):
        # its stride-2 subgrid has 2 points, no Simpson grid
        fine = sweep_grid(SpectralProfile("rectangular", LAMBDA0, 6e-9), 1, min_points=129)
        grid = MomentumGrid(fine.center, 64 * fine.step, fine.density[::64])
        with pytest.raises(ValueError, match="odd point count >= 3, got 2"):
            KERNEL(grid, phase_lengths(1))

    def test_fig3b_kernel_transient_memory(self, monkeypatch):
        calls = []

        def spy_kernel(grid, lengths):
            calls.append((grid, lengths))
            return KERNEL(grid, lengths)

        monkeypatch.setattr(meter, "_level_moments", spy_kernel)
        execute_scenario(make_config("fig3b"))
        ((grid, lengths),) = calls
        assert (grid.points.size, lengths.size) == (513, 15888)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            KERNEL(grid, lengths)
            transient = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the (level, L) results and one block's arrays: the ss and sc products
        # over 4 + 2 weight rows (2**14 values), which the rows' C and T overwrite,
        # the complex power tables of 27 kept coarse and 4 fine rows, the two
        # a-factor products and the 6 gathered fine rows with their square; 1.45 MiB
        # (1,519,720 B) on this call, 1.21 MiB with every slot kept (K = 8, 33 coarse
        # rows, 341-wide blocks)
        assert transient <= 1.60 * 2**20

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("width_nm", [0.05, 0.5, 6.0, 300.0])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_levels_match_direct_reference(self, shape, width_nm, n):
        profile = SpectralProfile(shape, LAMBDA0, width_nm * 1e-9)
        grid = sweep_grid(profile, n, min_points=513)
        lengths = phase_lengths(n, UNEVEN_TAUS_AS)
        got = kernel_levels(grid, lengths)
        for got_values, want_values in zip(got, direct_levels(grid, lengths)):
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
            got = kernel_levels(grid, lengths)
            for got_values, want_values in zip(got, direct_levels(grid, lengths)):
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

    @pytest.mark.parametrize("order", [4, 6, 12])
    @pytest.mark.parametrize("width_nm", [0.5, 6.0, 50.0])
    def test_supergaussian_against_gauss_legendre(self, width_nm, order):
        # the reference sums [0, 8 sigma_p] on nodes of its own, so it also checks
        # the slots the kernel drops as negligible
        profile = SpectralProfile("supergaussian", LAMBDA0, width_nm * 1e-9, order=order)
        cases = ((1, 3e-12, 0.0, 0.002), (3, 1e-10, GAMMA, 0.01), (2, 2e-11, GAMMA, 0.1),
                 (3, SPEED_OF_LIGHT * 330e-18, GAMMA, 0.002), (1, 0.0, GAMMA, 0.05))
        for n, k, gamma, rho in cases:
            settings = MwiSettings(n, k, gamma, rho)
            res = collapsed_density(profile, settings)
            prob, delta_p = supergaussian_reference(profile, settings.phase_length, rho)
            assert abs(res.postselection_probability - prob) <= 1e-12 * prob
            assert abs(res.delta_p - delta_p) <= 1e-12 * abs(delta_p)


class TestPowerTable:
    # (rows, sine's relative error where j*angle <= pi/2, absolute error anywhere), in
    # units of eps = 2**-52: the measured worst on these angles, rounded up (at 33, 129
    # and 2,049 rows 11.2/15.8, 46.8/64.3 and 771.7/1,046.5, each rounded up to two
    # significant digits). Row j's error grows about linearly in j, as row 1's
    # rounding enters it j times.
    BOUNDS = [(2, 1, 1), (16, 6, 8), (17, 6, 9), (33, 12, 16), (64, 24, 33), (65, 24, 33), (129, 47, 65),
              (1025, 390, 530), (2049, 780, 1100)]

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here")
    @pytest.mark.parametrize("rows, rel_eps, abs_eps", BOUNDS)
    def test_rows_match_long_double(self, rows, rel_eps, abs_eps):
        # row angles from 1e-12 rad (a narrow source's fine angle) to 100 rad (about
        # twice the coarse angle K*h*L/2 at the largest K, 512, with 32 grid points
        # per period of x*L)
        angles = np.geomspace(1e-12, 100.0, 601)
        table = meter._power_table(angles, rows)
        assert table.shape == (rows, angles.size)
        exact = np.arange(rows, dtype=np.longdouble)[:, np.newaxis] * angles.astype(np.longdouble)
        sin_error = np.abs(table.imag - np.sin(exact)).astype(float)
        cos_error = np.abs(table.real - np.cos(exact)).astype(float)
        eps = np.finfo(float).eps
        # every term of the doubling is positive below pi/2, so the sine keeps
        # relative accuracy at small angles; the cosine is near 1 there
        acute = (exact > 0) & (exact <= np.pi / 2)
        assert np.all(sin_error[acute] <= rel_eps * eps * np.sin(exact[acute]).astype(float))
        assert max(sin_error.max(), cos_error.max()) <= abs_eps * eps


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
        want_prob, want_delta_p = kernel_levels(build_grid(profile, min_points=513), phase_lengths(1))
        assert np.array_equal(prob, want_prob[0])
        assert np.array_equal(delta_p, want_delta_p[0])

    def test_fig3a_rectangular_matches_exact_forms(self):
        result = execute_scenario(make_config("fig3a", {"shape": "rectangular"}))
        columns = {name: np.asarray(column) for name, column in result.columns.items()}
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

        def spy_kernel(grid, lengths):
            calls.append(grid.points.size)
            return KERNEL(grid, lengths)

        monkeypatch.setattr(meter, "build_grid", spy_build_grid)
        monkeypatch.setattr(meter, "_level_moments", spy_kernel)
        config = make_config("fig3b")
        execute_scenario(config)
        assert max(sizes) <= 1025
        assert len(calls) <= 5 * int(config.params["n_widths"])

    def test_fig3b_one_trig_pass_per_width(self, monkeypatch):
        calls = []
        trig = trig_elements(monkeypatch)

        def spy_kernel(grid, lengths):
            before = sum(trig)
            result = KERNEL(grid, lengths)
            calls.append((grid.points.size, lengths.size, sum(trig) - before))
            return result

        monkeypatch.setattr(meter, "_level_moments", spy_kernel)
        shapes = table_shapes(monkeypatch)
        config = make_config("fig3b")
        execute_scenario(config)
        n_lengths = TAUS_AS.size * int(config.params["n_widths"])
        # one kernel call on the 513-point grid takes every width's taus; the density
        # stays at or above 2**-64 of its peak up to slot 106 of m = 256, and 106 has
        # 7 bits, so K = 2**((7 - 3) // 2) = 4 and the kernel builds 106 // 4 + 1 = 27
        # coarse and 4 fine table rows per tau, each table from one cos and one sin per
        # tau: 4 elements per tau reach sin and cos, where the angles of every row took
        # 66; 4 + 2 weight rows take 2**14 // (4 * 6) = 682 taus per block
        assert calls == [(513, n_lengths, 4 * n_lengths)]
        widths = [min(682, n_lengths - lo) for lo in range(0, n_lengths, 682)]
        assert shapes == [shape for width in widths for shape in ((27, width), (4, width))]


def per_job_sweep(profile, n):
    """(delta_lambda_nm, P, kernel grid sizes) of one job on its own grids: from
    a 257-point floor, double the grid until it and its stride-2 subgrid agree
    (``kernel_levels``), and keep level 0."""
    lengths = phase_lengths(n)
    sigma_p = effective_sigma_p(profile)
    widest = MwiSettings(n, SPEED_OF_LIGHT * TAUS_AS[-1] * 1e-18, GAMMA, RHO)
    n_intervals = grid_point_count(profile, widest, min_points=257) - 1
    calls = []
    for _ in range(4):
        n_intervals *= 2
        grid = build_grid(profile, min_points=n_intervals + 1)
        calls.append(grid.points.size)
        prob, delta_p = kernel_levels(grid, lengths)
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

        def spy_kernel(grid, lengths):
            calls.append(grid.points.size)
            return KERNEL(grid, lengths)

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
        assert sorted(calls) == [513, 1025, 2049, 4097]

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
        prob, delta_p = kernel_levels(sweep_grid(profile, 1, min_points=513), lengths)
        assert prob.shape == delta_p.shape == (2, lengths.size)
        for level, n_points in enumerate((513, 257)):
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
        def drifting_kernel(grid, lengths):
            # the grid and its stride-2 subgrid differ by far more than the tolerance
            level_points = (grid.points.size - 1) / np.array([1.0, 2.0]) + 1
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
