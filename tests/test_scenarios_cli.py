import importlib.util
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from wva_lab import cli, meter, scenarios
from wva_lab.cli import main
from wva_lab.errors import ConfigError, NumericalError
from wva_lab.paper import PAPER
from wva_lab.polarization import MwiSettings
from wva_lab.scenarios import (
    SCENARIOS,
    AxisColumn,
    ScenarioResult,
    _format_cell,
    execute_scenario,
    linear_region_rate,
    list_scenarios,
    make_config,
    oracle_deviation_rows,
    parse_config_text,
    peak_local_rate,
    render_csv,
    run_scenario,
)
from wva_lab.spectra import build_grid, effective_sigma_p

from direct_path import direct_collapse, literal_oracle_density

BENCH = Path(__file__).resolve().parents[1] / "bench"

EXPECTED_IDS = {
    "fig3a",
    "fig3b",
    "fig4",
    "fig5",
    "fig6",
    "s2_spectrum_evolution",
    "s3_intensity",
    "s4_weak_values",
    "oracle_suite",
}

# small overrides so the whole registry can be smoke-run quickly
FAST_OVERRIDES = {
    "fig3a": {"widths_nm": "6", "tau_max_as": 60.0, "tau_step_as": 4.0},
    "fig3b": {"n_widths": 4, "tau_max_as": 60.0, "tau_step_as": 6.0},
    "fig4": {"n_list": "1,2", "tau_max_as": 60.0, "tau_step_as": 4.0},
    "fig5": {"coherent_n_list": "1,3", "vsns_widths_nm": "3", "k_step_m": 1.5e-10},
    "fig6": {"rho_step_rad": 2e-3, "boundary_scan_step_rad": 1e-2},
    "s2_spectrum_evolution": {"tau_list_as": "0,120", "subsample_stride": 512},
    "s3_intensity": {"vsns_widths_nm": "3", "k_step_m": 1.5e-10},
    "s4_weak_values": {"n_rhos": 6},
    "oracle_suite": {
        "shapes": "gaussian",
        "n_list": "2",
        "k_list_m": "1e-12",
        "rho_list_rad": "0.002",
        "gamma_pi_list": "0,1.9",
    },
}


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row_count_cases() -> list:
    """(scenario id, overrides) at the defaults, at FAST_OVERRIDES, and at the
    benchmark's seed-1 and seed-2 sweeps and tables invocations."""
    workloads = _bench_workloads()
    cases = [pytest.param(sid, {}, id=f"{sid}-defaults") for sid in sorted(EXPECTED_IDS)]
    cases += [pytest.param(sid, sets, id=f"{sid}-fast") for sid, sets in FAST_OVERRIDES.items()]
    for workload, seed in product(("sweeps", "tables"), (1, 2)):
        cases += [pytest.param(argv[1], workloads.overrides(argv), id=f"{argv[1]}-{workload}{seed}")
                  for argv in workloads.invocations(workload, seed)]
    return cases


class TestRegistry:
    def test_expected_ids_registered(self):
        assert {sid for sid, _ in list_scenarios()} == EXPECTED_IDS

    @pytest.mark.parametrize("scenario_id, overrides", _row_count_cases())
    def test_rows_match_the_table(self, scenario_id, overrides):
        # make_config refuses a config by this count (SIZE_BUDGET) before any runner starts
        config = make_config(scenario_id, overrides)
        result = execute_scenario(config)
        assert {len(column) for column in result.columns.values()} == {SCENARIOS[scenario_id].rows(config.values)}

    def test_descriptions_present(self):
        assert all(desc for _, desc in list_scenarios())

    @pytest.mark.parametrize("scenario_id", sorted(EXPECTED_IDS))
    def test_every_scenario_runs(self, scenario_id, tmp_path):
        config = make_config(
            scenario_id, FAST_OVERRIDES[scenario_id], out_path=str(tmp_path / "out.csv")
        )
        result = execute_scenario(config)
        assert all(len(column) for column in result.columns.values())
        assert result.summary

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            make_config("fig99")


class TestConfigHandling:
    def test_parse_config_text(self):
        parsed = parse_config_text("# comment\nrho_rad = 0.01\n\nwidths_nm=1,3 # inline\n")
        assert parsed == {"rho_rad": "0.01", "widths_nm": "1,3"}

    def test_parse_rejects_bad_line(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("just words\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            make_config("fig3a", {"bogus": "1"})

    def test_type_coercion(self):
        config = make_config("fig3a", {"tau_max_as": "120", "n_interactions": "2"})
        assert config.params["tau_max_as"] == 120.0
        assert config.params["n_interactions"] == 2

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            make_config("fig3a", {"tau_max_as": "fast"})


class TestCsvOutput:
    def _result(self, scenario_id="fig6", overrides=None):
        config = make_config(scenario_id, overrides or FAST_OVERRIDES[scenario_id])
        return execute_scenario(config), config

    def test_provenance_and_header(self):
        result, config = self._result()
        text = render_csv(result, config)
        lines = text.splitlines()
        assert lines[0].startswith("# wva-lab ")
        assert lines[1] == "# scenario=fig6"
        config_lines = [ln for ln in lines if ln.startswith("# config.")]
        assert len(config_lines) == len(config.params)
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx].split(",") == list(result.columns)

    def test_rows_sorted_and_round_trip(self):
        # 12 significant digits: each cell is within half a unit in its 12th digit of its value
        result, config = self._result()
        lines = [ln for ln in render_csv(result, config).splitlines() if not ln.startswith("#")]
        body = [tuple(float(cell) for cell in ln.split(",")) for ln in lines[1:]]
        assert body == sorted(body)
        values = sorted(zip(*(map(float, np.asarray(column)) for column in result.columns.values())))
        np.testing.assert_allclose(body, values, rtol=5e-12, atol=0.0)

    def test_unitless_numeric_column_rejected(self):
        bad = ScenarioResult({"rho": np.array([0.1]), "value_1": np.array([0.2])}, {})
        with pytest.raises(ValueError, match="unit suffix"):
            render_csv(bad, make_config("fig6", FAST_OVERRIDES["fig6"]))

    def test_ragged_columns_rejected(self):
        # zip of the formatted columns would stop at the shortest and write a truncated table
        ragged = ScenarioResult({"x_1": np.arange(3.0), "y_1": np.arange(2.0)}, {})
        with pytest.raises(ValueError, match="columns differ in length"):
            render_csv(ragged, make_config("fig6", FAST_OVERRIDES["fig6"]))
        # an axis column of 2 values, each 2 times, over 6 rows
        ragged = ScenarioResult({"x_1": np.arange(6.0), "y_1": AxisColumn(np.arange(2.0), 2)}, {})
        with pytest.raises(ValueError, match="'y_1' has 4 rows, the first 6"):
            render_csv(ragged, make_config("fig6", FAST_OVERRIDES["fig6"]))

    def test_text_column_allowed(self):
        ok = ScenarioResult({"shape": ["gaussian"], "value_1": np.array([0.2])}, {})
        text = render_csv(ok, make_config("fig6", FAST_OVERRIDES["fig6"]))
        assert "gaussian,0.2" in text

    def test_all_registered_columns_carry_units(self):
        for scenario_id in sorted(EXPECTED_IDS):
            config = make_config(scenario_id, FAST_OVERRIDES[scenario_id])
            result = execute_scenario(config)
            render_csv(result, config)  # raises if a numeric column lacks units

    @staticmethod
    def _render_rows(case) -> list:
        """Rows of mixed column types for a render case: a row count n (n rows
        in reverse order of a unique first column), "tied_lead" (the
        first column, holding -0.0, 0.0 and 0.5, is in order but ties, so the
        str, bool, int and float columns decide), "sorted" (tied_lead sorted)
        and "last_pair_swapped" (sorted, then its last two rows, which differ
        only in the last column, swapped)."""
        floats = [-0.0, 5e-324, 1e16, 0.1, 1.0 / 3.0, -2.5e-300, 123456789.0, float("inf")]
        repeated = [0.5, 1.0 / 3.0, -2.5e-300, 1e16]
        if isinstance(case, int):
            return [
                (
                    case - i,  # unique first column: the sort never compares the others
                    "gaussian" if i % 3 else "rectangular",
                    i % 2 == 0,
                    np.int64(3 * i),
                    np.float64(floats[i % len(floats)]),
                    floats[(i + 3) % len(floats)],
                    np.float64(repeated[i % 3]),  # few distinct values, no zero
                    repeated[i % 4] if i % 7 else (-0.0, 0.0)[i % 2],  # repeats with both zeros
                )
                for i in range(case)
            ]
        # few distinct values per column, so rows tie on every leading prefix
        # and some rows differ only in the sign of a zero
        rng = np.random.default_rng(7)
        rows = [
            (
                (-0.0, 0.0, 0.5)[rng.integers(3)],
                ("gaussian", "rectangular")[rng.integers(2)],
                bool(rng.integers(2)),
                np.int64(rng.integers(-2, 3)),
                (-0.0, 0.0, 1.0 / 3.0, -2.5e-300)[rng.integers(4)],
            )
            for _ in range(2 * scenarios._RENDER_CHUNK_ROWS + 37)
        ]
        rows.sort(key=lambda row: row[0])  # in order by the first column alone (stable: -0.0 ties 0.0)
        if case == "tied_lead":
            return rows
        rows = sorted(rows)
        if case == "last_pair_swapped":  # last column values above all others, in reverse order
            rows += [(*rows[-1][:-1], 3.0), (*rows[-1][:-1], 2.0)]
        return rows

    @staticmethod
    def _axis_columns(case) -> dict:
        """Columns of 2 * 1,024 + 37 = 3 * 5 * 139 rows, three of them AxisColumns (a float axis of
        3 values, each 695 times; an int axis of 5 values, each 139 times, 3 times over; a str axis
        of 139 values, 15 times over) and a float column of few distinct values.  "axes_in_order":
        the product table is in order; "axes_lexsorted": the axes' values are out of order and the
        float axis holds both 0.0 and -0.0, whose rows tie up to the last column."""
        floats, ints, texts = [-1.5, -0.0, 1.0 / 3.0], [-2, 0, 3, 5, 9], [f"s{i:03d}" for i in range(139)]
        if case == "axes_lexsorted":
            floats, ints, texts = [1.0 / 3.0, 0.0, -0.0], [3, -2, 9, 0, 5], texts[::-1]
        return {
            "float_axis_1": AxisColumn(np.array(floats), 695),
            "int_axis_1": AxisColumn(np.array(ints), 139, 3),
            "text_axis": AxisColumn(np.array(texts), 1, 15),
            "value_1": np.random.default_rng(11).choice([0.25, 0.1], 2 * scenarios._RENDER_CHUNK_ROWS + 37),
        }

    @pytest.mark.parametrize(
        "case",
        [1, scenarios._RENDER_CHUNK_ROWS, 2 * scenarios._RENDER_CHUNK_ROWS + 37,
         "tied_lead", "sorted", "last_pair_swapped", "axes_in_order", "axes_lexsorted"],
    )
    def test_column_render_matches_per_cell_reference(self, case, monkeypatch):
        if str(case).startswith("axes"):
            columns = self._axis_columns(case)
            rows = list(zip(*(np.asarray(column).tolist() for column in columns.values())))
        else:
            rows = self._render_rows(case)
            names = ("index_1", "shape", "flag_1", "count_1", "numpy_1", "python_1", "repeated_1", "zeros_1")
            columns = {
                name: list(values) if isinstance(values[0], str) else np.array(values)
                for name, values in zip(names[: len(rows[0])], zip(*rows))
            }
        if case in ("sorted", "axes_in_order"):  # a table already in order is not sorted again
            monkeypatch.setattr(np, "lexsort", None)
        result = ScenarioResult(columns, {})
        config = make_config("fig6", FAST_OVERRIDES["fig6"])
        assert render_csv(result, config) == self._per_cell_reference(columns, rows, config)

    @staticmethod
    def _per_cell_reference(names, rows: list, config) -> str:
        """The CSV of ``rows`` under the column ``names``, written cell by cell: rows in the order
        ``sorted`` gives, a float at the declared 12 significant digits (with the sign of a zero),
        any other cell by ``_format_cell``."""

        def cell(value):
            return "%.12g" % value if isinstance(value, float) else _format_cell(value)

        reference = [f"# wva-lab {scenarios._pkg_version}", f"# scenario={config.scenario_id}"]
        reference += [f"# config.{key}={_format_cell(config.params[key])}" for key in sorted(config.params)]
        reference.append(",".join(names))
        reference += [",".join(map(cell, row)) for row in sorted(rows)]
        return "\n".join(reference) + "\n"

    @pytest.mark.parametrize(
        "scenario_id, overrides",
        [pytest.param(scenario_id, overrides, id=f"{scenario_id}-fast") for scenario_id, overrides in FAST_OVERRIDES.items()]
        + [pytest.param("fig3b", {}, id="fig3b-defaults"), pytest.param("oracle_suite", {}, id="oracle_suite-defaults")],
    )
    def test_runner_tables_match_per_cell_reference(self, scenario_id, overrides):
        config = make_config(scenario_id, overrides)
        result = execute_scenario(config)
        rows = list(zip(*(np.asarray(column).tolist() for column in result.columns.values())))
        if not overrides and scenario_id == "fig3b":  # 15 full chunks and a short last one
            assert divmod(len(rows), scenarios._RENDER_CHUNK_ROWS) == (15, 432)
        if not overrides and scenario_id == "oracle_suite":  # the one default table render_csv sorts
            assert rows != sorted(rows)
        assert render_csv(result, config) == self._per_cell_reference(result.columns, rows, config)

    def test_percent_texts_render_literally(self):
        # a text cell is an argument of the chunk's one %, never part of its template
        texts = ["%s", "%%", "100%", "%(x)s", "%.12g"]
        size = 2 * scenarios._RENDER_CHUNK_ROWS + 37  # two full chunks and a short last one
        columns = {
            "label": AxisColumn(np.array(texts), 1, size // len(texts)),
            "note": [f"{texts[i % 3]}{i % 4}%" for i in range(size)],
            "value_1": np.arange(size) / 7.0,
        }
        config = make_config("fig6", FAST_OVERRIDES["fig6"])
        rows = list(zip(*(np.asarray(column).tolist() for column in columns.values())))
        text = render_csv(ScenarioResult(columns, {}), config)
        assert text == self._per_cell_reference(columns, rows, config)
        assert "\n%(x)s,%s3%,0.428571428571\n" in text  # row 3

    @pytest.mark.parametrize(
        "scenario_id, overrides",
        [pytest.param(scenario_id, overrides, id=scenario_id) for scenario_id, overrides in FAST_OVERRIDES.items()]
        + [
            pytest.param("fig4", {**FAST_OVERRIDES["fig4"], "n_list": "3,1,2"}, id="fig4-n_list=3,1,2"),
            pytest.param("fig3a", {**FAST_OVERRIDES["fig3a"], "widths_nm": "6,0.5,3"}, id="fig3a-widths_nm=6,0.5,3"),
            pytest.param("oracle_suite", {**FAST_OVERRIDES["oracle_suite"], "shapes": "supergaussian,gaussian"},
                         id="oracle_suite-shapes=supergaussian,gaussian"),
        ],
    )
    def test_axis_columns_render_as_their_arrays(self, scenario_id, overrides):
        config = make_config(scenario_id, overrides)
        result = execute_scenario(config)
        assert any(isinstance(column, AxisColumn) for column in result.columns.values())
        arrays = {name: np.asarray(column) for name, column in result.columns.items()}
        assert render_csv(result, config) == render_csv(replace(result, columns=arrays), config)

    def test_fig3b_formats_each_axis_value_once(self, monkeypatch):
        config = make_config("fig3b")
        result = execute_scenario(config)
        counts, axis_texts = [], scenarios._axis_texts

        def spy(values):
            counts.append(values.size)
            return axis_texts(values)

        monkeypatch.setattr(scenarios, "_axis_texts", spy)
        render_csv(result, config)
        assert counts == [48, 329]  # 377 texts, where the two axis columns hold 2 * 15,792 cells

    def test_fig3b_render_peak_memory(self):
        config = make_config("fig3b")
        result = execute_scenario(config)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            text = render_csv(result, config)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # two copies of the text are alive at the end, the chunk strings and their
        # one join, beside one chunk's cells and template (2.12 times the text);
        # adding the last newline after the join would take a third (3.12)
        assert peak < 2.5 * len(text)

    def test_byte_determinism(self, tmp_path):
        for scenario_id in ("fig6", "s4_weak_values", "fig3a"):
            config = make_config(scenario_id, FAST_OVERRIDES[scenario_id])
            first = render_csv(execute_scenario(config), config)
            second = render_csv(execute_scenario(config), config)
            assert first == second

    @pytest.mark.parametrize("scenario_id", ["fig3a", "fig5", "oracle_suite"])
    def test_rerun_columns_bit_identical(self, scenario_id):
        # the CSV's 12 significant digits hide a 1-ulp move, so a rerun is
        # compared on the arrays, floats by their bits, and the exact summaries
        config = make_config(scenario_id, FAST_OVERRIDES[scenario_id])
        first, second = execute_scenario(config), execute_scenario(config)
        assert list(first.columns) == list(second.columns)
        for name in first.columns:
            a, b = np.asarray(first.columns[name]), np.asarray(second.columns[name])
            assert a.dtype == b.dtype, name
            if a.dtype.kind == "f":
                a, b = a.view(np.int64), b.view(np.int64)
            assert np.array_equal(a, b), name
        assert {k: repr(v) for k, v in first.summary.items()} == {k: repr(v) for k, v in second.summary.items()}


class TestRateExtraction:
    def test_linear_region_rate_recovers_straight_line(self):
        taus = np.linspace(0.0, 10.0, 21)
        values = 0.7 * taus - 2.0
        assert linear_region_rate(taus, values) == pytest.approx(0.7, rel=1e-12)

    def test_constant_trace_has_no_rate(self):
        # argmin == argmax only on a constant trace: its rate is 0, which gives no precision
        taus = np.linspace(0.0, 10.0, 21)
        values = np.full(taus.size, 0.25)
        assert linear_region_rate(taus, values) == 0.0
        with pytest.raises(NumericalError, match="no precision"):
            scenarios._rate_summary({}, "w", taus, values, 1e-12)

    def test_peak_local_rate_on_quadratic(self):
        taus = np.linspace(0.0, 10.0, 21)
        values = taus**2
        # central differences of t^2 peak at the last interior point
        assert peak_local_rate(taus, values) == pytest.approx(2 * taus[-2], rel=1e-12)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for sid in EXPECTED_IDS:
            assert sid in out

    def test_run_writes_csv_and_summary(self, tmp_path, capsys):
        out_file = tmp_path / "fig6.csv"
        code = main(
            ["run", "fig6", "--out", str(out_file)]
            + [f"--set={k}={v}" for k, v in FAST_OVERRIDES["fig6"].items()]
        )
        assert code == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert f"csv={out_file}" in out
        assert "k31_n3_rho0.0124=" in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_set_exits_2(self, capsys):
        assert main(["run", "fig6", "--set", "nope"]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        assert main(["run", "fig6", "--set", "bogus=1", "--out", str(tmp_path / "x.csv")]) == 2

    def test_config_file_and_set_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("rho_step_rad=2e-3\nboundary_scan_step_rad=1e-2\nrho_max_rad=0.01\n")
        out_file = tmp_path / "fig6.csv"
        code = main(
            [
                "run",
                "fig6",
                "--config",
                str(cfg),
                "--set",
                "rho_max_rad=0.0124",  # --set wins over the file
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        assert "# config.rho_max_rad=0.0124" in out_file.read_text()

    @pytest.mark.parametrize(
        "scenario_id, setting",
        [
            ("fig6", "rho_step_rad=0"),
            ("fig3a", "tau_step_as=nan"),
            ("fig3a", "tau_max_as=inf"),
            ("fig3a", "tau_max_as=1"),
            ("fig5", "k_step_m=nan"),
            ("fig3b", "n_widths=0"),
            ("fig4", "n_list=0"),
            ("fig3a", "widths_nm=-1"),
            ("s4_weak_values", "n_rhos=0"),
            ("fig6", "rho_min_rad=0"),
            ("fig6", "rho_max_rad=1.6"),
            ("fig5", "rho_rad=-1"),
            ("fig3a", "rho_rad=2"),
            ("fig3b", "rho_rad=0"),
            ("fig4", "rho_rad=1.6"),
            ("s2_spectrum_evolution", "rho_rad=0"),
            ("s3_intensity", "rho_rad=-0.1"),
            ("s4_weak_values", "rho_max_rad=2"),
            ("oracle_suite", "rho_list_rad=0.002,0"),
            ("oracle_suite", "shapes="),
            ("fig3a", "gamma_pi_units=-1"),
            ("fig3a", "spectrometer_resolution_m=0"),
            ("fig3a", "spectrometer_resolution_m=-1"),
            ("fig4", "spectrometer_resolution_m=0"),
            ("fig3b", "band_threshold=2"),
            ("fig5", "noise_floor_V=0"),
            ("s3_intensity", "noise_floor_V=0"),
            ("s4_weak_values", "noise_floor_V=0"),
            ("fig5", "delta_i_coherent_V=0"),
            ("fig5", "target_delta_k_n3_fm=0"),
            ("s3_intensity", "target_delta_k_n3_fm=0"),
            ("s4_weak_values", "target_delta_k_n3_fm=0"),
            ("fig5", "reference_k_m=0"),
            ("fig6", "probe_sigma_p_rad_per_m=-1"),
            ("fig6", "boundary_scan_max_rad=0.0001"),
            ("s4_weak_values", "probe_k_m=0"),
            ("s4_weak_values", "probe_sigma_p_rad_per_m=-1"),
            ("s4_weak_values", "anomalous_target=0"),
            ("s3_intensity", "delta_i_1_V=0"),
            ("fig3a", "widths_nm=6,6.0000001"),
            ("fig4", "n_list=1,1"),
            ("fig4", "n_list=1,1.5"),
            ("fig5", "coherent_n_list=1,1"),
            ("fig5", "vsns_widths_nm=3,3"),
            ("fig6", "n_list=1,1"),
            ("s3_intensity", "vsns_widths_nm=0.5,0.5"),
            ("s3_intensity", "vsns_widths_nm=0"),
            ("s2_spectrum_evolution", "tau_list_as=0,0"),
            ("s4_weak_values", "n_list=1,1"),
            ("oracle_suite", "n_list=1,1"),
            ("oracle_suite", "shapes=gaussian,gaussian"),
            ("fig3b", "width_max_nm=0.5"),
            ("s4_weak_values", "rho_max_rad=0.002"),
            # the suite's gates are constants, not config keys: setting one names an unknown key
            ("oracle_suite", "oracle_tolerance=-1"),
            ("oracle_suite", "prob_tolerance=-1"),
            ("oracle_suite", "shift_tolerance=-1"),
            # no Gaussian case with gamma = 0 and k != 0: the closed-form check would compare nothing
            ("oracle_suite", "shapes=supergaussian"),
            ("oracle_suite", "k_list_m=0"),
            ("oracle_suite", "gamma_pi_list=1.9"),
        ],
    )
    def test_bad_value_exits_2_without_csv(self, scenario_id, setting, tmp_path, capsys):
        out_file = tmp_path / "out.csv"
        assert main(["run", scenario_id, "--set", setting, "--out", str(out_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert setting.split("=", 1)[0] in err  # the message names the key to fix
        assert not out_file.exists()

    def test_numerical_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def failing_runner(params):
            raise NumericalError("quadrature did not converge")

        monkeypatch.setitem(SCENARIOS, "fig6", replace(SCENARIOS["fig6"], runner=failing_runner))
        out_file = tmp_path / "out.csv"
        assert main(["run", "fig6", "--out", str(out_file)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "column, value, in_axis",
        [
            pytest.param("delta_lambda_nm", np.nan, False, id="delta_lambda_nm-nan"),
            pytest.param("sigma_lambda_nm", np.inf, False, id="sigma_lambda_nm-inf"),
            pytest.param("sigma_lambda_nm", np.inf, True, id="sigma_lambda_nm-inf-in-axis-values"),
        ],
    )
    def test_non_finite_value_exits_3_without_csv(self, column, value, in_axis, tmp_path, monkeypatch, capsys):
        # a NaN in a value column, or an inf in a repeated coordinate column:
        # every row that holds the column's last value (for sigma_lambda_nm, a whole width),
        # as an array or as the last of an AxisColumn's values
        run_fig3a = SCENARIOS["fig3a"].runner

        def runner(values):
            result = run_fig3a(values)
            if in_axis:
                axis = result.columns[column]
                bad = AxisColumn(np.append(axis.values[:-1], value), axis.inner, axis.outer)
            else:
                bad = np.asarray(result.columns[column]).copy()
                bad[bad == bad[-1]] = value
            return replace(result, columns={**result.columns, column: bad})

        monkeypatch.setitem(SCENARIOS, "fig3a", replace(SCENARIOS["fig3a"], runner=runner))
        out_file = tmp_path / "out.csv"
        argv = ["run", "fig3a", "--out", str(out_file)]
        for key, setting in FAST_OVERRIDES["fig3a"].items():
            argv += ["--set", f"{key}={setting}"]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not out_file.exists()

    def test_failed_render_leaves_no_csv(self, tmp_path, monkeypatch):
        def failing_render(result, config):
            raise ValueError("numeric column lacks a unit suffix")

        monkeypatch.setattr(scenarios, "render_csv", failing_render)
        out_file = tmp_path / "out.csv"
        config = make_config("s4_weak_values", FAST_OVERRIDES["s4_weak_values"], out_path=str(out_file))
        with pytest.raises(ValueError, match="unit suffix"):
            run_scenario(config)
        assert not out_file.exists()

    def test_closed_form_underflow_measured_against_sigma_p(self, tmp_path, capsys):
        # sigma_p * L = 47 for k = 3e-3: the Gaussian closed-form shift underflows
        # to 0, and the check measures the quadrature's shift against sigma_p.
        # The run reaches the oracle and writes its table; it exits 3 on
        # pass=false, as it does today (the oracle's 1e-10 gate fails at this
        # N k, ROADMAP item 8).
        out_file = tmp_path / "o.csv"
        code = main(
            ["run", "oracle_suite", "--set", "k_list_m=0,1e-12,1e-10,3e-3", "--out", str(out_file)]
        )
        out, err = capsys.readouterr()
        summary = dict(line.split("=", 1) for line in out.splitlines())
        assert err == "" and out_file.exists()
        assert code == (0 if summary["pass"] == "true" else 3)
        assert float(summary["closed_form_shift_worst_rel_dev"]) <= 1e-6

    def test_zero_probability_is_a_table_value(self, tmp_path, capsys):
        # at k = 0, sigma_p = 0 and rho = 1e-170 the exact probability
        # sin^2(rho) underflows to 0: fig6 writes K31 = 2 P (1 - Im W) = -0.0
        # there, as a value, instead of stopping
        out_file = tmp_path / "fig6.csv"
        settings = ("probe_k_m=0", "rho_min_rad=1e-170", "rho_max_rad=1e-3", "rho_step_rad=1e-4")
        argv = ["run", "fig6", "--out", str(out_file)]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out_file.read_text().splitlines() if not line.startswith("#")]
        column = rows[0].index("k31_exact_1")
        assert [row[column] for row in rows[1:] if row[1] == "1e-170"] == ["-0"] * 3

    @pytest.mark.parametrize(
        ("scenario_id", "setting", "message"),
        [
            ("fig5", "rho_rad=1e-170", "baseline intensity 0.0 at k = 0: no relative shift"),
            ("s3_intensity", "rho_rad=1e-170", "baseline intensity 0.0 at k = 0: no relative shift"),
            ("s4_weak_values", "rho_min_rad=1e-170", "signal 0.0 V has no signal-to-noise ratio"),
        ],
    )
    def test_closed_form_check_exits_3_without_csv(self, scenario_id, setting, message, tmp_path, capsys):
        # sin^2(rho) underflows to 0: the checks of the array closed forms still stop the run
        out_file = tmp_path / "out.csv"
        assert main(["run", scenario_id, "--set", setting, "--out", str(out_file)]) == 3
        assert capsys.readouterr().err == f"numerical failure: {message}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize(
        ("scenario_id", "setting", "key"),
        [
            ("fig5", "delta_i_05_V=1e308", "w0.5nm.delta_k_fm"),
            ("s3_intensity", "delta_i_coherent_V=1e-320", "w0.5nm.delta_k_fm"),
            ("fig3a", "spectrometer_resolution_m=1e300", "preset.spectrometer_resolution_pm"),
            ("fig4", "spectrometer_resolution_m=1e300", "n1.delta_tau_as"),
        ],
    )
    def test_non_finite_summary_exits_3_without_csv(self, scenario_id, setting, key, tmp_path, capsys):
        # a finite table whose summary overflows (a precision from a huge noise
        # or a tiny rate) must not print inf with exit 0
        out_file = tmp_path / "out.csv"
        assert main(["run", scenario_id, "--set", setting, "--out", str(out_file)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"numerical failure: scenario {scenario_id} produced a non-finite summary value {key}=inf\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("scenario_id", ["fig5", "s3_intensity"])
    @pytest.mark.parametrize("key", ["delta_i_05_V", "delta_i_1_V", "delta_i_3_V"])
    def test_subnormal_intensity_precision_exits_3_without_csv(self, scenario_id, key, tmp_path, capsys):
        # delta_k = 1e-300 V / dI/dk puts delta_tau = delta_k / c below the normal float range: the
        # intensity pointer's precision follows the momentum pointer's rule (metrology.precision)
        out_file = tmp_path / "out.csv"
        assert main(["run", scenario_id, "--set", f"{key}=1e-300", "--out", str(out_file)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: precision delta_tau = ") and err.count("\n") == 1
        assert err.endswith(" s is below the normal float range\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("scenario_id", ["fig5", "s3_intensity", "s4_weak_values"])
    def test_overflowing_intensity_scale_exits_3_without_csv(self, scenario_id, tmp_path, capsys):
        # a 1e-315 m target puts i_init = delta_I / target / slope past the float range: the run
        # names the key that set it, not a precision or a value derived from it
        out_file = tmp_path / "out.csv"
        assert main(["run", scenario_id, "--set", "target_delta_k_n3_fm=1e-300", "--out", str(out_file)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: target_delta_k_n3_fm = 1e-300 fm gives the intensity scale ")
        assert err.endswith(" V, not a finite positive value\n") and err.count("\n") == 1
        assert not out_file.exists()

    def test_overflowing_n_k_exits_3_without_csv(self, tmp_path, capsys):
        # N*k = 262144 x 1e304 overflows where k does not; the closed-form check still names the
        # first case whose phase is not finite (N = 1, k = 1e304), with no traceback
        out_file = tmp_path / "out.csv"
        argv = ["run", "oracle_suite", "--set", "n_list=1,262144", "--set", "k_list_m=0,1e-12,1e304"]
        assert main(argv + ["--out", str(out_file)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: postselection phase L*p0 + 2 rho = inf for L = 1e+304 m: no probability\n"
        assert not out_file.exists()

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["run", "fig6", "--config", "/nonexistent/cfg.txt"]) == 2

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"rho_min_rad=0.002\n\xff\xfe\n")
        out_file = tmp_path / "s4.csv"
        assert main(["run", "s4_weak_values", "--config", str(cfg), "--out", str(out_file)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: cannot read config file {str(cfg)!r}: ")
        assert err.count("\n") == 1
        assert not out_file.exists()

    @pytest.mark.parametrize("target", ["missing_dir/s4.csv", "."])
    def test_unwritable_out_exits_2_without_summary(self, target, tmp_path, capsys):
        out_path = str(tmp_path / target)
        assert main(["run", "s4_weak_values", "--set", "n_rhos=6", "--out", out_path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: cannot write output file {out_path!r}: ")
        assert err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == []

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_import_builds_no_parser(self):
        # A fresh interpreter: importing the CLI builds no parser (set-up time
        # stays import only), the first main() call builds it, and later calls
        # reuse it.
        code = (
            "import argparse, contextlib, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import wva_lab.cli\n"
            "counts = [len(built)]\n"
            "for _ in range(2):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        wva_lab.cli.main(['list'])\n"
            "    counts.append(len(built))\n"
            "print(counts)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        counts = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert counts.stdout == "[0, 4, 4]\n"  # the main parser and its three subcommands

    def test_overrides_do_not_leak_between_calls(self, tmp_path, capsys):
        paths = [tmp_path / name for name in ("set.csv", "plain.csv", "default.csv")]
        assert main(["run", "s4_weak_values", "--set", "rho_min_rad=0.003", "--out", str(paths[0])]) == 0
        assert main(["run", "s4_weak_values", "--out", str(paths[1])]) == 0
        run_scenario(make_config("s4_weak_values", out_path=str(paths[2])))
        overridden, plain, default = (path.read_bytes() for path in paths)
        assert b"# config.rho_min_rad=0.003\n" in overridden
        assert plain == default != overridden

    def test_usage_error_between_runs(self, tmp_path, capsys):
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        assert main(["run", "s4_weak_values", "--set", "n_rhos=6", "--out", str(paths[0])]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc_info:
            main(["run"])
        assert exc_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: wva-lab run ")
        assert main(["run", "s4_weak_values", "--set", "n_rhos=6", "--out", str(paths[1])]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_failed_suite_exits_3(self, tmp_path, monkeypatch, capsys):
        # the one non-zero exit that writes its CSV: the deviation table is the diagnostic
        monkeypatch.setattr(scenarios, "_ORACLE_TOLERANCE", 1e-30)
        out_file = tmp_path / "o.csv"
        code = main(
            [
                "run",
                "oracle_suite",
                "--set",
                "shapes=gaussian",
                "--set",
                "n_list=1",
                "--set",
                "k_list_m=1e-12",
                "--set",
                "rho_list_rad=0.002",
                "--set",
                "gamma_pi_list=0",
                "--out",
                str(out_file),
            ]
        )
        assert code == 3
        assert out_file.exists()
        assert "pass=false" in capsys.readouterr().out

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8: the collapsed density is not exact near its zeros "
                       "(deviation 9.376e-9 at gamma = 2 pi against the 1e-10 gate)")
    def test_suite_passes_at_every_gamma(self, tmp_path):
        argv = ["run", "oracle_suite", "--set", "gamma_pi_list=0,2.0", "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8: the collapsed density and the oracle part at large N*k "
                       "(deviation 5.60e-7 at k = 2.5e-3 m against the 1e-10 gate)")
    def test_suite_passes_at_large_nk(self, tmp_path):
        argv = ["run", "oracle_suite", "--set", "k_list_m=0,1e-12,2.5e-3", "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 0

    def test_run_scenario_prints_summary(self, tmp_path, capsys):
        config = make_config(
            "s4_weak_values", FAST_OVERRIDES["s4_weak_values"], out_path=str(tmp_path / "s4.csv")
        )
        result = run_scenario(config)
        out = capsys.readouterr().out
        assert "rho_star_inferred=true" in out
        assert result.summary["weak_value_at_rho_star_1"] == pytest.approx(1478.0, rel=1e-12)


FUZZ_VALUES = ("0", "-1", "1e300", "1e-300", "nan", "x", "1,1", "", "1e-320", "5e-324", "1e308", "-1e308")


class _ReadRecorder(dict):
    """A runner's values that record which keys it reads."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestSchema:
    @pytest.mark.parametrize("scenario_id", sorted(EXPECTED_IDS))
    def test_fuzzed_keys_exit_cleanly(self, scenario_id, tmp_path, capsys):
        """Each key set to each of FUZZ_VALUES on top of FAST_OVERRIDES exits
        0, 2 or 3 (a traceback fails the test); exit 2 prints one config
        error naming the key, and a non-zero exit leaves no CSV unless it is
        a failed oracle_suite."""
        out_file = tmp_path / "out.csv"
        failures = []
        for key in SCENARIOS[scenario_id].schema:
            for value in FUZZ_VALUES:
                sets = {**FAST_OVERRIDES[scenario_id], key: value}
                argv = ["run", scenario_id, "--out", str(out_file)] + [f"--set={k}={v}" for k, v in sets.items()]
                out_file.unlink(missing_ok=True)
                code = main(argv)
                out, err = capsys.readouterr()
                failed_suite = scenario_id == "oracle_suite" and code == 3 and "pass=false" in out
                if code not in (0, 2, 3):
                    failures.append((key, value, f"exit {code}"))
                elif code == 2 and not (err.startswith("config error: ") and err.count("\n") == 1 and key in err):
                    failures.append((key, value, err))
                elif code != 0 and out_file.exists() and not failed_suite:
                    failures.append((key, value, "left a CSV"))
        assert not failures

    @pytest.mark.parametrize("scenario_id", sorted(EXPECTED_IDS))
    def test_every_declared_key_is_read(self, scenario_id):
        spec = SCENARIOS[scenario_id]
        values = _ReadRecorder(make_config(scenario_id, FAST_OVERRIDES[scenario_id]).values)
        spec.runner(values)
        read = set(values.read)
        for name in values.read & spec.axes.keys():
            read.update(filter(None, spec.axes[name][1:4]))  # an axis reads its lo, hi and n keys
        assert set(spec.schema) - read == set()


class TestOracleRows:
    """``oracle_deviation_rows``, through ``meter.oracle_deviations``, shares
    grids, phases and densities between cases; each row must equal the
    deviation computed the long way, one grid per case."""

    @staticmethod
    def _reference_rows(values):
        rows = []
        for case in scenarios.oracle_case_matrix(values):
            shape, width_nm, n, k, rho, gamma_pi = case
            profile = scenarios._profile(values, width_nm, shape)
            settings = MwiSettings(n, k, scenarios._gamma_length(gamma_pi), rho)
            grid = build_grid(profile, settings)  # the case's grid, whatever collapsed_density's guard accepts
            d = direct_collapse(grid, settings.phase_length, settings.rho)
            amp_h = meter._oracle_amplitude(grid.points, settings)
            o = literal_oracle_density(meter._oracle_factor(amp_h, settings.rho), np.sqrt(grid.density))
            mask = d > 1e-15 * float(d.max())
            rows.append((*case, float(np.max(np.abs(d[mask] - o[mask]) / d[mask]))))
        return rows

    @staticmethod
    def _spy_build_grid(monkeypatch):
        sizes = []

        def spy(*args, **kwargs):
            grid = build_grid(*args, **kwargs)
            sizes.append(grid.points.size)
            return grid

        monkeypatch.setattr(meter, "build_grid", spy)
        return sizes

    @staticmethod
    def _spy_evaluations(monkeypatch):
        """Record each oracle phase as (points, L), each half-phase sine as
        (points, L, rho), with the (points, L) of the phase taken last, each
        oracle factor as (phase, rho) and each deviation as (sine, factor,
        density), arrays by the hash of their bytes."""
        calls = {"phase": [], "sine": [], "factor": [], "deviation": []}
        amplitude, half_phase, factor, deviation = (
            meter._oracle_amplitude, meter._half_phase_of, meter._oracle_factor, meter._oracle_deviation)

        def spy_amplitude(points, settings):
            calls["phase"].append((hash(points.tobytes()), settings.phase_length))
            return amplitude(points, settings)

        def spy_half_phase(scaled, rho, out=None):
            calls["sine"].append((*calls["phase"][-1], rho))
            return half_phase(scaled, rho, out=out)

        def spy_factor(amp_h, rho):
            calls["factor"].append((hash(amp_h.tobytes()), rho))
            return factor(amp_h, rho)

        def spy_deviation(s, f, density, root_density, mask):
            calls["deviation"].append((hash(s.tobytes()), hash(f.tobytes()), hash(density.tobytes())))
            return deviation(s, f, density, root_density, mask)

        monkeypatch.setattr(meter, "_oracle_amplitude", spy_amplitude)
        monkeypatch.setattr(meter, "_half_phase_of", spy_half_phase)
        monkeypatch.setattr(meter, "_oracle_factor", spy_factor)
        monkeypatch.setattr(meter, "_oracle_deviation", spy_deviation)
        return calls

    def test_default_matrix_one_grid_per_shape(self, monkeypatch):
        values = make_config("oracle_suite").values
        expected = self._reference_rows(values)
        sizes = self._spy_build_grid(monkeypatch)
        calls = self._spy_evaluations(monkeypatch)
        rows = oracle_deviation_rows(values)
        assert len(rows) == 162
        assert rows == expected
        assert sizes == [8193, 8193, 8193]
        # 14 phase lengths (k = 0 repeats across N) per set of grid points
        # (gaussian and supergaussian share theirs, rectangular has its own);
        # x 3 rho for the sines and factors, which the two shapes on one set
        # share; x the shapes on the set for the deviations
        assert len(calls["phase"]) == len(set(calls["phase"])) == 28
        assert len(calls["sine"]) == len(set(calls["sine"])) == 84
        assert len(calls["factor"]) == 84  # at L = 0 both sets of points give the same phase
        assert len(calls["deviation"]) == len(set(calls["deviation"])) == 126

    @pytest.mark.parametrize("sets", [
        {},
        {"gamma_pi_list": "0,2.0"},
        {"k_list_m": "0,1e-12,2.5e-3"},  # 16,385-point grids
        {"sigma_lambda_nm": "0.5"},
        {"order": "10"},
        {"rho_list_rad": "0.001,0.3,1.2"},
        {"n_list": "1,5", "sigma_lambda_nm": "30"},
    ], ids=["default", "gamma", "large_nk", "narrow", "order10", "rho", "n5_30nm"])
    def test_rows_equal_case_by_case_reference(self, sets):
        # the shared buffers, the crop at exact zeros and the squared projection keep every
        # deviation's bits: each row equals its case computed alone, with the literal complex |z|^2
        values = make_config("oracle_suite", sets).values
        expected = self._reference_rows(values)
        rows = oracle_deviation_rows(values)
        assert [row[:-1] for row in rows] == [row[:-1] for row in expected]
        assert np.array([row[-1] for row in rows]).tobytes() == np.array([row[-1] for row in expected]).tobytes()

    def test_one_grid_per_point_count(self, monkeypatch):
        # N k = 7.5e-3 m needs twice the 8,193-point floor on the 8-sigma span
        values = make_config(
            "oracle_suite",
            {"shapes": "supergaussian", "n_list": "1,3", "k_list_m": "1e-12,2.5e-3", "gamma_pi_list": "0"},
        ).values
        expected = self._reference_rows(values)
        sizes = self._spy_build_grid(monkeypatch)
        assert oracle_deviation_rows(values) == expected
        assert sorted(sizes) == [8193, 16385]

    def test_two_shapes_share_a_large_grid_of_points(self, monkeypatch):
        # 16,385-point grids: numpy elides a temporary this large into an
        # in-place op, which moves the oracle's bits unless the matrix forms
        # the oracle factor as the reference does
        values = make_config(
            "oracle_suite",
            {"shapes": "gaussian,supergaussian", "n_list": "1,3", "k_list_m": "1e-12,2.5e-3",
             "gamma_pi_list": "0"},
        ).values
        expected = self._reference_rows(values)
        sizes = self._spy_build_grid(monkeypatch)
        calls = self._spy_evaluations(monkeypatch)
        assert oracle_deviation_rows(values) == expected
        assert sorted(sizes) == [8193, 8193, 16385, 16385]
        assert (len(calls["factor"]), len(calls["deviation"])) == (12, 24)

    def test_repeated_phase_lengths_evaluated_once(self, monkeypatch):
        # distinct entries, repeated N*k: 1 x 2e-12 is bitwise 2 x 1e-12
        values = make_config("oracle_suite", {"n_list": "1,2", "k_list_m": "0,1e-12,2e-12"}).values
        expected = self._reference_rows(values)
        # gaussian and supergaussian grids share their points, so one phase,
        # sine and factor serve both
        points = {
            shape: build_grid(scenarios._profile(values, 6.0, shape)).points.tobytes()
            for shape in ("gaussian", "supergaussian", "rectangular")
        }
        assert len({points["gaussian"], points["supergaussian"], points["rectangular"]}) == 2
        distinct = set()
        for shape, width_nm, n, k, rho, gamma_pi in scenarios.oracle_case_matrix(values):
            settings = MwiSettings(n, k, scenarios._gamma_length(gamma_pi), rho)
            distinct.add((shape, settings.phase_length, rho))
        calls = self._spy_evaluations(monkeypatch)
        rows = oracle_deviation_rows(values)
        assert len(rows) == 108
        assert rows == expected
        assert len(distinct) == 72
        assert len(calls["deviation"]) == len(set(calls["deviation"])) == len(distinct)
        by_points = {(points[s], length, rho) for s, length, rho in distinct}
        assert len(calls["sine"]) == len(calls["factor"]) == len(by_points) == 48
        assert len(calls["phase"]) == len({(p, length) for p, length, _ in by_points}) == 16

    def test_point_count_once_per_profile_and_length(self, monkeypatch):
        # the grouping looks up each case's grid point count once per distinct
        # (profile, L): 3 shapes x 14 phase lengths for the 162 default cases
        values = make_config("oracle_suite").values
        expected = self._reference_rows(values)
        calls, count = [], meter.grid_point_count

        def spy(profile, settings):
            calls.append((profile, settings.phase_length))
            return count(profile, settings)

        monkeypatch.setattr(meter, "grid_point_count", spy)
        assert oracle_deviation_rows(values) == expected
        assert len(calls) == len(set(calls)) == 42

    def test_shuffled_cases_give_the_same_deviations(self):
        # repeated N*k (1 x 2e-12 is bitwise 2 x 1e-12, k = 0 at every N) and two
        # shapes on one set of points put several cases in each (points, L, rho)
        # group; the grouping must not depend on the order the cases come in
        values = make_config("oracle_suite", {"n_list": "1,2", "k_list_m": "0,1e-12,2e-12"}).values
        cases = [(scenarios._profile(values, width_nm, shape), MwiSettings(n, k, scenarios._gamma_length(gamma_pi), rho))
                 for shape, width_nm, n, k, rho, gamma_pi in scenarios.oracle_case_matrix(values)]
        cases += cases[::7]  # some cases twice: a repeat joins its original's group
        order = np.random.default_rng(0).permutation(len(cases))
        in_order = np.array(meter.oracle_deviations(cases))
        shuffled = np.array(meter.oracle_deviations([cases[i] for i in order]))
        assert shuffled.tobytes() == in_order[order].tobytes()

    def test_oracle_phase_is_the_complex_exponential(self, monkeypatch):
        # the phase filled from cos and sin of (0.5 L) p equals exp(0.5j L p)
        # bit for bit on every (points, L) pair of the default matrix
        pairs, amplitude = {}, meter._oracle_amplitude

        def spy(points, settings):
            amp_h = amplitude(points, settings)
            pairs[(points.tobytes(), settings.phase_length)] = (points, settings.phase_length, amp_h)
            return amp_h

        monkeypatch.setattr(meter, "_oracle_amplitude", spy)
        oracle_deviation_rows(make_config("oracle_suite").values)
        assert len(pairs) == 28
        for points, length, amp_h in pairs.values():
            assert amp_h.tobytes() == np.exp(0.5j * length * points).tobytes()

    def test_one_grid_alive_at_a_time(self):
        # measured on the default matrix: about 0.96 MB for the call, against
        # 1.05 MB for three grids held with one case evaluated on top
        values = make_config("oracle_suite").values
        oracle_deviation_rows(values)  # first-call allocations out of the way
        settings = MwiSettings(3, 1e-10, scenarios._gamma_length(1.9), 0.002)
        tracemalloc.start()
        try:
            held = []
            for shape in ("gaussian", "supergaussian", "rectangular"):
                grid = build_grid(scenarios._profile(values, 6.0, shape), settings)
                held.append((grid, np.sqrt(grid.density)))
            grid, root_density = held[-1]
            d = direct_collapse(grid, settings.phase_length, settings.rho)
            amp_h = meter._oracle_amplitude(grid.points, settings)
            o = meter._oracle_project(meter._oracle_factor(amp_h, settings.rho), root_density)
            mask = d > 1e-15 * float(d.max())
            float(np.max(np.abs(d[mask] - o[mask]) / d[mask]))
            three_grids_peak = tracemalloc.get_traced_memory()[1]
            del held, grid, root_density, d, amp_h, o, mask
            tracemalloc.reset_peak()
            oracle_deviation_rows(values)
            call_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert call_peak < three_grids_peak


class TestScenarioPhysicsSpots:
    def test_closed_form_deviations_at_rounding_level(self):
        # collapsed_density reads the sweep kernel, whose C and T are sums on
        # the exact lattice x = i*h; Simpson sums of (p - p0) D on absolute
        # momenta left a shift deviation of 1.1e-10 on this matrix
        worst_prob, worst_shift = scenarios.closed_form_deviations(make_config("oracle_suite").values)
        assert worst_prob <= 1e-12
        assert worst_shift <= 1e-12

    def test_closed_form_deviations_where_the_shift_underflows(self):
        # sigma_p * L passes 38 at k = 2.5e-3: the closed-form shift is exactly
        # 0 there, and the quadrature's shift is measured against sigma_p
        values = make_config("oracle_suite", {"k_list_m": "0,1e-12,2.5e-3"}).values
        sigma_p = effective_sigma_p(scenarios._profile(values, values["sigma_lambda_nm"], "gaussian"))
        settings = MwiSettings(1, 2.5e-3, 0.0, np.array(values["rho_list_rad"]))
        assert np.all(meter.pointer_shift_p_gaussian(sigma_p, scenarios.P0_RAD_PER_M, settings) == 0.0)
        deviations = scenarios.closed_form_deviations(values)
        assert np.all(np.isfinite(deviations)) and max(deviations) <= 1e-6

    def test_closed_form_deviations_one_collapse_family(self, monkeypatch):
        # the 18 Gaussian, gamma = 0, k != 0 cases of the default matrix are
        # read out as one (N, k, rho) family of single passes of N*k, on one
        # guarded grid
        calls, grids = [], []
        collapse, build = scenarios.collapsed_density, meter.build_grid

        def spy_collapse(profile, settings):
            calls.append(np.shape(settings.phase_length * settings.rho))
            return collapse(profile, settings)

        def spy_build(*args, **kwargs):
            grids.append(build(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(scenarios, "collapsed_density", spy_collapse)
        monkeypatch.setattr(scenarios, "build_grid", spy_build)
        monkeypatch.setattr(meter, "build_grid", spy_build)
        scenarios.closed_form_deviations(make_config("oracle_suite").values)
        assert calls == [(3, 2, 3)]
        assert [grid.points.size for grid in grids] == [8193]

    def test_fig6_rows_match_library(self):
        from wva_lab.lgi import k31
        from wva_lab.polarization import im_weak_value

        config = make_config("fig6", FAST_OVERRIDES["fig6"])
        result = execute_scenario(config)
        names = ("n_1", "rho_rad", "im_weak_value_1", "k31_approx_1")
        for n, rho, im, k31_approx in zip(*(np.asarray(result.columns[name]) for name in names)):
            assert k31_approx == pytest.approx(k31(int(n), float(rho)), abs=1e-12)
            assert im == pytest.approx(im_weak_value(int(n), float(rho)), rel=1e-12)

    def test_fig5_delta_k_scaling(self):
        config = make_config("fig5", {"coherent_n_list": "1,2,3", "vsns_widths_nm": "3",
                                      "k_step_m": 1.5e-10})
        summary = execute_scenario(config).summary
        d1 = summary["coherent.n1.delta_k_fm"]
        d2 = summary["coherent.n2.delta_k_fm"]
        d3 = summary["coherent.n3.delta_k_fm"]
        assert d3 == pytest.approx(148.8, rel=1e-12)
        assert d1 == pytest.approx(3 * d3, rel=1e-12)
        assert d2 == pytest.approx(1.5 * d3, rel=1e-12)

    @pytest.mark.parametrize("scenario_id", ["fig5", "s3_intensity"])
    @pytest.mark.parametrize(("key", "label"), [("delta_i_05_V", "w0.5nm"), ("delta_i_1_V", "w1nm"),
                                                ("delta_i_3_V", "w3nm")])
    def test_delta_i_reaches_only_its_source(self, scenario_id, key, label):
        # doubling one width's delta_I doubles that width's delta_k, moves its deviation from the
        # paper's value, and leaves every other summary value bit-equal
        base = execute_scenario(make_config(scenario_id)).summary
        raised = execute_scenario(make_config(scenario_id, {key: 2.0 * PAPER[key].value})).summary
        assert list(raised) == list(base)
        moved = {name for name in base if repr(raised[name]) != repr(base[name])}
        assert moved == {f"{label}.delta_k_fm", f"{label}.quoted_deviation_percent"}
        assert raised[f"{label}.delta_k_fm"] == 2.0 * base[f"{label}.delta_k_fm"]

    def test_fig5_quotes_n1_without_n1_in_the_list(self):
        # the coherent single-pass precision is reported beside the deviation computed from it
        summary = execute_scenario(make_config("fig5", {"coherent_n_list": "2,3"})).summary
        widths = [f"{label}.{q}" for label in ("w0.5nm", "w1nm", "w3nm")
                  for q in ("delta_k_fm", "quoted_delta_k_fm", "quoted_deviation_percent")]
        assert list(summary) == [
            "i_init_V", "coherent.n2.delta_k_fm", "coherent.n3.delta_k_fm", "delta_ell_ratio_n3_over_n2",
            "coherent.n1.delta_k_fm", "coherent.n1.quoted_delta_k_fm", "coherent.n1.quoted_deviation_percent",
            *widths,
        ]
        n1 = execute_scenario(make_config("fig5")).summary["coherent.n1.delta_k_fm"]
        assert summary["coherent.n1.delta_k_fm"] == n1
        quoted = PAPER["fig5.coherent.n1.delta_k_fm"]
        assert summary["coherent.n1.quoted_deviation_percent"] == quoted.deviation(n1) * 100.0

    def test_s2_density_columns_positive_and_normalized_scale(self):
        config = make_config("s2_spectrum_evolution", FAST_OVERRIDES["s2_spectrum_evolution"])
        result = execute_scenario(config)
        initial = np.asarray(result.columns["initial_density_per_nm"])
        collapsed = np.asarray(result.columns["collapsed_density_per_nm"])
        assert np.all(initial >= 0.0) and np.all(collapsed >= 0.0)
        assert np.all(collapsed <= initial * (1 + 1e-12))

    def test_s2_sines_only_at_emitted_points(self, monkeypatch):
        calls, half_phase = [], scenarios._half_phase

        def spy(points, phase_length, rho):
            calls.append(points.size)
            return half_phase(points, phase_length, rho)

        monkeypatch.setattr(scenarios, "_half_phase", spy)
        summary = execute_scenario(make_config("s2_spectrum_evolution")).summary
        assert summary["grid_points"] == 8193
        assert calls == [257] * 7

    @pytest.mark.parametrize("stride", [32, 7])
    def test_s2_columns_are_the_strided_collapse(self, stride):
        # 7 does not divide the 8,192 intervals: the last emitted point is not the grid's last
        config = make_config("s2_spectrum_evolution", {"subsample_stride": stride})
        v = config.values
        profile, family = scenarios._s2_grid_args(v)
        grid = build_grid(profile, family)
        points = grid.points[::stride]
        to_per_nm = (2.0 * np.pi / (2.0 * np.pi / points) ** 2) * 1e-9
        initial, collapsed = [], []
        for tau in v["tau_list_as"]:
            length = v["n_interactions"] * (scenarios.SPEED_OF_LIGHT * tau * 1e-18) + family.gamma
            initial.append((grid.density[::stride] * to_per_nm)[::-1])  # rows in rising wavelength
            collapsed.append((direct_collapse(grid, length, family.rho)[::stride] * to_per_nm)[::-1])
        columns = execute_scenario(config).columns
        assert np.asarray(columns["initial_density_per_nm"]).tobytes() == np.concatenate(initial).tobytes()
        assert np.asarray(columns["collapsed_density_per_nm"]).tobytes() == np.concatenate(collapsed).tobytes()
        lam_nm = np.tile((2.0 * np.pi / points * 1e9)[::-1], len(v["tau_list_as"]))
        assert np.asarray(columns["lambda_nm"]).tobytes() == lam_nm.tobytes()

    def test_s2_rows_arrive_in_render_order(self, monkeypatch):
        config = make_config("s2_spectrum_evolution", {"subsample_stride": 7})
        result = execute_scenario(config)
        expected = render_csv(result, config)
        monkeypatch.setattr(np, "lexsort", None)  # a table already in order is not sorted
        assert render_csv(result, config) == expected

    def test_s2_grid_sized_by_largest_magnitude_of_tau(self):
        common = {"gamma_pi_units": 0.0, "width_nm": 30.0}
        negative = make_config("s2_spectrum_evolution", {**common, "tau_list_as": "-20000000,0"})
        positive = make_config("s2_spectrum_evolution", {**common, "tau_list_as": "0,20000000"})
        points = [execute_scenario(config).summary["grid_points"] for config in (negative, positive)]
        assert points == [65537, 65537]

    def test_s2_rejects_a_grid_reaching_negative_momentum(self):
        config = make_config("s2_spectrum_evolution", {"width_nm": 1500.0, "width_convention": "fwhm"})
        profile, family = scenarios._s2_grid_args(config.values)
        smallest = build_grid(profile, family).points[0]
        with pytest.raises(NumericalError) as excinfo:
            execute_scenario(config)
        assert f"reaches momentum {float(smallest)!r} rad/m" in str(excinfo.value)

    def test_fig4_amplification_ratios(self):
        # full-resolution sweep so the peak rates resolve the narrowed
        # transitions; ratios land within a few percent of the pass count
        summary = execute_scenario(make_config("fig4")).summary
        assert summary["rate_ratio_n2_over_n1"] == pytest.approx(2.0, rel=0.05)
        assert summary["rate_ratio_n3_over_n1"] == pytest.approx(3.0, rel=0.05)
