"""Named parameter sweeps emitting deterministic CSV tables and summaries.

Each scenario is a registered runner with a flat config schema: every key
is declared once, with its default, kind and rule, and is overridable from
a key=value file or ``--set`` flags.  ``make_config`` checks every key and
every cross-key rule before a runner starts.  Tables carry ``#``-prefixed
provenance lines (version and config echo), unit-suffixed column headers,
and rows sorted by their input coordinates.  Float cells have one declared
precision, 12 significant digits, two beyond the sweeps' 1e-10 convergence;
config echoes and printed summaries keep shortest round-trip ``repr``, so an
echo reproduces its exact input and ``verify`` compares exact values.
Repeated runs are byte-identical.  A table is a set of named columns from
the runner to the CSV; an input coordinate that repeats over the rows is an
``AxisColumn`` (each of its values ``inner`` times, all of that ``outer``
times), whose values ``render_csv`` formats once.  The sort runs only on a
table whose rows are out of order.  Runners hand ``wva_lab.meter`` its
inputs, sweep jobs (profile, N) over k and oracle cases (profile, settings);
grids, grid levels and convergence stay there.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Optional, TextIO

import numpy as np

from ._version import __version__ as _pkg_version
from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, NumericalError, require
from .lgi import k31, negativity_boundary_scan, quantum_region_boundary, weak_value_from_shift
from .meter import (
    _half_phase_sine,
    collapsed_density,
    collapsed_sweep,
    intensity_after_postselection,
    intensity_shift_approx,
    oracle_deviations,
    pointer_shift_p_gaussian,
    postselection_probability_gaussian,
)
from .metrology import precision, snr_db
from .paper import PAPER
from .polarization import MwiSettings, im_weak_value
from .spectra import (
    _WIDTH_CONVENTIONS,
    Shape,
    SpectralProfile,
    build_grid,
    effective_sigma_p,
    grid_point_count,
    lambda_p_convert,
)

LAMBDA0_M = PAPER["lambda0_m"].value
P0_RAD_PER_M = lambda_p_convert(LAMBDA0_M)
# source label -> config key of its intensity uncertainty delta_I
_DELTA_I_KEYS = {"coherent": "delta_i_coherent_V", "w0.5nm": "delta_i_05_V", "w1nm": "delta_i_1_V",
                 "w3nm": "delta_i_3_V"}

# CSV rows formatted per batch: bounds the memory held by the formatted columns.  Float cells are
# written '%.12g' (the declared precision); config echoes and summaries keep repr, whose text is exact
_RENDER_CHUNK_ROWS = 1024

_ALLOWED_UNIT_SUFFIXES = {
    "1", "as", "s", "m", "nm", "pm", "fm", "rad", "V", "mV", "db", "W",
}

# The size budget: the most points on a derived axis, table rows, angles of
# the fig6 boundary scan, and the largest count a config may ask for.  The
# largest default is fig3b's 15,792 rows.
SIZE_BUDGET = 2**18


Values = Mapping[str, object]  # a checked config's parsed keys and derived axes, as runners read them


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked config: ``params`` holds each key's value as set (the CSV
    echoes it; list keys keep their text) and ``values`` what the runner
    reads: each key's parsed value and the points of each derived axis."""

    scenario_id: str
    params: Mapping[str, object]
    values: Values
    out_path: Optional[str] = None


class AxisColumn:
    """An axis of a product table: each of ``values`` ``inner`` times, and that whole
    sequence ``outer`` times.  As an array it is ``np.tile(np.repeat(values, inner), outer)``;
    ``render_csv`` formats each of its values once."""

    def __init__(self, values, inner: int = 1, outer: int = 1):
        self.values, self.inner, self.outer = np.asarray(values), inner, outer

    def __len__(self) -> int:
        return self.values.size * self.inner * self.outer

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def __array__(self, dtype=None, copy=None):
        return np.asarray(np.tile(np.repeat(self.values, self.inner), self.outer), dtype)


@dataclass(frozen=True)
class ScenarioResult:
    """A scenario's table and summary: ``columns`` maps each CSV column name, in order, to its
    values, a 1-D numpy array of floats, ints or bools, a sequence of str (a text column), or an
    ``AxisColumn`` of any of these, which a runner gives for an input coordinate that repeats."""

    columns: dict
    summary: dict


@dataclass(frozen=True)
class ScenarioSpec:
    description: str
    schema: Mapping[str, tuple]   # key -> (default, kind, rule)
    axes: Mapping[str, tuple]     # name -> (kind, lo key, hi key, step or count key, fewest points, rule)
    checks: tuple                 # cross-key rules: functions of the values that raise ConfigError
    rows: Callable[[Values], int]
    runner: Callable[[Values], ScenarioResult]


SCENARIOS: dict[str, ScenarioSpec] = {}


def _register(scenario_id: str, description: str, schema: Mapping[str, tuple], *, rows, axes=None, checks=()):
    if "order" in schema:  # a spectral profile: its shape and order are checked together
        checks = (_supergaussian_order, *checks)

    def wrap(fn):
        SCENARIOS[scenario_id] = ScenarioSpec(description, schema, axes or {}, checks, rows, fn)
        return fn

    return wrap


def list_scenarios() -> list:
    """Registered (id, description) pairs in registration order."""
    return [(scenario_id, spec.description) for scenario_id, spec in SCENARIOS.items()]


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------
#
# A key's schema entry is (default, kind, rule).  The kind parses the key's
# text, raising ValueError that names what it expects; the rule is None or
# a key of _RULES, and holds for the value or for every entry of a list.

def _number(raw) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("a finite number")
    return value


def _whole(raw) -> int:
    """The one count parser: pass counts, list entries, point counts, orders."""
    value = _number(raw)
    if not (value == int(value) and 1 <= value <= SIZE_BUDGET):
        raise ValueError(f"a whole number from 1 to {SIZE_BUDGET}")
    return int(value)


def _choice(options: tuple):
    def parse(raw) -> str:
        if raw not in options:
            raise ValueError(f"one of {', '.join(options)}")
        return raw

    return parse


def _list_of(parse):
    """The kind of a comma-separated list of ``parse`` entries, non-empty
    and without repeats."""

    def parse_list(raw) -> tuple:
        values = tuple(parse(part.strip()) for part in str(raw).split(",") if part.strip())
        if not values:
            raise ValueError("a non-empty list")
        if len(set(values)) < len(values):
            raise ValueError("a list without repeats")
        return values

    return parse_list


_SHAPE = _choice(tuple(shape.value for shape in Shape))
_CONVENTION = _choice(_WIDTH_CONVENTIONS)
_FLOATS, _COUNTS, _SHAPES = _list_of(_number), _list_of(_whole), _list_of(_SHAPE)


def _paper_defaults(rules: Mapping[str, str]) -> dict:
    """Schema entries, with their rules, of number keys whose defaults are the paper's numbers of the same names."""
    return {key: (PAPER[key].value, _number, rule) for key, rule in rules.items()}


def _wlabel(width_nm: float) -> str:
    return f"w{width_nm:g}nm"


# rule -> test of a value's entries (a tuple; a scalar is one entry)
_RULES = {
    "> 0": lambda v: min(v) > 0.0,
    ">= 0": lambda v: min(v) >= 0.0,
    "!= 0": lambda v: 0.0 not in v,
    "in (0, 1]": lambda v: 0.0 < min(v) and max(v) <= 1.0,
    "in (0, pi/2)": lambda v: 0.0 < min(v) and max(v) < 0.5 * math.pi,
    "> 0 with distinct w<width>nm labels": lambda v: min(v) > 0.0 and len(set(map(_wlabel, v))) == len(v),
}


def _axis(axis: tuple, values: Values) -> np.ndarray:
    """The points of a derived axis (kind, lo key, hi key, n key, fewest
    points, rule).  A "stepped" axis runs lo, lo + step, ... up to hi,
    rounded to whole steps, with lo = 0 where it has no lo key; a
    "geometric" axis has n points from lo to hi.  The points satisfy the rule."""
    kind, lo_key, hi_key, n_key, fewest, rule = axis
    keys = ", ".join(filter(None, (lo_key, hi_key, n_key)))
    lo, hi, n = values[lo_key] if lo_key else 0.0, values[hi_key], values[n_key]
    if kind == "geometric":
        if not lo <= hi or (lo == hi and n > 1):
            raise ConfigError(f"config keys {keys}: need lo < hi, or lo = hi for one point; got {lo!r}, {hi!r}, {n}")
        points = np.geomspace(lo, hi, n)
    else:
        span = (hi - lo) / n
        count = int(round(span)) + 1 if abs(span) < SIZE_BUDGET else 0
        if not fewest <= count <= SIZE_BUDGET:
            raise ConfigError(f"config keys {keys} give {span + 1:.4g} points, need {fewest} to {SIZE_BUDGET}")
        points = lo + n * np.arange(count)
    if rule is not None and not _RULES[rule]((float(points[0]), float(points[-1]))):
        raise ConfigError(f"config keys {keys} give points from {points[0]!r} to {points[-1]!r}, not {rule}")
    return points


def _supergaussian_order(values: Values) -> None:
    """A supergaussian profile needs an even order."""
    if values["order"] % 2 and "supergaussian" in values.get("shapes", (values.get("shape"),)):
        raise ConfigError(f"config key order must be even for a supergaussian shape, got {values['order']}")


def _scan_angles(values: Values) -> None:
    """fig6's boundary scan needs more than one angle below pi/2 (so a
    largest angle above its step), and at most SIZE_BUDGET of them."""
    angles = min(values["boundary_scan_max_rad"], 0.5 * math.pi) / values["boundary_scan_step_rad"]
    if not 1.0 < angles <= SIZE_BUDGET:
        raise ConfigError(
            f"config keys boundary_scan_max_rad, boundary_scan_step_rad give {angles:.4g} scan angles below pi/2, "
            f"need more than 1 and at most {SIZE_BUDGET}"
        )


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines; '#' starts a comment, blank lines ignored."""
    out: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def make_config(
    scenario_id: str, overrides: Optional[Mapping[str, object]] = None, out_path: Optional[str] = None
) -> ScenarioConfig:
    """Merge overrides into the scenario's defaults and check the result
    against its schema: every key, every derived axis and cross-key rule,
    and the table's row count against SIZE_BUDGET."""
    if scenario_id not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario_id!r}; see 'wva-lab list'")
    spec = SCENARIOS[scenario_id]
    overrides = overrides or {}
    for key in overrides:
        if key not in spec.schema:
            raise ConfigError(f"unknown config key {key!r} for scenario {scenario_id}")
    params, values = {}, {}
    for key, (default, kind, rule) in spec.schema.items():
        raw = overrides.get(key, default)
        try:
            value = kind(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: cannot parse {raw!r} as {exc}") from None
        if rule is not None and not _RULES[rule](value if isinstance(value, tuple) else (value,)):
            raise ConfigError(f"config key {key} must be {rule}, got {raw!r}")
        params[key] = str(raw) if isinstance(value, tuple) else value
        values[key] = value
    for name, axis in spec.axes.items():
        values[name] = _axis(axis, values)
    for check in spec.checks:
        check(values)
    rows = spec.rows(values)
    if rows > SIZE_BUDGET:
        raise ConfigError(f"config keys {', '.join(sorted(overrides))} give {rows} table rows, more than {SIZE_BUDGET}")
    return ScenarioConfig(scenario_id=scenario_id, params=params, out_path=out_path, values=values)


# ---------------------------------------------------------------------------
# Shared sweep machinery
# ---------------------------------------------------------------------------

def _profile(values: Values, width_nm: float, shape: Optional[str] = None) -> SpectralProfile:
    """The profile of width ``width_nm`` with the config's order and width
    convention, and its shape unless ``shape`` is given."""
    width = width_nm * 1e-9
    require(width != 0.0, "source width {!r} nm rounds to 0 m", width_nm)
    return SpectralProfile(shape or values["shape"], LAMBDA0_M, width, values["order"], values["width_convention"])


def _gamma_length(gamma_pi_units: float) -> float:
    """The path imbalance gamma (m) with gamma * p0 = gamma_pi_units * pi."""
    return gamma_pi_units * math.pi / P0_RAD_PER_M


def _sweep(v: Values, jobs: list) -> tuple:
    """Traces (delta_lambda_nm, P) of ``collapsed_sweep`` over the config's
    time differences, k = c tau, one row per job (profile, N); every job's
    profile is centred at LAMBDA0_M, as ``_profile`` makes it."""
    prob, delta_p = collapsed_sweep(jobs, SPEED_OF_LIGHT * v["taus_as"] * 1e-18, _gamma_length(v["gamma_pi_units"]),
                                    v["rho_rad"])
    return -(LAMBDA0_M**2 / (2.0 * math.pi)) * 1e9 * delta_p, prob


def linear_region_rate(taus_as: np.ndarray, values: np.ndarray) -> float:
    """|slope| of a least-squares line over the monotone segment between the
    trace extrema -- the measured 'linear region' of a shift-vs-tau curve;
    0 for a constant trace, whose extrema are one point."""
    i_min, i_max = int(np.argmin(values)), int(np.argmax(values))
    lo, hi = (i_min, i_max) if i_min < i_max else (i_max, i_min)
    t = taus_as[lo : hi + 1]
    v = values[lo : hi + 1]
    if t.size < 2:
        return 0.0
    dt = t - t.mean()
    return abs(float(np.dot(dt, v - v.mean()) / np.dot(dt, dt)))


def _central_slopes(taus_as: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Central-difference slopes of ``values`` over ``taus_as`` along the last axis (interior points)."""
    return (values[..., 2:] - values[..., :-2]) / (taus_as[2:] - taus_as[:-2])


def peak_local_rate(taus_as: np.ndarray, values: np.ndarray) -> float:
    """Largest |central-difference slope| on the sampled trace."""
    if taus_as.size < 3:
        raise ValueError("need at least 3 sweep points")
    return float(np.max(np.abs(_central_slopes(taus_as, values))))


def _rate_summary(summary: dict, label: str, taus_as: np.ndarray, dlam: np.ndarray, res_m: float) -> float:
    """Fitted and peak shift rates of one trace and its momentum-pointer
    precision (attoseconds), into ``summary`` under ``label``; returns the peak rate.
    Raises NumericalError for a trace without a fitted rate."""
    fitted = linear_region_rate(taus_as, dlam)
    require(fitted > 0.0, label + ": the fitted shift rate is {!r}, no precision", fitted)
    summary[f"{label}.fitted_rate_nm_per_as"] = fitted
    summary[f"{label}.peak_rate_nm_per_as"] = peak = peak_local_rate(taus_as, dlam)
    rate_per_m_of_k = fitted * 1e-9 / (SPEED_OF_LIGHT * 1e-18)  # d(dlam)/dk, m/m
    _, delta_tau = precision(res_m, rate_per_m_of_k)
    summary[f"{label}.delta_tau_as"] = delta_tau * 1e18
    return peak


def _stacked(names, blocks) -> dict:
    """The columns ``names`` of a table built block by block (a row is a block): each block holds, for as
    many rows as the others, each column's values, an array or one number for all its rows.  A number
    per block, or an array that is the same object in every block, gives an ``AxisColumn``."""
    rows, columns = max(map(np.size, blocks[0])), {}
    for name, v in zip(names, zip(*blocks)):
        if not np.ndim(v[0]):
            columns[name] = AxisColumn(v, rows)
        elif all(x is v[0] for x in v):
            columns[name] = AxisColumn(v[0], 1, len(v))
        else:
            columns[name] = np.concatenate(v)
    return columns


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

_PROFILE_KEYS = {
    "shape": ("supergaussian", _SHAPE, None),
    "order": (6, _whole, None),
    "width_convention": ("sigma", _CONVENTION, None),
}
_TRACE_KEYS = {**_PROFILE_KEYS, **_paper_defaults({"rho_rad": "in (0, pi/2)", "gamma_pi_units": ">= 0"})}
_TAU_KEYS = {"tau_max_as": (330.0, _number, None), "tau_step_as": (1.0, _number, "> 0")}
_TAU_AXIS = {"taus_as": ("stepped", None, "tau_max_as", "tau_step_as", 3, None)}  # the rates are central differences
_N_KEY = {"n_interactions": (1, _whole, None)}
_RESOLUTION_KEY = _paper_defaults({"spectrometer_resolution_m": "> 0"})


@_register(
    "fig3a",
    "Wavelength-shift traces vs time difference for four flat-top source widths; "
    "extracts linear-region shift rates and momentum-pointer precisions",
    {
        **_TRACE_KEYS,
        **_TAU_KEYS,
        **_N_KEY,
        **_RESOLUTION_KEY,
        "widths_nm": ("0.5,1,3,6", _FLOATS, "> 0 with distinct w<width>nm labels"),
    },
    axes=_TAU_AXIS,
    rows=lambda v: len(v["widths_nm"]) * v["taus_as"].size,
)
def _run_fig3a(v: Values) -> ScenarioResult:
    widths, taus, rho, res_m = v["widths_nm"], v["taus_as"], v["rho_rad"], v["spectrometer_resolution_m"]
    summary = {
        "preset.lambda0_nm": LAMBDA0_M * 1e9,
        "preset.rho_rad": rho,
        "preset.gamma_pi_units": v["gamma_pi_units"],
        "preset.spectrometer_resolution_pm": res_m * 1e12,
    }
    jobs = [(_profile(v, width), v["n_interactions"]) for width in widths]
    dlam, prob = _sweep(v, jobs)
    for width, trace in zip(widths, dlam):
        _rate_summary(summary, _wlabel(width), taus, trace, res_m)
    # a row per (width, tau), width-major
    return ScenarioResult(dict(sigma_lambda_nm=AxisColumn(widths, taus.size), tau_as=AxisColumn(taus, 1, len(widths)),
                               delta_lambda_nm=dlam.ravel(), postselection_probability_1=prob.ravel()), summary)


@_register(
    "fig3b",
    "Map of the local wavelength-shift rate over time difference and source width "
    "(up to 300 nm); locates the maximum-rate band",
    {
        **_TRACE_KEYS,
        **_TAU_KEYS,
        **_N_KEY,
        "width_min_nm": (0.5, _number, "> 0"),
        "width_max_nm": (300.0, _number, "> 0"),
        "n_widths": (48, _whole, None),
        "band_threshold": (0.95, _number, "in (0, 1]"),
    },
    axes={**_TAU_AXIS, "widths_nm": ("geometric", "width_min_nm", "width_max_nm", "n_widths", 1, None)},
    rows=lambda v: v["widths_nm"].size * (v["taus_as"].size - 2),
)
def _run_fig3b(v: Values) -> ScenarioResult:
    widths, taus, threshold = v["widths_nm"], v["taus_as"], v["band_threshold"]
    jobs = [(_profile(v, float(w)), v["n_interactions"]) for w in widths]
    dlam, _ = _sweep(v, jobs)
    rates = np.abs(_central_slopes(taus, dlam))
    peaks = rates.max(axis=1)
    best = int(np.argmax(peaks))  # the first width at the largest peak rate
    in_band = widths[peaks >= threshold * peaks[best]]
    summary = {
        "max_rate_nm_per_as": float(peaks[best]),
        "max_rate_sigma_lambda_nm": float(widths[best]),
        "max_rate_tau_as": float(taus[1 + int(np.argmax(rates[best]))]),
        "band_threshold": threshold,
        "band_lo_sigma_lambda_nm": float(in_band.min()),
        "band_hi_sigma_lambda_nm": float(in_band.max()),
    }
    return ScenarioResult(dict(sigma_lambda_nm=AxisColumn(widths, taus.size - 2),
                               tau_as=AxisColumn(taus[1:-1], 1, widths.size), delta_lambda_nm=dlam[:, 1:-1].ravel(),
                               rate_nm_per_as=rates.ravel()), summary)


@_register(
    "fig4",
    "Wavelength-shift traces at N = 1, 2, 3 passes for one source width; "
    "extracts per-N rates, amplification ratios, and precisions",
    {
        **_TRACE_KEYS,
        **_TAU_KEYS,
        **_RESOLUTION_KEY,
        "width_nm": (6.0, _number, "> 0"),
        "n_list": ("1,2,3", _COUNTS, None),
    },
    axes=_TAU_AXIS,
    rows=lambda v: len(v["n_list"]) * v["taus_as"].size,
)
def _run_fig4(v: Values) -> ScenarioResult:
    n_list, taus, res_m = v["n_list"], v["taus_as"], v["spectrometer_resolution_m"]
    profile = _profile(v, v["width_nm"])
    summary = {}
    peak_rates = {}
    dlam, prob = _sweep(v, [(profile, n) for n in n_list])
    for n, trace in zip(n_list, dlam):
        peak_rates[n] = _rate_summary(summary, f"n{n}", taus, trace, res_m)
    base = n_list[0]
    for n in n_list[1:]:
        summary[f"rate_ratio_n{n}_over_n{base}"] = peak_rates[n] / peak_rates[base]
    return ScenarioResult(dict(n_1=AxisColumn(n_list, taus.size), tau_as=AxisColumn(taus, 1, len(n_list)),
                               delta_lambda_nm=dlam.ravel(), postselection_probability_1=prob.ravel()), summary)


_CALIBRATION_KEYS = _paper_defaults(
    {"noise_floor_V": "> 0", "delta_i_coherent_V": "> 0", "target_delta_k_n3_fm": "> 0"}
)
_INTENSITY_KEYS = {
    **_PROFILE_KEYS,
    **_CALIBRATION_KEYS,
    **_paper_defaults({"rho_rad": "in (0, pi/2)", **dict.fromkeys(_DELTA_I_KEYS.values(), "> 0")}),
    "k_max_m": (4.5e-10, _number, None),
    "k_step_m": (7.5e-12, _number, "> 0"),
    "vsns_widths_nm": ("0.5,1,3", _FLOATS, "> 0 with distinct w<width>nm labels"),
}
_K_AXIS = {"ks_m": ("stepped", None, "k_max_m", "k_step_m", 2, None)}
_TRACE_NAMES = ("k_m", "intensity_V", "relative_shift_1", "snr_db")  # the columns of ``_intensity_trace``


def _intensity_scale(v: Values, rho: float) -> tuple:
    """(i_init, dI/dk): the intensity scale (V), fixed once so that the coherent three-pass case reaches the
    config's target displacement precision, and the slope of one pass at k = 0, dI/dk = i_init p0/2 sin 2 rho
    (V/m).  N passes have N times the slope, and a source's delta_k(N) = delta_I / (N dI/dk)."""
    target_m = v["target_delta_k_n3_fm"] * 1e-15
    require(target_m != 0.0, "target_delta_k_n3_fm rounds to 0 m")

    def slope(i_init: float, n: int) -> float:  # dI/dk of n passes at the scale i_init, V/m
        return i_init * (0.5 * n) * P0_RAD_PER_M * math.sin(2.0 * rho)

    i_init = v["delta_i_coherent_V"] / target_m / slope(1.0, 3)
    require(0.0 < i_init < math.inf, "target_delta_k_n3_fm = {!r} fm gives the intensity scale i_init = {!r} V, "
            "not a finite positive value", v["target_delta_k_n3_fm"], i_init)
    return i_init, slope(i_init, 1)


def _snr_db(signal, noise: float):
    """``snr_db`` of a float or an array; raises NumericalError at the first signal that is not positive."""
    require(signal > 0.0, "signal {!r} V has no signal-to-noise ratio", signal)
    return snr_db(signal, noise)


def _intensity_trace(v, i_init, sigma_p, n):
    """The arrays of ``_TRACE_NAMES`` over the config's k axis at N passes."""
    settings = MwiSettings(n, v["ks_m"], 0.0, v["rho_rad"])
    intensity, shift = intensity_after_postselection(i_init, sigma_p, P0_RAD_PER_M, settings)
    return settings.k, intensity, shift, _snr_db(intensity, v["noise_floor_V"])


def _delta_k_summary(summary: dict, label: str, delta_i: float, rate: float, source: Optional[str] = None) -> None:
    """The displacement precision (fm) of an intensity uncertainty ``delta_i`` (V) at the shift rate ``rate``
    (V/m), ``metrology.precision``'s delta_k as for the momentum pointer's delta_tau, into ``summary`` under
    ``label``; with ``source``, the paper's value ``fig5.<source>.delta_k_fm`` and the deviation from it."""
    summary[f"{label}.delta_k_fm"] = delta_k_fm = precision(delta_i, rate)[0] * 1e15
    if source is not None:
        quoted = PAPER[f"fig5.{source}.delta_k_fm"]
        summary[f"{label}.quoted_delta_k_fm"] = quoted.value
        summary[f"{label}.quoted_deviation_percent"] = quoted.deviation(delta_k_fm) * 100.0


@_register(
    "fig5",
    "Intensity-pointer response vs interaction strength for coherent and flat-top "
    "sources at N = 1, 2, 3; calibrated displacement precisions",
    {
        **_INTENSITY_KEYS,
        "coherent_n_list": ("1,2,3", _COUNTS, None),
        "reference_k_m": (3e-12, _number, "!= 0"),
    },
    axes=_K_AXIS,
    rows=lambda v: (len(v["coherent_n_list"]) + len(v["vsns_widths_nm"])) * v["ks_m"].size,
)
def _run_fig5(v: Values) -> ScenarioResult:
    rho, k_ref, delta_i = v["rho_rad"], v["reference_k_m"], {label: v[key] for label, key in _DELTA_I_KEYS.items()}
    i_init, rate = _intensity_scale(v, rho)

    traces, shifts_at_ref = [], {}
    summary = {"i_init_V": i_init}
    coherent_n_list = v["coherent_n_list"]
    for n in coherent_n_list:
        traces.append((0.0, n, *_intensity_trace(v, i_init, 0.0, n)))
        _, shifts_at_ref[n] = intensity_after_postselection(i_init, 0.0, P0_RAD_PER_M, MwiSettings(n, k_ref, 0.0, rho))
        _delta_k_summary(summary, f"coherent.n{n}", delta_i["coherent"], n * rate)
    base_n = coherent_n_list[0]
    require(shifts_at_ref[base_n] != 0.0,
            f"the relative shift at reference_k_m = {k_ref!r} m is 0 at N = {base_n}: no ratios")
    for n in coherent_n_list[1:]:
        summary[f"delta_ell_ratio_n{n}_over_n{base_n}"] = shifts_at_ref[n] / shifts_at_ref[base_n]
    _delta_k_summary(summary, "coherent.n1", delta_i["coherent"], rate, "coherent.n1")

    for width in v["vsns_widths_nm"]:
        traces.append((width, 1, *_intensity_trace(v, i_init, effective_sigma_p(_profile(v, width)), 1)))
        if (label := _wlabel(width)) in delta_i:
            _delta_k_summary(summary, label, delta_i[label], rate, label)
    return ScenarioResult(_stacked(("sigma_lambda_nm", "n_1", *_TRACE_NAMES), traces), summary)


@_register(
    "fig6",
    "K31 values and weak values over the postselection angle at N = 1, 2, 3; "
    "maps the negativity (quantum-effect) region",
    {
        "rho_min_rad": (PAPER["rho_rad"].value, _number, "in (0, pi/2)"),
        "rho_max_rad": (PAPER["lgi_rho_rad"].value, _number, "in (0, pi/2)"),
        "rho_step_rad": (2e-4, _number, "> 0"),
        "n_list": ("1,2,3", _COUNTS, None),
        "probe_k_m": (1e-13, _number, None),
        "probe_sigma_p_rad_per_m": (0.0, _number, ">= 0"),
        "boundary_scan_step_rad": (1e-3, _number, "> 0"),
        "boundary_scan_max_rad": (1.5, _number, None),
    },
    axes={"rhos_rad": ("stepped", "rho_min_rad", "rho_max_rad", "rho_step_rad", 1, "in (0, pi/2)")},
    checks=(_scan_angles,),
    rows=lambda v: len(v["n_list"]) * v["rhos_rad"].size,
)
def _run_fig6(v: Values) -> ScenarioResult:
    rhos, blocks = v["rhos_rad"], []
    summary = {}
    for n in v["n_list"]:
        settings = MwiSettings(n, v["probe_k_m"], 0.0, rhos)
        exact = postselection_probability_gaussian(v["probe_sigma_p_rad_per_m"], P0_RAD_PER_M, settings)
        blocks.append((n, rhos, im_weak_value(n, rhos), k31(n, rhos), k31(n, rhos, exact)))
        summary[f"n{n}.boundary_scan_rad"] = negativity_boundary_scan(
            n, v["boundary_scan_max_rad"], v["boundary_scan_step_rad"]
        )
        summary[f"n{n}.boundary_arctan_rad"] = quantum_region_boundary(n)
    rho = PAPER["lgi_rho_rad"].value
    summary[f"k31_n3_rho{rho:g}"] = k31(3, rho)
    summary[f"im_weak_value_n3_rho{rho:g}"] = im = im_weak_value(3, rho)
    quoted = PAPER[f"fig6.im_weak_value_n3_rho{rho:g}"]
    summary["quoted_im_weak_value"] = quoted.value
    summary["im_weak_value_deviation_percent"] = quoted.deviation(im) * 100.0
    names = ("n_1", "rho_rad", "im_weak_value_1", "k31_approx_1", "k31_exact_1")
    return ScenarioResult(_stacked(names, blocks), summary)


def _s2_grid_args(v: Values) -> tuple:
    """(profile, settings) of s2's grid.  The settings are the family of its
    time differences, k = c tau for each, so the largest |N k + gamma| sets
    the grid, whatever the sign of tau.  Raises NumericalError where k = c tau
    overflows."""
    taus = v["tau_list_as"]
    if not math.isfinite(SPEED_OF_LIGHT * max(map(abs, taus)) * 1e-18):
        raise NumericalError(f"tau_list_as {taus!r} holds a time difference whose k = c tau overflows")
    ks = SPEED_OF_LIGHT * np.array(taus) * 1e-18
    settings = MwiSettings(v["n_interactions"], ks, _gamma_length(v["gamma_pi_units"]), v["rho_rad"])
    return _profile(v, v["width_nm"]), settings


@_register(
    "s2_spectrum_evolution",
    "Collapsed spectra at a sequence of time differences for a 3 nm source "
    "(both pointer shifts visible in the table)",
    {
        **_TRACE_KEYS,
        **_N_KEY,
        "width_nm": (3.0, _number, "> 0"),
        "tau_list_as": ("0,40,80,120,160,200,240", _FLOATS, None),
        "subsample_stride": (32, _whole, None),
    },
    rows=lambda v: len(v["tau_list_as"]) * -(-grid_point_count(*_s2_grid_args(v)) // v["subsample_stride"]),
)
def _run_s2(v: Values) -> ScenarioResult:
    """The densities at every ``subsample_stride``-th point of one grid, the
    collapse D = Omega sin^2((p L + 2 rho)/2) evaluated at those points only.
    The whole grid is still built: it normalizes Omega.  Each tau's rows come
    in rising wavelength, the order ``render_csv`` writes."""
    profile, family = _s2_grid_args(v)
    grid = build_grid(profile, family)
    stride = v["subsample_stride"]
    points = grid.points[::stride]
    require(points[0] > 0.0, "the grid reaches momentum {!r} rad/m: no wavelength", points[0])
    points, density = points[::-1], grid.density[::stride][::-1]
    lam = 2.0 * math.pi / points
    to_per_nm = (2.0 * math.pi / lam**2) * 1e-9  # |dp/dlambda| in rad/m per nm
    lam_nm, initial, blocks = lam * 1e9, density * to_per_nm, []  # shared by every block: axis columns
    for tau, length in zip(v["tau_list_as"], family.phase_length):
        s = _half_phase_sine(points, length, family.rho)
        blocks.append((tau, lam_nm, initial, density * s * s * to_per_nm))
    summary = {"grid_points": int(grid.points.size), "emitted_rows": len(blocks) * points.size,
               "densities_normalized": True}
    names = ("tau_as", "lambda_nm", "initial_density_per_nm", "collapsed_density_per_nm")
    return ScenarioResult(_stacked(names, blocks), summary)


@_register(
    "s3_intensity",
    "Single-pass intensity-pointer sweeps for coherent and narrow flat-top sources: "
    "signal, relative shift, SNR, and displacement precisions",
    _INTENSITY_KEYS,
    axes=_K_AXIS,
    rows=lambda v: (1 + len(v["vsns_widths_nm"])) * v["ks_m"].size,
)
def _run_s3(v: Values) -> ScenarioResult:
    rho, delta_i = v["rho_rad"], {label: v[key] for label, key in _DELTA_I_KEYS.items()}
    i_init, rate = _intensity_scale(v, rho)
    traces = []
    summary = {"i_init_V": i_init}
    for width in (0.0, *v["vsns_widths_nm"]):
        label = "coherent" if width == 0.0 else _wlabel(width)
        sigma_p = 0.0 if width == 0.0 else effective_sigma_p(_profile(v, width))
        traces.append((width, *_intensity_trace(v, i_init, sigma_p, 1)))
        summary[f"{label}.max_snr_db"] = float(traces[-1][-1].max())
        if label in delta_i:
            _delta_k_summary(summary, label, delta_i[label], rate, "coherent.n1" if width == 0.0 else label)
    summary["coherent.quoted_op_snr_db"] = PAPER["s3_intensity.coherent.quoted_op_snr_db"].value
    return ScenarioResult(_stacked(("sigma_lambda_nm", *_TRACE_NAMES), traces), summary)


@_register(
    "s4_weak_values",
    "Weak-value extraction from forward intensity shifts over the postselection "
    "angle, with the round-trip recovery error and SNR",
    {
        **_CALIBRATION_KEYS,
        "n_list": ("1,3", _COUNTS, None),
        "rho_min_rad": (PAPER["rho_rad"].value, _number, "in (0, pi/2)"),
        "rho_max_rad": (0.1, _number, "in (0, pi/2)"),
        "n_rhos": (40, _whole, None),
        "probe_k_m": (3e-12, _number, "!= 0"),
        "probe_sigma_p_rad_per_m": (0.0, _number, ">= 0"),
        **_paper_defaults({"anomalous_target": "> 0"}),
    },
    axes={"rhos_rad": ("geometric", "rho_min_rad", "rho_max_rad", "n_rhos", 1, None)},
    rows=lambda v: len(v["n_list"]) * v["rhos_rad"].size,
)
def _run_s4(v: Values) -> ScenarioResult:
    k_probe, sigma_p, noise = v["probe_k_m"], v["probe_sigma_p_rad_per_m"], v["noise_floor_V"]
    i_init, rhos, blocks = _intensity_scale(v, PAPER["rho_rad"].value)[0], v["rhos_rad"], []
    snr = _snr_db(i_init * np.sin(rhos) ** 2, noise)
    for n in v["n_list"]:
        forward = intensity_shift_approx(sigma_p, P0_RAD_PER_M, MwiSettings(n, k_probe, 0.0, rhos))
        recovered = weak_value_from_shift(forward, k_probe, P0_RAD_PER_M, sigma_p, n)
        theory = im_weak_value(n, rhos)
        blocks.append((n, rhos, theory, k31(n, rhos), forward, recovered, abs(recovered - theory) / theory, snr))

    rho_star = math.atan(3.0 / v["anomalous_target"])
    require(rho_star < 0.5 * math.pi, "anomalous_target {!r} puts rho_star at pi/2", v["anomalous_target"])
    summary = {
        "rho_star_rad": rho_star,
        "rho_star_inferred": True,  # back-solved from the anomalous target, not quoted
        "weak_value_at_rho_star_1": im_weak_value(3, rho_star),
        "k31_at_rho_star_1": k31(3, rho_star),
        "snr_at_rho_star_db": _snr_db(i_init * math.sin(rho_star) ** 2, noise),
    }
    names = ("n_1", "rho_rad", "im_weak_value_theory_1", "k31_1", "forward_relative_shift_1",
             "recovered_im_weak_value_1", "recovery_rel_error_1", "snr_db")
    return ScenarioResult(_stacked(names, blocks), summary)


_ORACLE_LISTS = ("shapes", "n_list", "k_list_m", "rho_list_rad", "gamma_pi_list")  # the matrix's axes


def oracle_case_matrix(values: Values):
    """(shape, width_nm, n, k, rho, gamma_pi) tuples for the verification matrix."""
    for shape, n, k, rho, gamma_pi in product(*(values[key] for key in _ORACLE_LISTS)):
        yield shape, values["sigma_lambda_nm"], n, k, rho, gamma_pi


def oracle_deviation_rows(values: Values) -> list:
    """(shape, width_nm, n, k, rho, gamma_pi, deviation) for every case of the
    verification matrix, the deviation from ``meter.oracle_deviations``: the
    max relative pointwise difference between the collapsed density and the
    joint-state oracle on the case's ``build_grid`` grid, over points above
    1e-15 of the peak."""
    cases = list(oracle_case_matrix(values))
    profiles = {shape: _profile(values, values["sigma_lambda_nm"], shape) for shape in values["shapes"]}
    deviations = oracle_deviations([(profiles[shape], MwiSettings(n, k, _gamma_length(gamma_pi), rho))
                                    for shape, _, n, k, rho, gamma_pi in cases])
    return [(*case, dev) for case, dev in zip(cases, deviations)]


def closed_form_deviations(values: Values) -> tuple:
    """Worst relative deviations (probability, delta_p) of the refinement-guarded
    quadrature from the Gaussian closed forms, over the matrix's Gaussian cases
    with gamma = 0 and k != 0: for each N, one ``collapsed_density`` call and one
    closed-form evaluation over the (k, rho) matrix of those cases.

    Where the closed-form shift is exactly 0 (its damping underflows once
    sigma_p * L passes ~38), the quadrature's shift is measured against
    sigma_p, as ``collapsed_density``'s guard does.  Raises ConfigError where
    the matrix has no such case (the check would compare nothing), and
    NumericalError, naming the first such case, where a closed form is not
    finite or the probability is not positive.
    """
    ks = [k for k in values["k_list_m"] if k != 0.0]
    gamma_pi = next((g for g in values["gamma_pi_list"] if g == 0.0), None)
    if "gaussian" not in values["shapes"] or not ks or gamma_pi is None:
        raise ConfigError("config keys shapes, k_list_m and gamma_pi_list give no Gaussian case with "
                          "gamma_pi = 0 and k != 0: the closed-form check would compare nothing")
    profile = _profile(values, values["sigma_lambda_nm"], "gaussian")
    sigma_p = effective_sigma_p(profile)
    k, rho = np.array(ks)[:, np.newaxis], np.array(values["rho_list_rad"])
    worst_prob = worst_shift = 0.0
    for n in values["n_list"]:
        settings = MwiSettings(n, k, _gamma_length(gamma_pi), rho)
        case = f"shape=gaussian n={n} k={{!r}} rho={{!r}} gamma_pi={gamma_pi!r}"
        prob_closed = postselection_probability_gaussian(sigma_p, P0_RAD_PER_M, settings)
        require((prob_closed > 0.0) & np.isfinite(prob_closed),
                f"closed-form probability is {{!r}} for case {case}: no relative deviation", prob_closed, k, rho)
        shift_closed = pointer_shift_p_gaussian(sigma_p, P0_RAD_PER_M, settings)
        require(np.isfinite(shift_closed), f"closed-form shift is {{!r}} for case {case}", shift_closed, k, rho)
        quad = collapsed_density(profile, settings)
        worst_prob = max(worst_prob, float(np.max(np.abs(quad.postselection_probability - prob_closed) / prob_closed)))
        scale = np.where(shift_closed == 0.0, sigma_p, np.abs(shift_closed))
        worst_shift = max(worst_shift, float(np.max(np.abs(quad.delta_p - shift_closed) / scale)))
    return worst_prob, worst_shift


# the suite's gates: the oracle pointwise, the closed-form probability and shift relative
_ORACLE_TOLERANCE, _PROB_TOLERANCE, _SHIFT_TOLERANCE = 1e-10, 1e-9, 1e-6


@_register(
    "oracle_suite",
    "Joint-state oracle vs collapsed-density comparison over the shape x N x k x rho "
    "x gamma matrix, plus Gaussian closed-form consistency checks",
    {
        "shapes": ("gaussian,supergaussian,rectangular", _SHAPES, None),
        "sigma_lambda_nm": (6.0, _number, "> 0"),
        "n_list": ("1,2,3", _COUNTS, None),
        "k_list_m": ("0,1e-12,1e-10", _FLOATS, None),
        "rho_list_rad": ("0.002,0.01,0.1", _FLOATS, "in (0, pi/2)"),
        "gamma_pi_list": ("0,1.9", _FLOATS, ">= 0"),
        **{key: entry for key, entry in _PROFILE_KEYS.items() if key != "shape"},
    },
    rows=lambda v: math.prod(len(v[key]) for key in _ORACLE_LISTS),
)
def _run_oracle_suite(v: Values) -> ScenarioResult:
    worst_prob, worst_shift = closed_form_deviations(v)  # first: it rejects a matrix it cannot check
    rows = oracle_deviation_rows(v)
    worst_oracle = max((row[-1] for row in rows), default=0.0)
    summary = {
        "oracle_worst_rel_dev": worst_oracle,
        "closed_form_prob_worst_rel_dev": worst_prob,
        "closed_form_shift_worst_rel_dev": worst_shift,
        "oracle_tolerance": _ORACLE_TOLERANCE,
        "prob_tolerance": _PROB_TOLERANCE,
        "shift_tolerance": _SHIFT_TOLERANCE,
        "pass": worst_oracle <= _ORACLE_TOLERANCE and worst_prob <= _PROB_TOLERANCE and worst_shift <= _SHIFT_TOLERANCE,
    }
    names = ("shape", "sigma_lambda_nm", "n_1", "k_m", "rho_rad", "gamma_pi_1", "oracle_max_rel_dev_1")
    return ScenarioResult(_stacked(names, rows), summary)


# ---------------------------------------------------------------------------
# Execution and CSV output
# ---------------------------------------------------------------------------

def execute_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run the scenario of a config from ``make_config`` on its checked values.
    Raises NumericalError for a table or a float summary value that is not
    finite.  The runner's numpy arithmetic raises no floating-point warning:
    an overflow or an invalid operation gives inf or NaN, as float arithmetic
    does, and the check rejects it."""
    with np.errstate(all="ignore"):
        result = SCENARIOS[config.scenario_id].runner(config.values)
    for column in map(np.asarray, result.columns.values()):
        if column.dtype.kind != "U" and not np.isfinite(column).all():
            raise NumericalError(f"scenario {config.scenario_id} produced a non-finite value")
    for key, value in result.summary.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericalError(f"scenario {config.scenario_id} produced a non-finite summary value {key}={value!r}")
    return result


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _axis_texts(values: np.ndarray) -> np.ndarray:
    """The cell text of each of an axis column's values: a float at 12 significant digits, as the
    row template writes a float cell, any other value by ``_format_cell``."""
    cell = "%.12g".__mod__ if values.dtype.kind == "f" else _format_cell
    return np.array(list(map(cell, values.tolist())), dtype=object)


def _cell_values(column, rows: np.ndarray) -> list:
    """What ``render_csv``'s row template takes of a column's ``rows``: an axis column's texts
    (its values are texts by then), a float column's floats, any other column's texts by ``_format_cell``."""
    if isinstance(column, AxisColumn):
        return column.values[rows // column.inner % column.values.size].tolist()
    values = column[rows].tolist()
    return values if column.dtype.kind == "f" else list(map(_format_cell, values))


def render_csv(result: ScenarioResult, config: ScenarioConfig) -> str:
    """Deterministic CSV body: provenance comments, unit-suffixed header,
    rows sorted by their leading (input-coordinate) columns.  Rows are
    formatted ``_RENDER_CHUNK_ROWS`` at a time; an ``AxisColumn``'s values
    are formatted once, and each chunk gathers their texts."""
    columns = [c if isinstance(c, AxisColumn) else np.asarray(c) for c in result.columns.values()]
    size = len(columns[0])
    for name, column in zip(result.columns, columns):
        if column.dtype.kind != "U" and name.rsplit("_", 1)[-1] not in _ALLOWED_UNIT_SUFFIXES:
            raise ValueError(
                f"numeric column {name!r} lacks a unit suffix (allowed: {sorted(_ALLOWED_UNIT_SUFFIXES)})"
            )
        if len(column) != size:
            raise ValueError(f"columns differ in length: {name!r} has {len(column)} rows, the first {size}")
    lines = [f"# wva-lab {_pkg_version}", f"# scenario={config.scenario_id}"]
    lines += (f"# config.{key}={_format_cell(config.params[key])}" for key in sorted(config.params))
    lines.append(",".join(result.columns))
    # Rows go in the order ``sorted`` gives on row tuples.  Adjacent rows are
    # compared column by column, left to right, while they tie; only a table
    # found out of order is sorted, by a stable lexsort.
    order, tied = None, True  # tied, per pair of adjacent rows: equal in every column so far
    for column in map(np.asarray, columns):
        if np.any(tied & (column[1:] < column[:-1])):
            order = np.lexsort(columns[::-1])
            break
        tied &= column[1:] == column[:-1]
    columns = [AxisColumn(_axis_texts(c.values), c.inner, c.outer) if isinstance(c, AxisColumn) else c for c in columns]
    # one template writes every row: a float cell at 12 significant digits, the declared precision
    template = ",".join("%.12g" if column.dtype.kind == "f" else "%s" for column in columns)
    for lo in range(0, size, _RENDER_CHUNK_ROWS):
        hi = min(lo + _RENDER_CHUNK_ROWS, size)
        rows = np.arange(lo, hi) if order is None else order[lo:hi]
        chunk = zip(*(_cell_values(column, rows) for column in columns))
        lines.append("\n".join([template % row for row in chunk]))
    lines.append("")  # the last newline, in the one join that makes the text
    return "\n".join(lines)


def run_scenario(config: ScenarioConfig, stream: Optional[TextIO] = None) -> ScenarioResult:
    """Execute a scenario, write its CSV, and print the summary as key=value lines."""
    stream = stream if stream is not None else sys.stdout
    result = execute_scenario(config)
    text = render_csv(result, config)
    out_path = config.out_path or f"{config.scenario_id}.csv"
    with open(out_path, "w", newline="\n") as fh:
        fh.write(text)
    print(f"csv={out_path}", file=stream)
    print(f"rows={len(next(iter(result.columns.values())))}", file=stream)
    for key, value in result.summary.items():
        print(f"{key}={_format_cell(value)}", file=stream)
    return result
