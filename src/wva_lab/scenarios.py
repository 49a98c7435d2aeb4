"""Named parameter sweeps emitting deterministic CSV tables and summaries.

Each scenario is a registered runner with a flat default config (every key
overridable from a key=value file or ``--set`` flags).  Tables carry
``#``-prefixed provenance lines (version and config echo), unit-suffixed
column headers, and rows sorted by their input coordinates; numbers are
written in shortest round-trip form so repeated runs are byte-identical.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Mapping, Optional, Sequence, TextIO

import numpy as np

from ._version import __version__ as _pkg_version
from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, NumericalError
from .lgi import k31, negativity_boundary_scan, quantum_region_boundary, weak_value_from_shift
from .meter import (
    _collapse,
    _collapse_moments_on_levels,
    _oracle_amplitude,
    _oracle_project,
    collapsed_density,
    intensity_after_postselection,
    intensity_shift_approx,
    pointer_shift_p_gaussian,
    postselection_probability_gaussian,
)
from .metrology import precision, snr_db
from .polarization import MwiSettings
from .spectra import (
    MAX_GRID_POINTS,
    MomentumGrid,
    SpectralProfile,
    build_grid,
    effective_sigma_p,
    grid_point_count,
    lambda_p_convert,
)

# Experimental presets shared by the scenario defaults
LAMBDA0_M = 1550e-9
P0_RAD_PER_M = lambda_p_convert(LAMBDA0_M)
RHO_RAD = 0.002
GAMMA_PI_UNITS = 1.9              # gamma = units * pi / p0
SPECTROMETER_RESOLUTION_M = 0.04e-12
NOISE_FLOOR_V = 0.5e-3
DELTA_I_V = {"coherent": 0.045e-3, "0.5": 0.072e-3, "1": 0.11e-3, "3": 0.21e-3}
TARGET_DELTA_K_N3_M = 148.8e-15   # calibration anchor for the intensity pointer

# Quoted reference values the summaries report deviations against
QUOTED_DELTA_K_FM = {"coherent": 497.8, "0.5": 782.7, "1": 1190.6, "3": 2312.2}
QUOTED_IM_WEAK_VALUE_238 = 238.0
QUOTED_OP_SNR_DB = 17.5

# Sweep grids start at this floor, well below MIN_GRID_POINTS, and double
# until consecutive levels agree to the tolerance.
_SWEEP_MIN_GRID_POINTS = 2**7 + 1
_SWEEP_TOLERANCE = 1e-10

# CSV rows formatted per batch: bounds the memory held by the formatted columns
_RENDER_CHUNK_ROWS = 1024

_ALLOWED_UNIT_SUFFIXES = {
    "1", "as", "s", "m", "nm", "pm", "fm", "rad", "V", "mV", "db", "W",
}


def calibrated_i_init_v(
    delta_i_coherent_v: float = DELTA_I_V["coherent"],
    target_delta_k_m: float = TARGET_DELTA_K_N3_M,
    rho: float = RHO_RAD,
    p0: float = P0_RAD_PER_M,
) -> float:
    """Intensity scale fixed once so the coherent three-pass case reaches the
    target displacement precision: delta_k(N) = delta_i / (i_init N/2 p0 sin 2 rho)."""
    rate_n3 = delta_i_coherent_v / target_delta_k_m
    return rate_n3 / (1.5 * p0 * math.sin(2.0 * rho))


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    params: Mapping[str, object]
    out_path: Optional[str] = None


@dataclass(frozen=True)
class ScenarioResult:
    scenario_id: str
    columns: tuple
    rows: list
    summary: dict


@dataclass(frozen=True)
class ScenarioSpec:
    scenario_id: str
    description: str
    defaults: Mapping[str, object]
    runner: Callable[[Mapping[str, object]], ScenarioResult]


SCENARIOS: dict[str, ScenarioSpec] = {}


def _register(scenario_id: str, description: str, defaults: Mapping[str, object]):
    def wrap(fn):
        SCENARIOS[scenario_id] = ScenarioSpec(scenario_id, description, dict(defaults), fn)
        return fn

    return wrap


def list_scenarios() -> list:
    """Registered (id, description) pairs in registration order."""
    return [(spec.scenario_id, spec.description) for spec in SCENARIOS.values()]


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

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


def _coerce(key: str, raw: object, default: object) -> object:
    value = raw
    if isinstance(raw, str):
        try:
            if isinstance(default, bool):
                value = raw.lower() in ("1", "true", "yes")
            elif isinstance(default, int):
                value = int(raw)
            elif isinstance(default, float):
                value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: cannot parse {raw!r} as {type(default).__name__}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {key}: {raw!r} is not a finite number")
    return value


def make_config(
    scenario_id: str,
    overrides: Optional[Mapping[str, object]] = None,
    out_path: Optional[str] = None,
) -> ScenarioConfig:
    """Merge overrides into the scenario defaults, rejecting unknown keys."""
    if scenario_id not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario_id!r}; see 'wva-lab list'")
    defaults = SCENARIOS[scenario_id].defaults
    params = dict(defaults)
    for key, raw in (overrides or {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for scenario {scenario_id}")
        params[key] = _coerce(key, raw, defaults[key])
    return ScenarioConfig(scenario_id=scenario_id, params=params, out_path=out_path)


# ---------------------------------------------------------------------------
# Shared sweep machinery
# ---------------------------------------------------------------------------

def _floats(value: object) -> list:
    parts = [p for p in str(value).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"empty list value {value!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"cannot parse list {value!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"list {value!r} has a non-finite entry")
    return values


def _count(params: Mapping[str, object], key: str) -> int:
    value = int(params[key])
    if value < 1:
        raise ConfigError(f"{key} must be >= 1, got {value}")
    return value


def _counts(params: Mapping[str, object], key: str) -> list:
    values = [int(v) for v in _floats(params[key])]
    if min(values) < 1:
        raise ConfigError(f"{key} entries must be >= 1, got {params[key]!r}")
    return values


def _stepped(params: Mapping[str, object], lo: float, hi_key: str, step_key: str, min_points: int) -> np.ndarray:
    """lo, lo + step, ... up to the ``hi_key`` value, rounded to whole steps."""
    step = float(params[step_key])
    if step <= 0:
        raise ConfigError(f"{step_key} must be > 0, got {step!r}")
    count = int(round((float(params[hi_key]) - lo) / step)) + 1
    if count < min_points:
        raise ConfigError(f"{hi_key} and {step_key} give {count} points, need at least {min_points}")
    return lo + step * np.arange(count)


def _geomspace(params: Mapping[str, object], lo_key: str, hi_key: str, count_key: str) -> np.ndarray:
    lo, hi = float(params[lo_key]), float(params[hi_key])
    if not 0 < lo <= hi:
        raise ConfigError(f"need 0 < {lo_key} <= {hi_key}, got {lo!r}, {hi!r}")
    return np.geomspace(lo, hi, _count(params, count_key))


def _tau_grid_as(params: Mapping[str, object]) -> np.ndarray:
    # at least 3 points: the rates are central differences
    return _stepped(params, 0.0, "tau_max_as", "tau_step_as", 3)


def _rhos(values, what: str):
    """``values`` (one postselection angle or an array of them), checked to
    lie in (0, pi/2)."""
    angles = np.asarray(values, dtype=float)
    outside = angles[~((angles > 0.0) & (angles < 0.5 * math.pi))]
    if outside.size:
        raise ConfigError(f"{what} must lie in (0, pi/2), got {float(outside[0])!r}")
    return values


_RULES = {"> 0": operator.gt, ">= 0": operator.ge, "!= 0": operator.ne}


def _checked(params: Mapping[str, object], key: str, rule: str) -> float:
    """The ``key`` value as a float, checked against ``rule`` (a key of _RULES)."""
    value = float(params[key])
    if not _RULES[rule](value, 0.0):
        raise ConfigError(f"{key} must be {rule}, got {value!r}")
    return value


def _i_init_v(params: Mapping[str, object], rho: float = RHO_RAD) -> float:
    """``calibrated_i_init_v`` from the config's calibration anchors."""
    return calibrated_i_init_v(
        _checked(params, "delta_i_coherent_V", "> 0"),
        _checked(params, "target_delta_k_n3_fm", "> 0") * 1e-15,
        rho,
    )


def _gamma_m(gamma_pi_units: float) -> float:
    if gamma_pi_units < 0.0:
        raise ConfigError(f"gamma_pi_units must be >= 0, got {gamma_pi_units!r}")
    return gamma_pi_units * math.pi / P0_RAD_PER_M


def _make_profile(
    params: Mapping[str, object], width_nm: float, shape: Optional[str] = None
) -> SpectralProfile:
    try:
        return SpectralProfile(
            shape=shape or str(params.get("shape", "supergaussian")),
            center_wavelength=LAMBDA0_M,
            width=width_nm * 1e-9,
            order=int(params.get("order", 6)),
            width_convention=str(params.get("width_convention", "sigma")),
        )
    except ValueError as exc:
        raise ConfigError(f"spectral profile: {exc}") from exc


def _wlabel(width_nm: float) -> str:
    return f"w{width_nm:g}nm"


def _sweep_delta_lambda(
    profile: SpectralProfile,
    taus_as: np.ndarray,
    n_interactions: int,
    gamma: float,
    rho: float,
):
    """Wavelength-shift and probability traces over a time-difference sweep.

    The grid levels are built for the largest phase length (the last tau):
    the first has a floor of ``_SWEEP_MIN_GRID_POINTS`` points and each next
    one doubles it.  Consecutive levels are compared until two agree to
    ``_SWEEP_TOLERANCE`` (probability relative to itself, delta_p relative to
    sigma_p), and the finer of the two is returned.  Coarser levels are read
    as strided subgrids of a finer grid, so one kernel call covers the first
    three levels and each later call adds one.  Raises NumericalError if a
    level would take more than MAX_GRID_POINTS points.
    """
    k_max = SPEED_OF_LIGHT * float(taus_as[-1]) * 1e-18
    widest = MwiSettings(n_interactions, k_max, gamma, rho)
    phase_lengths = n_interactions * (SPEED_OF_LIGHT * taus_as * 1e-18) + gamma
    sigma_p = effective_sigma_p(profile)
    n_intervals = grid_point_count(profile, widest, min_points=_SWEEP_MIN_GRID_POINTS) - 1
    n_levels = 3  # the first call reads the grid and its stride-2 and stride-4 subgrids
    while True:
        while n_levels > 1 and n_intervals * 2 ** (n_levels - 1) + 1 > MAX_GRID_POINTS:
            n_levels -= 1
        if n_levels == 1:
            raise NumericalError(
                f"sweep quadrature did not converge to {_SWEEP_TOLERANCE:g} "
                f"within {MAX_GRID_POINTS} grid points"
            )
        n_intervals *= 2 ** (n_levels - 1)
        grid = build_grid(profile, widest, min_points=n_intervals + 1)
        prob, delta_p = _collapse_moments_on_levels(grid, phase_lengths, rho, n_levels)
        # level j is the stride-2^j subgrid: compare the coarsest pair first
        for fine in range(n_levels - 2, -1, -1):
            if np.all(np.abs(prob[fine] - prob[fine + 1]) <= _SWEEP_TOLERANCE * prob[fine]) and np.all(
                np.abs(delta_p[fine] - delta_p[fine + 1]) <= _SWEEP_TOLERANCE * sigma_p
            ):
                to_nm = -(profile.center_wavelength**2 / (2.0 * math.pi)) * 1e9
                return to_nm * delta_p[fine], prob[fine]
        n_levels = 2


def linear_region_rate(taus_as: np.ndarray, values: np.ndarray) -> float:
    """|slope| of a least-squares line over the monotone segment between the
    trace extrema -- the measured 'linear region' of a shift-vs-tau curve."""
    i_min, i_max = int(np.argmin(values)), int(np.argmax(values))
    lo, hi = (i_min, i_max) if i_min < i_max else (i_max, i_min)
    t = taus_as[lo : hi + 1]
    v = values[lo : hi + 1]
    if t.size < 2:
        return peak_local_rate(taus_as, values)
    dt = t - t.mean()
    return abs(float(np.dot(dt, v - v.mean()) / np.dot(dt, dt)))


def peak_local_rate(taus_as: np.ndarray, values: np.ndarray) -> float:
    """Largest |central-difference slope| on the sampled trace."""
    if taus_as.size < 3:
        raise ValueError("need at least 3 sweep points")
    slopes = (values[2:] - values[:-2]) / (taus_as[2:] - taus_as[:-2])
    return float(np.max(np.abs(slopes)))


def _delta_tau_as_from_rate(rate_nm_per_as: float, resolution_m: float) -> float:
    """Momentum-pointer precision from a wavelength-shift rate, attoseconds."""
    rate_per_m_of_k = rate_nm_per_as * 1e-9 / (SPEED_OF_LIGHT * 1e-18)  # d(dlam)/dk, m/m
    return precision(resolution_m, rate_per_m_of_k, pointer="P").delta_tau * 1e18


def _echo_presets(summary: dict, pairs: Mapping[str, object]) -> None:
    for key, value in pairs.items():
        summary[f"preset.{key}"] = value


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

_TRACE_DEFAULTS = {
    "shape": "supergaussian",
    "order": 6,
    "width_convention": "sigma",
    "rho_rad": RHO_RAD,
    "gamma_pi_units": GAMMA_PI_UNITS,
    "tau_max_as": 330.0,
    "tau_step_as": 1.0,
    "spectrometer_resolution_m": SPECTROMETER_RESOLUTION_M,
}


@_register(
    "fig3a",
    "Wavelength-shift traces vs time difference for four flat-top source widths; "
    "extracts linear-region shift rates and momentum-pointer precisions",
    {**_TRACE_DEFAULTS, "widths_nm": "0.5,1,3,6", "n_interactions": 1},
)
def _run_fig3a(params: Mapping[str, object]) -> ScenarioResult:
    widths = _floats(params["widths_nm"])
    taus = _tau_grid_as(params)
    gamma = _gamma_m(float(params["gamma_pi_units"]))
    rho = _rhos(float(params["rho_rad"]), "rho_rad")
    n = _count(params, "n_interactions")
    res_m = _checked(params, "spectrometer_resolution_m", "> 0")

    rows = []
    summary: dict = {}
    _echo_presets(summary, {
        "lambda0_nm": LAMBDA0_M * 1e9,
        "rho_rad": rho,
        "gamma_pi_units": float(params["gamma_pi_units"]),
        "spectrometer_resolution_pm": res_m * 1e12,
    })
    for width in widths:
        profile = _make_profile(params, width)
        dlam, prob = _sweep_delta_lambda(profile, taus, n, gamma, rho)
        fitted = linear_region_rate(taus, dlam)
        peak = peak_local_rate(taus, dlam)
        label = _wlabel(width)
        summary[f"{label}.fitted_rate_nm_per_as"] = fitted
        summary[f"{label}.peak_rate_nm_per_as"] = peak
        summary[f"{label}.delta_tau_as"] = _delta_tau_as_from_rate(fitted, res_m)
        rows.extend(zip(repeat(width), taus.tolist(), dlam.tolist(), prob.tolist()))
    return ScenarioResult(
        "fig3a",
        ("sigma_lambda_nm", "tau_as", "delta_lambda_nm", "postselection_probability_1"),
        rows,
        summary,
    )


@_register(
    "fig3b",
    "Map of the local wavelength-shift rate over time difference and source width "
    "(up to 300 nm); locates the maximum-rate band",
    {
        **_TRACE_DEFAULTS,
        "n_interactions": 1,
        "width_min_nm": 0.5,
        "width_max_nm": 300.0,
        "n_widths": 48,
        "band_threshold": 0.95,
    },
)
def _run_fig3b(params: Mapping[str, object]) -> ScenarioResult:
    widths = _geomspace(params, "width_min_nm", "width_max_nm", "n_widths")
    taus = _tau_grid_as(params)
    gamma = _gamma_m(float(params["gamma_pi_units"]))
    rho = _rhos(float(params["rho_rad"]), "rho_rad")
    n = _count(params, "n_interactions")
    threshold = float(params["band_threshold"])
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"band_threshold must lie in (0, 1], got {threshold!r}")

    rows = []
    width_peaks = []
    best = (-1.0, 0.0, 0.0)  # (rate, width, tau)
    for width in widths:
        profile = _make_profile(params, float(width))
        dlam, _ = _sweep_delta_lambda(profile, taus, n, gamma, rho)
        slopes = (dlam[2:] - dlam[:-2]) / (taus[2:] - taus[:-2])
        rates = np.abs(slopes)
        width_peaks.append(float(np.max(rates)))
        if width_peaks[-1] > best[0]:
            best = (width_peaks[-1], float(width), float(taus[1:-1][int(np.argmax(rates))]))
        rows.extend(zip(repeat(float(width)), taus[1:-1].tolist(), dlam[1:-1].tolist(), rates.tolist()))

    peaks = np.array(width_peaks)
    in_band = widths[peaks >= threshold * best[0]]
    summary = {
        "max_rate_nm_per_as": best[0],
        "max_rate_sigma_lambda_nm": best[1],
        "max_rate_tau_as": best[2],
        "band_threshold": threshold,
        "band_lo_sigma_lambda_nm": float(in_band.min()),
        "band_hi_sigma_lambda_nm": float(in_band.max()),
    }
    return ScenarioResult(
        "fig3b",
        ("sigma_lambda_nm", "tau_as", "delta_lambda_nm", "rate_nm_per_as"),
        rows,
        summary,
    )


@_register(
    "fig4",
    "Wavelength-shift traces at N = 1, 2, 3 passes for one source width; "
    "extracts per-N rates, amplification ratios, and precisions",
    {**_TRACE_DEFAULTS, "width_nm": 6.0, "n_list": "1,2,3"},
)
def _run_fig4(params: Mapping[str, object]) -> ScenarioResult:
    width = float(params["width_nm"])
    n_list = _counts(params, "n_list")
    taus = _tau_grid_as(params)
    gamma = _gamma_m(float(params["gamma_pi_units"]))
    rho = _rhos(float(params["rho_rad"]), "rho_rad")
    res_m = _checked(params, "spectrometer_resolution_m", "> 0")
    profile = _make_profile(params, width)

    rows = []
    summary: dict = {}
    peak_rates = {}
    for n in n_list:
        dlam, prob = _sweep_delta_lambda(profile, taus, n, gamma, rho)
        fitted = linear_region_rate(taus, dlam)
        peak = peak_local_rate(taus, dlam)
        peak_rates[n] = peak
        summary[f"n{n}.fitted_rate_nm_per_as"] = fitted
        summary[f"n{n}.peak_rate_nm_per_as"] = peak
        summary[f"n{n}.delta_tau_as"] = _delta_tau_as_from_rate(fitted, res_m)
        rows.extend(zip(repeat(n), taus.tolist(), dlam.tolist(), prob.tolist()))
    base = n_list[0]
    for n in n_list[1:]:
        summary[f"rate_ratio_n{n}_over_n{base}"] = peak_rates[n] / peak_rates[base]
    return ScenarioResult(
        "fig4",
        ("n_1", "tau_as", "delta_lambda_nm", "postselection_probability_1"),
        rows,
        summary,
    )


_INTENSITY_DEFAULTS = {
    "rho_rad": RHO_RAD,
    "k_max_m": 4.5e-10,
    "k_step_m": 7.5e-12,
    "shape": "supergaussian",
    "order": 6,
    "width_convention": "sigma",
    "noise_floor_V": NOISE_FLOOR_V,
    "delta_i_coherent_V": DELTA_I_V["coherent"],
    "target_delta_k_n3_fm": TARGET_DELTA_K_N3_M * 1e15,
}


def _k_grid_m(params: Mapping[str, object]) -> np.ndarray:
    return _stepped(params, 0.0, "k_max_m", "k_step_m", 2)


def _intensity_trace(i_init, sigma_p, rho, n, k_values, noise):
    rows = []
    for k in k_values:
        if k == 0.0:
            prob = postselection_probability_gaussian(sigma_p, P0_RAD_PER_M, MwiSettings(n, 0.0, 0.0, rho))
            intensity, shift = i_init * prob, 0.0
        else:
            res = intensity_after_postselection(i_init, sigma_p, P0_RAD_PER_M, MwiSettings(n, float(k), 0.0, rho))
            intensity, shift = res.intensity, res.relative_shift
        rows.append((float(k), intensity, shift, snr_db(intensity, noise)))
    return rows


@_register(
    "fig5",
    "Intensity-pointer response vs interaction strength for coherent and flat-top "
    "sources at N = 1, 2, 3; calibrated displacement precisions",
    {
        **_INTENSITY_DEFAULTS,
        "coherent_n_list": "1,2,3",
        "vsns_widths_nm": "0.5,1,3",
        "reference_k_m": 3e-12,
        "delta_i_05_V": DELTA_I_V["0.5"],
        "delta_i_1_V": DELTA_I_V["1"],
        "delta_i_3_V": DELTA_I_V["3"],
    },
)
def _run_fig5(params: Mapping[str, object]) -> ScenarioResult:
    rho = _rhos(float(params["rho_rad"]), "rho_rad")
    noise = _checked(params, "noise_floor_V", "> 0")
    k_values = _k_grid_m(params)
    i_init = _i_init_v(params, rho)
    rate_base = i_init * 0.5 * P0_RAD_PER_M * math.sin(2.0 * rho)  # dI/dk per pass, V/m

    rows = []
    summary: dict = {"i_init_V": i_init}
    k_ref = _checked(params, "reference_k_m", "!= 0")
    shifts_at_ref = {}
    coherent_n_list = _counts(params, "coherent_n_list")
    for n in coherent_n_list:
        for k, intensity, shift, snr in _intensity_trace(i_init, 0.0, rho, n, k_values, noise):
            rows.append((0.0, n, k, intensity, shift, snr))
        shifts_at_ref[n] = intensity_after_postselection(
            i_init, 0.0, P0_RAD_PER_M, MwiSettings(n, k_ref, 0.0, rho)
        ).relative_shift
        delta_k = float(params["delta_i_coherent_V"]) / (rate_base * n)
        summary[f"coherent.n{n}.delta_k_fm"] = delta_k * 1e15
    base_n = coherent_n_list[0]
    for n in coherent_n_list[1:]:
        summary[f"delta_ell_ratio_n{n}_over_n{base_n}"] = shifts_at_ref[n] / shifts_at_ref[base_n]
    summary["coherent.n1.quoted_delta_k_fm"] = QUOTED_DELTA_K_FM["coherent"]
    summary["coherent.n1.quoted_deviation_percent"] = (
        (float(params["delta_i_coherent_V"]) / rate_base * 1e15 - QUOTED_DELTA_K_FM["coherent"])
        / QUOTED_DELTA_K_FM["coherent"] * 100.0
    )

    delta_i_by_key = {
        "0.5": _checked(params, "delta_i_05_V", "> 0"),
        "1": _checked(params, "delta_i_1_V", "> 0"),
        "3": _checked(params, "delta_i_3_V", "> 0"),
    }
    for width in _floats(params["vsns_widths_nm"]):
        sigma_p = effective_sigma_p(_make_profile(params, width))
        for k, intensity, shift, snr in _intensity_trace(i_init, sigma_p, rho, 1, k_values, noise):
            rows.append((width, 1, k, intensity, shift, snr))
        key = f"{width:g}"
        delta_i = delta_i_by_key.get(key)
        if delta_i is None:
            continue  # no quoted uncertainty for this width; trace rows only
        delta_k = delta_i / rate_base
        summary[f"{_wlabel(width)}.delta_k_fm"] = delta_k * 1e15
        quoted = QUOTED_DELTA_K_FM.get(key)
        if quoted is not None:
            summary[f"{_wlabel(width)}.quoted_delta_k_fm"] = quoted
            summary[f"{_wlabel(width)}.quoted_deviation_percent"] = (
                (delta_k * 1e15 - quoted) / quoted * 100.0
            )
    return ScenarioResult(
        "fig5",
        ("sigma_lambda_nm", "n_1", "k_m", "intensity_V", "relative_shift_1", "snr_db"),
        rows,
        summary,
    )


@_register(
    "fig6",
    "K31 values and weak values over the postselection angle at N = 1, 2, 3; "
    "maps the negativity (quantum-effect) region",
    {
        "rho_min_rad": 0.002,
        "rho_max_rad": 0.0124,
        "rho_step_rad": 2e-4,
        "n_list": "1,2,3",
        "probe_k_m": 1e-13,
        "probe_sigma_p_rad_per_m": 0.0,
        "boundary_scan_step_rad": 1e-3,
        "boundary_scan_max_rad": 1.5,
    },
)
def _run_fig6(params: Mapping[str, object]) -> ScenarioResult:
    rhos = _rhos(
        _stepped(params, float(params["rho_min_rad"]), "rho_max_rad", "rho_step_rad", 1),
        "angles from rho_min_rad to rho_max_rad",
    )
    n_list = _counts(params, "n_list")
    probe_k = float(params["probe_k_m"])
    probe_sigma = _checked(params, "probe_sigma_p_rad_per_m", ">= 0")
    scan_max = float(params["boundary_scan_max_rad"])
    scan_step = _checked(params, "boundary_scan_step_rad", "> 0")
    if scan_max <= scan_step:
        raise ConfigError(f"boundary_scan_max_rad must exceed boundary_scan_step_rad, got {scan_max!r}")

    rows = []
    summary: dict = {}
    for n in n_list:
        for rho in rhos:
            approx = k31(n, float(rho))
            exact = k31(n, float(rho), sigma_p=probe_sigma, p0=P0_RAD_PER_M, k=probe_k)
            rows.append((n, float(rho), approx.im_weak_value, approx.k31, exact.k31))
        summary[f"n{n}.boundary_scan_rad"] = negativity_boundary_scan(n, scan_max, scan_step)
        summary[f"n{n}.boundary_arctan_rad"] = quantum_region_boundary(n)
    spot = k31(3, 0.0124)
    summary["k31_n3_rho0.0124"] = spot.k31
    summary["im_weak_value_n3_rho0.0124"] = spot.im_weak_value
    summary["quoted_im_weak_value"] = QUOTED_IM_WEAK_VALUE_238
    summary["im_weak_value_deviation_percent"] = (
        (spot.im_weak_value - QUOTED_IM_WEAK_VALUE_238) / QUOTED_IM_WEAK_VALUE_238 * 100.0
    )
    return ScenarioResult(
        "fig6",
        ("n_1", "rho_rad", "im_weak_value_1", "k31_approx_1", "k31_exact_1"),
        rows,
        summary,
    )


@_register(
    "s2_spectrum_evolution",
    "Collapsed spectra at a sequence of time differences for a 3 nm source "
    "(both pointer shifts visible in the table)",
    {
        "width_nm": 3.0,
        "shape": "supergaussian",
        "order": 6,
        "width_convention": "sigma",
        "rho_rad": RHO_RAD,
        "gamma_pi_units": GAMMA_PI_UNITS,
        "n_interactions": 1,
        "tau_list_as": "0,40,80,120,160,200,240",
        "subsample_stride": 32,
    },
)
def _run_s2(params: Mapping[str, object]) -> ScenarioResult:
    profile = _make_profile(params, float(params["width_nm"]))
    gamma = _gamma_m(float(params["gamma_pi_units"]))
    rho = _rhos(float(params["rho_rad"]), "rho_rad")
    n = _count(params, "n_interactions")
    taus = _floats(params["tau_list_as"])
    stride = _count(params, "subsample_stride")

    k_max = SPEED_OF_LIGHT * max(taus) * 1e-18
    grid = build_grid(profile, MwiSettings(n, k_max, gamma, rho))
    rows = []
    for tau_as in taus:
        settings = MwiSettings(n, SPEED_OF_LIGHT * tau_as * 1e-18, gamma, rho)
        res = collapsed_density(profile, settings, grid=grid)
        for idx in range(0, grid.points.size, stride):
            lam = lambda_p_convert(float(grid.points[idx]))
            to_per_nm = (2.0 * math.pi / lam**2) * 1e-9  # |dp/dlambda| in rad/m per nm
            rows.append(
                (
                    tau_as,
                    lam * 1e9,
                    float(grid.density[idx]) * to_per_nm,
                    float(res.density.density[idx]) * to_per_nm,
                )
            )
    summary = {
        "grid_points": int(grid.points.size),
        "emitted_rows": len(rows),
        "densities_normalized": True,
    }
    return ScenarioResult(
        "s2_spectrum_evolution",
        ("tau_as", "lambda_nm", "initial_density_per_nm", "collapsed_density_per_nm"),
        rows,
        summary,
    )


@_register(
    "s3_intensity",
    "Single-pass intensity-pointer sweeps for coherent and narrow flat-top sources: "
    "signal, relative shift, SNR, and displacement precisions",
    {
        **_INTENSITY_DEFAULTS,
        "vsns_widths_nm": "0.5,1,3",
        "delta_i_05_V": DELTA_I_V["0.5"],
        "delta_i_1_V": DELTA_I_V["1"],
        "delta_i_3_V": DELTA_I_V["3"],
    },
)
def _run_s3(params: Mapping[str, object]) -> ScenarioResult:
    rho = _rhos(float(params["rho_rad"]), "rho_rad")
    noise = _checked(params, "noise_floor_V", "> 0")
    k_values = _k_grid_m(params)
    i_init = _i_init_v(params, rho)
    rate = i_init * 0.5 * P0_RAD_PER_M * math.sin(2.0 * rho)  # single pass, V/m

    delta_i_by_key = {
        "coherent": float(params["delta_i_coherent_V"]),
        "0.5": _checked(params, "delta_i_05_V", "> 0"),
        "1": _checked(params, "delta_i_1_V", "> 0"),
        "3": _checked(params, "delta_i_3_V", "> 0"),
    }
    sources = [("coherent", 0.0)] + [
        (f"{w:g}", w) for w in _floats(params["vsns_widths_nm"])
    ]
    rows = []
    summary: dict = {"i_init_V": i_init}
    for key, width in sources:
        sigma_p = 0.0 if width == 0.0 else effective_sigma_p(_make_profile(params, width))
        trace = _intensity_trace(i_init, sigma_p, rho, 1, k_values, noise)
        rows.extend((width, k, intensity, shift, snr) for k, intensity, shift, snr in trace)
        label = "coherent" if width == 0.0 else _wlabel(width)
        summary[f"{label}.max_snr_db"] = max(snr for _, _, _, snr in trace)
        delta_i = delta_i_by_key.get(key)
        if delta_i is None:
            continue
        delta_k_fm = delta_i / rate * 1e15
        summary[f"{label}.delta_k_fm"] = delta_k_fm
        quoted = QUOTED_DELTA_K_FM.get(key)
        if quoted is not None:
            summary[f"{label}.quoted_delta_k_fm"] = quoted
            summary[f"{label}.quoted_deviation_percent"] = (delta_k_fm - quoted) / quoted * 100.0
    summary["coherent.quoted_op_snr_db"] = snr_db(
        noise * 10 ** (QUOTED_OP_SNR_DB / 10.0), noise
    )
    return ScenarioResult(
        "s3_intensity",
        ("sigma_lambda_nm", "k_m", "intensity_V", "relative_shift_1", "snr_db"),
        rows,
        summary,
    )


@_register(
    "s4_weak_values",
    "Weak-value extraction from forward intensity shifts over the postselection "
    "angle, with the round-trip recovery error and SNR",
    {
        "n_list": "1,3",
        "rho_min_rad": 0.002,
        "rho_max_rad": 0.1,
        "n_rhos": 40,
        "probe_k_m": 3e-12,
        "probe_sigma_p_rad_per_m": 0.0,
        "noise_floor_V": NOISE_FLOOR_V,
        "delta_i_coherent_V": DELTA_I_V["coherent"],
        "target_delta_k_n3_fm": TARGET_DELTA_K_N3_M * 1e15,
        "anomalous_target": 1478.0,
    },
)
def _run_s4(params: Mapping[str, object]) -> ScenarioResult:
    rhos = _rhos(
        _geomspace(params, "rho_min_rad", "rho_max_rad", "n_rhos"),
        "angles from rho_min_rad to rho_max_rad",
    )
    n_list = _counts(params, "n_list")
    k_probe = _checked(params, "probe_k_m", "!= 0")
    sigma_p = _checked(params, "probe_sigma_p_rad_per_m", ">= 0")
    noise = _checked(params, "noise_floor_V", "> 0")
    i_init = _i_init_v(params)
    target = _checked(params, "anomalous_target", "> 0")

    rows = []
    for n in n_list:
        for rho in rhos:
            rho = float(rho)
            settings = MwiSettings(n, k_probe, 0.0, rho)
            forward = intensity_shift_approx(sigma_p, P0_RAD_PER_M, settings)
            recovered = weak_value_from_shift(forward, k_probe, P0_RAD_PER_M, sigma_p, n)
            theory = n / math.tan(rho)
            rows.append(
                (
                    n,
                    rho,
                    theory,
                    k31(n, rho).k31,
                    forward,
                    recovered,
                    abs(recovered - theory) / theory,
                    snr_db(i_init * math.sin(rho) ** 2, noise),
                )
            )

    rho_star = math.atan(3.0 / target)
    summary = {
        "rho_star_rad": rho_star,
        "rho_star_inferred": True,  # back-solved from the anomalous target, not quoted
        "weak_value_at_rho_star_1": 3.0 / math.tan(rho_star),
        "k31_at_rho_star_1": k31(3, rho_star).k31,
        "snr_at_rho_star_db": snr_db(i_init * math.sin(rho_star) ** 2, noise),
    }
    return ScenarioResult(
        "s4_weak_values",
        (
            "n_1",
            "rho_rad",
            "im_weak_value_theory_1",
            "k31_1",
            "forward_relative_shift_1",
            "recovered_im_weak_value_1",
            "recovery_rel_error_1",
            "snr_db",
        ),
        rows,
        summary,
    )


def oracle_case_matrix(params: Mapping[str, object]):
    """(shape, width_nm, n, k, rho, gamma_pi) tuples for the verification matrix."""
    shapes = [s.strip() for s in str(params["shapes"]).split(",") if s.strip()]
    if not shapes:
        raise ConfigError(f"shapes must name at least one shape, got {params['shapes']!r}")
    for shape in shapes:
        for n in _counts(params, "n_list"):
            for k in _floats(params["k_list_m"]):
                for rho in _rhos(_floats(params["rho_list_rad"]), "rho_list_rad entries"):
                    for gamma_pi in _floats(params["gamma_pi_list"]):
                        yield shape, float(params["sigma_lambda_nm"]), n, k, rho, gamma_pi


def oracle_deviation_rows(params: Mapping[str, object]) -> list:
    """(shape, width_nm, n, k, rho, gamma_pi, deviation) for every case of the
    verification matrix.  The deviation is the max relative pointwise
    difference between the collapsed density and the joint-state oracle on
    the case's ``build_grid`` grid, over points above 1e-15 of the peak.

    Both densities depend on a case only through its grid (profile and point
    count), its phase length L = N*k + gamma and rho.  The cases are grouped
    by grid, then by L, then by rho: each distinct grid is built once, one
    at a time; the oracle's complex phase is taken once per (grid, L); the
    two densities and their deviation once per (grid, L, rho), and shared by
    every case with those values.
    """
    cases = list(oracle_case_matrix(params))
    # (profile, point count) -> L -> (settings of its first case, rho -> case indices)
    groups: dict = {}
    for index, (shape, width_nm, n, k, rho, gamma_pi) in enumerate(cases):
        profile = _make_profile(params, width_nm, shape)
        settings = MwiSettings(n, k, _gamma_m(gamma_pi), rho)
        by_length = groups.setdefault((profile, grid_point_count(profile, settings)), {})
        _, by_rho = by_length.setdefault(settings.phase_length, (settings, {}))
        by_rho.setdefault(rho, []).append(index)
    deviations = [0.0] * len(cases)
    for (profile, n_points), by_length in groups.items():
        _fill_grid_deviations(build_grid(profile, min_points=n_points), by_length, deviations)
    return [(*case, dev) for case, dev in zip(cases, deviations)]


def _fill_grid_deviations(grid: MomentumGrid, by_length: dict, deviations: list) -> None:
    """Write the oracle deviation of every case on one grid into
    ``deviations``; the grid and its arrays are released on return."""
    root_density = np.sqrt(grid.density)
    for phase_length, (settings, by_rho) in by_length.items():
        amp_h = _oracle_amplitude(grid.points, settings)
        for rho, indices in by_rho.items():
            d = _collapse(grid, phase_length, 2.0 * rho)
            o = _oracle_project(amp_h, root_density, rho)
            mask = d > 1e-15 * float(d.max())
            dev = float(np.max(np.abs(d[mask] - o[mask]) / d[mask]))
            for index in indices:
                deviations[index] = dev


def _check_denominator(name: str, value: float, case: str) -> None:
    """A closed form that a relative deviation divides by must be finite and
    nonzero (the Gaussian shift underflows to 0 once sigma_p * L passes ~38)."""
    if value == 0.0 or not math.isfinite(value):
        raise NumericalError(f"closed-form {name} is {value!r} for case {case}: no relative deviation")


def closed_form_deviations(params: Mapping[str, object]) -> tuple:
    """Worst relative deviations (probability, delta_p) of the refinement-guarded
    quadrature from the Gaussian closed forms, over the matrix's Gaussian cases
    with gamma = 0 and k != 0."""
    worst_prob = 0.0
    worst_shift = 0.0
    for shape, width_nm, n, k, rho, gamma_pi in oracle_case_matrix(params):
        if shape != "gaussian" or gamma_pi != 0.0 or k == 0.0:
            continue
        profile = _make_profile(params, width_nm, shape)
        settings = MwiSettings(n, k, _gamma_m(gamma_pi), rho)
        sigma_p = effective_sigma_p(profile)
        quad = collapsed_density(profile, settings)
        case = f"shape={shape} n={n} k={k!r} rho={rho!r} gamma_pi={gamma_pi!r}"
        prob_closed = postselection_probability_gaussian(sigma_p, P0_RAD_PER_M, settings)
        _check_denominator("probability", prob_closed, case)
        shift_closed = pointer_shift_p_gaussian(sigma_p, P0_RAD_PER_M, settings)
        _check_denominator("shift", shift_closed, case)
        worst_prob = max(worst_prob, abs(quad.postselection_probability - prob_closed) / prob_closed)
        worst_shift = max(worst_shift, abs(quad.delta_p - shift_closed) / abs(shift_closed))
    return worst_prob, worst_shift


@_register(
    "oracle_suite",
    "Joint-state oracle vs collapsed-density comparison over the shape x N x k x rho "
    "x gamma matrix, plus Gaussian closed-form consistency checks",
    {
        "shapes": "gaussian,supergaussian,rectangular",
        "sigma_lambda_nm": 6.0,
        "n_list": "1,2,3",
        "k_list_m": "0,1e-12,1e-10",
        "rho_list_rad": "0.002,0.01,0.1",
        "gamma_pi_list": "0,1.9",
        "order": 6,
        "width_convention": "sigma",
        "oracle_tolerance": 1e-10,
        "prob_tolerance": 1e-9,
        "shift_tolerance": 1e-6,
    },
)
def _run_oracle_suite(params: Mapping[str, object]) -> ScenarioResult:
    rows = oracle_deviation_rows(params)
    worst_oracle = max((row[-1] for row in rows), default=0.0)
    worst_prob, worst_shift = closed_form_deviations(params)
    passed = (
        worst_oracle <= float(params["oracle_tolerance"])
        and worst_prob <= float(params["prob_tolerance"])
        and worst_shift <= float(params["shift_tolerance"])
    )
    summary = {
        "oracle_worst_rel_dev": worst_oracle,
        "closed_form_prob_worst_rel_dev": worst_prob,
        "closed_form_shift_worst_rel_dev": worst_shift,
        "oracle_tolerance": float(params["oracle_tolerance"]),
        "prob_tolerance": float(params["prob_tolerance"]),
        "shift_tolerance": float(params["shift_tolerance"]),
        "pass": passed,
    }
    return ScenarioResult(
        "oracle_suite",
        ("shape", "sigma_lambda_nm", "n_1", "k_m", "rho_rad", "gamma_pi_1", "oracle_max_rel_dev_1"),
        rows,
        summary,
    )


# ---------------------------------------------------------------------------
# Execution and CSV output
# ---------------------------------------------------------------------------

def execute_scenario(config: ScenarioConfig) -> ScenarioResult:
    if config.scenario_id not in SCENARIOS:
        raise ConfigError(f"unknown scenario {config.scenario_id!r}; see 'wva-lab list'")
    result = SCENARIOS[config.scenario_id].runner(config.params)
    for column in zip(*result.rows):
        if not isinstance(column[0], str) and not np.all(np.isfinite(np.array(column, dtype=float))):
            raise NumericalError(f"scenario {config.scenario_id} produced a non-finite value")
    return result


def _validate_columns(columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    for idx, name in enumerate(columns):
        if rows and all(isinstance(row[idx], str) for row in rows):
            continue  # text column, no unit suffix required
        suffix = name.rsplit("_", 1)[-1]
        if suffix not in _ALLOWED_UNIT_SUFFIXES:
            raise ValueError(
                f"numeric column {name!r} lacks a unit suffix (allowed: {sorted(_ALLOWED_UNIT_SUFFIXES)})"
            )


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _format_column(values: Sequence) -> list:
    """``_format_cell`` of every value; a column of floats is formatted in one
    ``repr`` of a list of Python floats, which gives the same shortest
    round-trip text per value."""
    if all(issubclass(kind, float) for kind in set(map(type, values))):
        return repr(list(map(float, values)))[1:-1].split(", ")
    return [_format_cell(v) for v in values]


def render_csv(result: ScenarioResult, config: ScenarioConfig) -> str:
    """Deterministic CSV body: provenance comments, unit-suffixed header,
    rows sorted by their leading (input-coordinate) columns.  Rows are
    formatted by column, ``_RENDER_CHUNK_ROWS`` rows at a time."""
    _validate_columns(result.columns, result.rows)
    lines = [f"# wva-lab {_pkg_version}", f"# scenario={result.scenario_id}"]
    for key in sorted(config.params.keys()):
        lines.append(f"# config.{key}={_format_cell(config.params[key])}")
    lines.append(",".join(result.columns))
    rows = sorted(result.rows)
    for lo in range(0, len(rows), _RENDER_CHUNK_ROWS):
        columns = zip(*rows[lo : lo + _RENDER_CHUNK_ROWS])
        lines.extend(map(",".join, zip(*map(_format_column, columns))))
    return "\n".join(lines) + "\n"


def run_scenario(config: ScenarioConfig, stream: Optional[TextIO] = None) -> ScenarioResult:
    """Execute a scenario, write its CSV, and print the summary as key=value lines."""
    stream = stream if stream is not None else sys.stdout
    result = execute_scenario(config)
    text = render_csv(result, config)
    out_path = config.out_path or f"{config.scenario_id}.csv"
    with open(out_path, "w", newline="\n") as fh:
        fh.write(text)
    print(f"csv={out_path}", file=stream)
    print(f"rows={len(result.rows)}", file=stream)
    for key, value in result.summary.items():
        print(f"{key}={_format_cell(value)}", file=stream)
    return result
