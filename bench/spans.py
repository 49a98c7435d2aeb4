"""Layer tracing for the benchmark, installed from outside the program.

While a ``Tracer`` is installed, the public functions listed in ``LAYERS``
are replaced, in every ``wva_lab`` module namespace that holds them, by
wrappers that record a span (name, start, end, parent, pass id) and the
layer's work counters.  Metrics are summed per pass as spans close; the
spans of the first few passes stay in memory until the run writes them out.
A layer's self time is its spans' durations minus the time covered by their
child spans, so the self times of one pass add up to the pass.
"""
from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter


def _density_points(args, result):
    return result.density.points.size


# layer -> (time metric suffix, [(module, function)], {counter: f(args, result)}).
# bytes_computed is derived from array sizes: the three float64 arrays
# (density, points, weights) that each moment evaluation reads.
LAYERS = {
    "cli": ("self_s", [("scenarios", "run_scenario")], {}),
    "scenarios.make_config": ("s", [("scenarios", "make_config")], {}),
    "scenarios.runner": ("self_s", [("scenarios", "execute_scenario"), ("scenarios", "_run_oracle_suite")], {}),
    "scenarios.summary": ("s", [("scenarios", "linear_region_rate"), ("scenarios", "peak_local_rate"),
                                ("metrology", "precision"), ("metrology", "snr_db")], {}),
    "scenarios.render_csv": ("s", [("scenarios", "render_csv")],
                             {"bytes": lambda args, result: len(result.encode())}),
    "spectra.build_grid": ("s", [("spectra", "build_grid")], {"points": lambda args, result: result.points.size}),
    "meter.collapse_moments_on_grid": ("s", [("meter", "collapse_moments_on_grid")],
                                       {"points": lambda args, result: args[0].points.size,
                                        "bytes_computed": lambda args, result: 3 * 8 * args[0].points.size}),
    "meter.collapsed_density": ("s", [("meter", "collapsed_density")], {"points": _density_points}),
    "meter.oracle_joint_state": ("s", [("meter", "oracle_joint_state")], {"points": _density_points}),
    "meter.closed_form": ("s", [("meter", f) for f in (
        "postselection_probability_gaussian", "pointer_shift_p_gaussian", "pointer_shift_p_approx",
        "intensity_after_postselection", "intensity_shift_approx")], {}),
    "lgi": ("s", [("lgi", f) for f in (
        "k31", "quantum_region_boundary", "negativity_boundary_scan", "weak_value_from_shift")], {}),
    "verify": ("self_s", [("verify", "verify_all")], {}),
}
# Each pass's invocations; their spans are opened by the benchmark around
# ``cli.main`` and their self time counts to the cli layer.
INVOCATIONS = ("fig3a", "fig3b", "fig4", "fig5", "fig6", "s2_spectrum_evolution",
               "s3_intensity", "s4_weak_values", "verify", "oracle_suite")


def metric_names() -> list:
    """(name, unit) of every per-pass layer metric, in report order."""
    names = []
    for layer, (suffix, _, counters) in LAYERS.items():
        names += [(f"{layer}.calls", "count"), (f"{layer}.{suffix}", "s")]
        names += [(f"{layer}.{c}", "bytes" if c.startswith("bytes") else "count") for c in counters]
    names += [(f"cli.main.{inv}.s", "s") for inv in INVOCATIONS]
    return names


class Tracer:
    """Per-pass layer metrics, and the spans of the first ``keep_passes`` passes."""

    def __init__(self, keep_passes: int) -> None:
        self.keep_passes = keep_passes
        self.names: list = []
        self.spans: list = []         # (name id, start, end, parent index or -1, pass id)
        self.metrics: dict = {}       # pass id -> metric -> value
        self.pass_id = 0
        self._name_ids: dict = {}
        self._stack: list = []        # [span index or -1, child seconds] per open span

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str, layer: str):
        keep = self.pass_id < self.keep_passes
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans) if keep else -1
        if keep:
            self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            metrics = self.metrics[self.pass_id]
            metrics[f"{layer}.{LAYERS[layer][0]}"] += duration - frame[1]
            metrics[f"{layer}.calls"] += 1
            if name.startswith("cli.main."):
                metrics[f"{name}.s"] += duration
            if keep:
                self.spans[index] = (self._name_id(name), start, end, parent, self.pass_id)

    def _wrap(self, fn, layer: str, counters: dict):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            metrics = self.metrics[self.pass_id]
            for key, count in counters.items():
                metrics[f"{layer}.{key}"] += count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, pass_id: int):
        """Trace one pass: wrap every listed function, restore them after."""
        self.pass_id = pass_id
        self.metrics[pass_id] = dict.fromkeys((name for name, _ in metric_names()), 0)
        modules = [m for n, m in sys.modules.items() if n == "wva_lab" or n.startswith("wva_lab.")]
        patched = []
        try:
            for layer, (_, functions, counters) in LAYERS.items():
                for module_name, attr in functions:
                    original = getattr(sys.modules[f"wva_lab.{module_name}"], attr)
                    wrapper = self._wrap(original, layer, counters)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapper)
                                patched.append((module, key, original))
            yield
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    def dump(self) -> dict:
        """Spans as written to the trace file, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "pass"],
            "names": self.names,
            "spans": [[n, round(s - t0, 9), round(e - t0, 9), p, k] for n, s, e, p, k in self.spans],
        }
