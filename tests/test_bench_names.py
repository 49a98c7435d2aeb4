"""The package names the benchmark harness reads.

``bench/spans.py`` wraps each (module, function) of its ``LAYERS`` by name
when a run is traced, and the harness imports names from the package and
reads ``wva_lab.kernel_backend`` for its run record.  A rename or deletion
here breaks ``bench/run.py`` only at run time, so these tests read the
harness files as they are and resolve every such name.
"""
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import wva_lab
from wva_lab import meter
from wva_lab.polarization import MwiSettings
from wva_lab.spectra import SpectralProfile, build_grid

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_imports():
    """(module, name) of every ``from wva_lab... import name`` in bench/*.py."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wva_lab":
                found.update((node.module, alias.name) for alias in node.names)
    return found


def test_traced_functions_resolve():
    # The tracer looks each LAYERS module up in sys.modules, so every one must
    # be loaded by ``import wva_lab.cli`` alone (not lazily, later) in a fresh
    # interpreter, and hold its function.
    pairs = [pair for _, functions, _ in _spans_module().LAYERS.values() for pair in functions]
    code = (
        "import sys, wva_lab.cli\n"
        f"print([p for p in {pairs!r} if not callable(getattr(sys.modules.get('wva_lab.' + p[0]), p[1], None))])"
    )
    env = {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}
    missing = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert pairs and missing.stdout == "[]\n"


def test_imported_names_resolve():
    imports = _package_imports()
    root_names = ("MwiSettings", "SPEED_OF_LIGHT", "SpectralProfile", "collapsed_density")
    assert {("wva_lab", name) for name in root_names} <= imports
    missing = [(module, name) for module, name in imports if not hasattr(importlib.import_module(module), name)]
    assert not missing
    assert wva_lab.kernel_backend == "numpy"


def test_traced_counters_read_the_results():
    # The tracer's points counters read each result: collapsed_density's and
    # oracle_joint_state's ``density`` grid, and the grid passed to
    # collapse_moments_on_grid.  The calls go through the ``meter`` module,
    # where the tracer installs its wrappers.
    # A family's one call counts the one grid of its largest |L|.
    profile = SpectralProfile("gaussian", 1550e-9, 6e-9)
    settings = MwiSettings(3, 2.5e-3, 0.0, 0.002)  # needs twice the 8,193-point floor
    family = MwiSettings(3, np.array([1e-12, 2.5e-3, 5e-3]), 0.0, 0.002)  # the largest needs four times
    grid = build_grid(profile, min_points=129)
    tracer = _spans_module().Tracer(keep_passes=0)
    with tracer.installed(0):
        accepted = meter.collapsed_density(profile, settings).density
        accepted_family = meter.collapsed_density(profile, family).density
        meter.oracle_joint_state(profile, settings, grid)
        meter.collapse_moments_on_grid(grid, np.array([settings.phase_length]), settings.rho)
    metrics = tracer.metrics[0]
    assert (accepted.points.size, accepted_family.points.size) == (16385, 32769)
    for layer, calls, points in (("collapsed_density", 2, 16385 + 32769), ("oracle_joint_state", 1, 129),
                                 ("collapse_moments_on_grid", 1, 129)):
        assert (metrics[f"meter.{layer}.calls"], metrics[f"meter.{layer}.points"]) == (calls, points)
