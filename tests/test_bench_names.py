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

import wva_lab

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

