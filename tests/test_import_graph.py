"""The package's internal import graph has no cycle.

Read with ``ast``, without importing anything: an edge runs from a module to
every ``wva_lab`` module it imports, at module level or inside a function.
Without a cycle no module's names depend on the order the modules are first
imported in, and ``meter`` (which ``scenarios`` imports) never imports
``scenarios``.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wva_lab"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imported(path: Path) -> set:
    """The package modules that the module at ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("wva_lab."))
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["wva_lab" if node.level else "", node.module or ""]))
            if module == "wva_lab":  # ``from . import x``: x may be a module
                found.update(alias.name for alias in node.names)
            elif module.startswith("wva_lab."):
                found.add(module.split(".")[1])
    return found & MODULES


def _graph() -> dict:
    return {path.stem: _imported(path) for path in PACKAGE.glob("*.py")}


def _cycle(graph: dict) -> list:
    """One cycle of ``graph`` as a list of modules, or [] if it has none."""
    state, path = {}, []  # module -> "open" while on the path, "done" after

    def visit(module):
        state[module] = "open"
        path.append(module)
        for target in sorted(graph[module]):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state and (cycle := visit(target)):
                return cycle
        state[module] = "done"
        path.pop()
        return []

    for module in sorted(graph):
        if module not in state and (cycle := visit(module)):
            return cycle
    return []


def test_graph_reads_the_imports():
    graph = _graph()
    assert {"meter", "spectra", "polarization"} <= graph["scenarios"]
    assert "scenarios" in graph["verify"] and "verify" in graph["cli"]


def test_cycle_finder_finds_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) == []


def test_no_import_cycle():
    assert _cycle(_graph()) == []
