"""One path per job, read with ``ast`` from ``src/wva_lab`` without importing anything.

* The closed forms have one path for a float and an array:
  ``isinstance(x, np.ndarray)`` appears only inside ``errors.holds``, which
  reduces a bool or an array of them to one bool.  Anywhere else it would
  select a float path and an array path, whose libraries can differ in the
  last bit.
* The moment kernel has one readout: ``meter._level_moments`` is called only
  by ``meter._levels_readout``.
* Tables have one builder: an ``AxisColumn`` is constructed only by
  ``scenarios._stacked`` and, for its cell texts, ``scenarios.render_csv``.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wva_lab"


def _names_ndarray(node) -> bool:
    """Whether the class argument of an ``isinstance`` call names ``ndarray``."""
    if isinstance(node, ast.Tuple):
        return any(map(_names_ndarray, node.elts))
    return (isinstance(node, ast.Attribute) and node.attr == "ndarray") or (
        isinstance(node, ast.Name) and node.id == "ndarray")


def _call_scopes(source: str, matches) -> list:
    """The enclosing function (dotted, "" at module level) of every call in
    ``source`` for which ``matches(call)`` holds."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and matches(node):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def _array_tests(source: str) -> list:
    """The enclosing function of every ``isinstance(..., ndarray)`` call in ``source``."""
    return _call_scopes(source, lambda call: isinstance(call.func, ast.Name) and call.func.id == "isinstance"
                        and len(call.args) == 2 and _names_ndarray(call.args[1]))


def _callers(name: str) -> list:
    """(module, enclosing function) of every call in the package to ``name``, plain or as an attribute."""
    def matches(call):
        return (isinstance(call.func, ast.Name) and call.func.id == name) or (
            isinstance(call.func, ast.Attribute) and call.func.attr == name)

    return [(path.stem, scope) for path in sorted(PACKAGE.glob("*.py"))
            for scope in _call_scopes(path.read_text(), matches)]


def test_finder_finds_array_tests():
    source = (
        "import numpy as np\n"
        "from numpy import ndarray\n"
        "flag = isinstance(v, np.ndarray)\n"
        "class C:\n"
        "    def f(self, x):\n"
        "        return isinstance(x, (float, ndarray)) or isinstance(x, float)\n"
    )
    assert _array_tests(source) == ["", "C.f"]


def test_only_holds_tests_for_an_array():
    found = [(path.stem, scope) for path in sorted(PACKAGE.glob("*.py")) for scope in _array_tests(path.read_text())]
    assert found == [("errors", "holds")]


def test_kernel_has_one_readout():
    assert _callers("_level_moments") == [("meter", "_levels_readout")]


def test_axis_columns_come_from_the_table_builder():
    assert sorted(set(_callers("AxisColumn"))) == [("scenarios", "_stacked"), ("scenarios", "render_csv")]
