"""The closed forms have one path for a float and an array.

Read with ``ast``, without importing anything: ``isinstance(x, np.ndarray)``
appears in ``src/wva_lab`` only inside ``errors.holds``, which reduces a bool
or an array of them to one bool.  Anywhere else it would select a float path
and an array path, whose libraries can differ in the last bit.
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


def _array_tests(source: str) -> list:
    """The enclosing function (dotted, "" at module level) of every
    ``isinstance(..., ndarray)`` call in ``source``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2 and _names_ndarray(node.args[1])):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


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
