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
* Each step from the readout to the verdict is one statement: p*L + 2 rho is
  halved by ``meter._half_phase_of``, which only the checked
  ``meter._half_phase`` and the oracle (on its shared p*L) call; the
  wavelength shift -(lambda0^2/2pi) delta_p is written once, in
  ``meter._wavelength_shift``; and the central difference behind the local
  rate once, in ``scenarios._local_rates``.
"""
import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wva_lab"


def _names_ndarray(node) -> bool:
    """Whether the class argument of an ``isinstance`` call names ``ndarray``."""
    if isinstance(node, ast.Tuple):
        return any(map(_names_ndarray, node.elts))
    return (isinstance(node, ast.Attribute) and node.attr == "ndarray") or (
        isinstance(node, ast.Name) and node.id == "ndarray")


def _scopes(source: str, matches) -> list:
    """The enclosing function (dotted, "" at module level) of every node in
    ``source`` for which ``matches(node)`` holds."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if matches(node):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def _array_tests(source: str) -> list:
    """The enclosing function of every ``isinstance(..., ndarray)`` call in ``source``."""
    return _scopes(source, lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "isinstance" and len(node.args) == 2 and _names_ndarray(node.args[1]))


def _package_scopes(matches) -> list:
    """(module, enclosing function) of every node in the package for which ``matches(node)`` holds."""
    return [(path.stem, scope) for path in sorted(PACKAGE.glob("*.py")) for scope in _scopes(path.read_text(), matches)]


def _callers(name: str) -> list:
    """(module, enclosing function) of every call in the package to ``name``, plain or as an attribute."""
    def matches(node):
        return isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name))

    return _package_scopes(matches)


def _binop(op, pattern: str):
    """A test of whether a node is an ``op`` operation whose source (``ast.unparse``) matches ``pattern``."""
    return lambda node: (isinstance(node, ast.BinOp) and isinstance(node.op, op)
                         and re.fullmatch(pattern, ast.unparse(node)) is not None)


_WAVELENGTH_FACTOR = _binop(ast.Div, r".+ \*\* 2 / \(2\.0 \* math\.pi\)")  # lambda0^2/2pi
_CENTRAL_DIFFERENCE = _binop(ast.Sub, r"(\w+)\[(\.\.\., )?2:\] - \1\[(\.\.\., )?:-2\]")  # x[2:] - x[:-2]


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


def test_finders_find_the_formulas():
    source = (
        "import math\n"
        "def shift(lam, dp):\n"
        "    return -(lam**2 / (2.0 * math.pi)) * dp\n"
        "def inverse(lam):\n"
        "    return 2.0 * math.pi / lam**2\n"
        "def rates(t, v):\n"
        "    return (v[..., 2:] - v[..., :-2]) / (t[2:] - t[:-2])\n"
        "def forward(v):\n"
        "    return v[..., 1:] - v[..., :-1]\n"
    )
    assert _scopes(source, _WAVELENGTH_FACTOR) == ["shift"]
    assert _scopes(source, _CENTRAL_DIFFERENCE) == ["rates", "rates"]


def test_half_phase_has_one_form():
    assert sorted(_callers("_half_phase_of")) == [("meter", "_half_phase"), ("meter", "oracle_deviations")]


def test_wavelength_shift_is_written_once():
    assert _package_scopes(_WAVELENGTH_FACTOR) == [("meter", "_wavelength_shift")]


def test_local_rate_is_written_once():
    # one central difference of the values and one of the taus, both in the one |slope|
    assert _package_scopes(_CENTRAL_DIFFERENCE) == [("scenarios", "_local_rates")] * 2
