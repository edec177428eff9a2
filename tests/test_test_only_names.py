"""The names that serve only the tests (and the benchmark's oracles) gain no
caller in the package while they wait to move out of it.

Each file of src/afcurves is parsed with ast.  A name on the list may appear
at its own definition (its def, its recursive calls, its assignment) and in
__init__'s `from ... import` exports; any other load, attribute or import of
it is a use, and the test names the file and line.  The package namespace
exports only the names the benchmark reads from it, and the value types
carry none of the arithmetic that only the tests' oracles (tests/oracles.py)
need.
"""

import ast
from pathlib import Path

import pytest

import afcurves
from afcurves.exact_linalg import IntMatrix, IntPolynomial

SRC = Path(__file__).resolve().parent.parent / "src" / "afcurves"
TEST_ONLY = {
    "mat_pow",
    "unimodular_inverse",
    "determinantal_divisors",
    "random_glnz",
    "count_points_enumerated",
    "mul_point",
    "MAZUR_ADMISSIBLE",
}
# bench/oracles.py and bench/workload_cli.py read these as afcurves.<name>
EXPORTED_FOR_THE_BENCHMARK = {"mul_point", "MAZUR_ADMISSIBLE"}


def uses(source: str, exports_allowed: bool) -> list:
    """(name, line) of each use of a TEST_ONLY name in source outside the
    name's own definition; `from ... import` is allowed where exports are."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias) and not exports_allowed:
            name = node.name
        else:
            name = None
        if name in TEST_ONLY and name != owner:
            found.append((name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


SOURCES = sorted(SRC.glob("*.py"))


def test_the_package_is_scanned():
    assert {"__init__.py", "exact_linalg.py", "zeta.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_caller_in_the_package(path):
    source = path.read_text(encoding="utf-8")
    assert uses(source, exports_allowed=path.name == "__init__.py") == []


@pytest.mark.parametrize(
    "source,expected",
    [
        ("def mul_point(e, k, p):\n    return mul_point(e, -k, p)\n", []),
        ("MAZUR_ADMISSIBLE = frozenset()\n", []),
        ("def torsion(e):\n    return mul_point(e, 2, P)\n", [("mul_point", 2)]),
        ("from .exact_linalg import mat_pow\n", [("mat_pow", 1)]),
        ("x = exact_linalg.random_glnz(3)\n", [("random_glnz", 1)]),
        ("ok = len(MAZUR_ADMISSIBLE)\n", [("MAZUR_ADMISSIBLE", 1)]),
    ],
    ids=["recursion", "definition", "call", "import", "attribute", "constant"],
)
def test_uses_sees_every_kind_of_use(source, expected):
    assert uses(source, exports_allowed=False) == expected


def test_the_package_exports_only_what_the_benchmark_reads():
    assert TEST_ONLY & set(vars(afcurves)) == EXPORTED_FOR_THE_BENCHMARK


@pytest.mark.parametrize(
    "cls,method",
    [(IntMatrix, "zero"), (IntMatrix, "__getitem__"), (IntMatrix, "__add__"),
     (IntMatrix, "submatrix"), (IntPolynomial, "__mul__")],
)
def test_value_types_carry_no_test_only_method(cls, method):
    assert not hasattr(cls, method)
