"""The names that serve only the tests (and the benchmark's oracles) gain no
caller in the package while they wait to move out of it.

Each file of src/afcurves is parsed with ast.  A name on the list may appear
at its own definition (its def, its recursive calls, its assignment) and in
__init__'s `from ... import` exports; any other load, attribute or import of
it is a use, and the test names the file and line.  The package namespace
exports only the names the benchmark reads from it, and the value types
carry none of the arithmetic that only the tests' oracles (tests/oracles.py)
need.  No private top-level name lives on only for the test-only names: one
that their definitions reach, directly or through other private names, is
also reached from the rest of the package.
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
    assert TEST_ONLY & set(dir(afcurves)) == EXPORTED_FOR_THE_BENCHMARK


@pytest.mark.parametrize(
    "cls,method",
    [(IntMatrix, "zero"), (IntMatrix, "__getitem__"), (IntMatrix, "__add__"),
     (IntMatrix, "submatrix"), (IntMatrix, "is_strictly_positive"),
     (IntPolynomial, "__mul__")],
)
def test_value_types_carry_no_test_only_method(cls, method):
    assert not hasattr(cls, method)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def reaches(sources) -> tuple:
    """(what the definitions of TEST_ONLY names reach, what the rest of the
    package reaches): top-level names, each followed through the names its
    definition loads.  The rest is module-level code and the definition of
    every other public name.  Names are matched by their text across all the
    sources (a load or an attribute), so a shared spelling counts as a reach."""
    loads: dict = {}  # top-level name -> the names its definition loads
    roots: set = set()  # names loaded by statements that define no name
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                defined = []
            loaded = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
                or isinstance(node, ast.Attribute)
            }
            for name in defined:
                loads.setdefault(name, set()).update(loaded)
            if not defined:
                roots |= loaded

    def reach(start):
        seen, todo = set(), list(start)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(loads.get(name, ()))
        return seen

    public = {n for n in loads if not _private(n) and n not in TEST_ONLY}
    return reach(TEST_ONLY & set(loads)), reach(roots | public)


def serving_only_the_test_only_names(sources) -> set:
    """The private top-level names that only the TEST_ONLY names reach."""
    test_only, production = reaches(sources)
    return {name for name in test_only - production if _private(name)}


PACKAGE = [path.read_text(encoding="utf-8") for path in SOURCES]


def test_no_private_name_serves_only_the_test_only_names():
    assert serving_only_the_test_only_names(PACKAGE) == set()


def test_shared_private_names_are_reached_from_both_sides():
    # random_glnz and the probe share the move step; the residue count is both
    # count_points_enumerated's n = 1 and a production count route
    test_only, production = reaches(PACKAGE)
    shared = {"_move", "_MOVE_FACTORS", "_count_points_prime_field"}
    assert shared <= test_only & production


@pytest.mark.parametrize(
    "sources,expected",
    [
        (["def mul_point(e):\n    return _helper(e)\n"
          "def _helper(e):\n    return _inner(e)\n"
          "def _inner(e):\n    return e\n"], {"_helper", "_inner"}),
        (["class _Field:\n    def mul(self, u):\n        return _rem(u)\n"
          "def _rem(u):\n    return u\n"
          "def count_points_enumerated(e):\n    return _Field().mul(e)\n"],
         {"_Field", "_rem"}),
        (["_FACTORS = (1, 2)\ndef random_glnz(n):\n    return _FACTORS\n"],
         {"_FACTORS"}),
        (["def mul_point(e):\n    return _helper(e)\n"
          "def torsion(e):\n    return _helper(e)\n"
          "def _helper(e):\n    return e\n"], set()),
        (["_CAP = 3\nLIMIT = _CAP + 1\ndef mat_pow(m):\n    return _CAP\n"], set()),
        (["def _move(b):\n    return b\ndef random_glnz(n):\n    return _move(n)\n",
          "from .exact_linalg import _move\n"
          "def invariance_probe(a):\n    return exact_linalg._move(a)\n"], set()),
        (["def _unused():\n    pass\ndef mat_pow(m):\n    return m\n"], set()),
    ],
    ids=["chain", "class", "constant", "shared", "module-level", "other-module",
         "unreached"],
)
def test_the_guard_sees_every_kind_of_reach(sources, expected):
    assert serving_only_the_test_only_names(sources) == expected
