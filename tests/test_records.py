"""Value semantics of the 19 frozen record classes, and what a fresh
`import afcurves.cli` loads.

Every record builds by position or keyword, keeps its class defaults and
validation, compares and hashes by class and field values, refuses
assignment and deletion, and has the repr Name(field=value, ...).
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from afcurves.af_invariant import AbelianGroup, IncidenceMatrix, ProbeReport
from afcurves.contfrac import PeriodicCF, QuadraticIrrational
from afcurves.corpus import (
    ConjectureReport,
    CorpusEntry,
    InvalidEntry,
    PolynomialVerdict,
)
from afcurves.elliptic import CurveQ, LegendreModel, Point, SingularCurve
from afcurves.exact_linalg import IntMatrix, IntPolynomial, SmithDecomposition
from afcurves.zeta import CurveFactor, LocalZetaReport, OperatorParams, ZetaSeries

SRC = Path(__file__).resolve().parent.parent / "src"

A = IntMatrix([[2, 1], [1, 1]])
X_MINUS_1 = IntPolynomial((-1, 1))
Z2 = AbelianGroup((2,))
ENTRY = CorpusEntry("e", Fraction(-1), None, QuadraticIrrational(1, 2, 1), None,
                    (X_MINUS_1,), AbelianGroup((2, 2)))
FACTOR = CurveFactor((1, 0, 5), (1, -6, 5))
PARAMS = OperatorParams(3, "good", None)

# (class, field names in order, constructor arguments in order); IntMatrix's
# n and CurveQ's disc are fields that are computed, not passed
CASES = [
    (IntMatrix, ("rows", "n"), (((2, 1), (1, 1)),)),
    (IntPolynomial, ("coeffs",), ((-1, 1),)),
    (SmithDecomposition, ("d", "p_left", "q_right"), ((1, 2), A, IntMatrix.identity(2))),
    (AbelianGroup, ("torsion", "free_rank"), ((2, 4), 1)),
    (IncidenceMatrix, ("m", "positivity_power"), (A, 1)),
    (ProbeReport, ("matrix", "polynomial", "trials", "failures", "group", "seed"),
     (A, X_MINUS_1, 10, 0, Z2, 7)),
    (QuadraticIrrational, ("p_num", "d_rad", "q_den"), (1, 5, 2)),
    (PeriodicCF, ("preperiod", "period"), ((1,), (2,))),
    (CorpusEntry, ("label", "lam", "ab", "theta", "matrix", "polynomials",
                   "expected_torsion"),
     ("c", None, (-1, 0), None, A, (X_MINUS_1,), None)),
    (InvalidEntry, ("label", "error"), ("bad", "CorpusError: no curve")),
    (PolynomialVerdict, ("polynomial", "group", "verdict"), (X_MINUS_1, Z2, "match")),
    (ConjectureReport, ("entry", "j_invariant", "curve", "incidence",
                        "computed_torsion", "verdicts", "expected_match", "error"),
     (ENTRY, Fraction(1728), CurveQ(-1, 0), IncidenceMatrix(A, 1), Z2, (), True, None)),
    (CurveQ, ("a", "b", "disc"), (-1, 0)),
    (Point, ("x", "y"), (Fraction(1, 4), Fraction(-3, 8))),
    (LegendreModel, ("lam", "curve", "u", "shift"), (Fraction(-1), CurveQ(-1, 0), 1, Fraction(0))),
    (ZetaSeries, ("prime", "a_p", "exp_coefficients", "closed_coefficients",
                  "numerator", "denominator"),
     (5, 2, (1, 4, 24), (1, 4, 24), (1, -2, 5), (1, -6, 5))),
    (OperatorParams, ("trace_power", "branch", "alpha"), (3, "good", None)),
    (CurveFactor, ("numerator", "denominator"), ((1, 0, 5), (1, -6, 5))),
    (LocalZetaReport, ("prime", "curve_counts", "a_p", "curve_factor",
                       "operator_counts", "operator_params", "match_flags"),
     (5, (4,), 2, FACTOR, (5,), PARAMS, (False,))),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_the_table_covers_every_record_class():
    assert len({cls for cls, _, _ in CASES}) == 19


@pytest.mark.parametrize("cls,names,args", CASES, ids=IDS)
class TestRecordSemantics:
    def test_positional_keyword_and_mixed_construction_agree(self, cls, names, args):
        by_keyword = dict(zip(names, args))
        rest = names[1 : len(args)]
        objs = [cls(*args), cls(**by_keyword), cls(args[0], **{k: by_keyword[k] for k in rest})]
        assert objs[0] == objs[1] == objs[2]
        assert len({hash(obj) for obj in objs}) == 1

    def test_equal_values_equal_and_hash_equal(self, cls, names, args):
        x, y = cls(*args), cls(*args)
        assert x is not y and x == y and not x != y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1

    def test_another_record_class_with_the_same_values_is_unequal(self, cls, names, args):
        twin = type(cls.__name__ + "Twin", (cls,), {})(*args)
        x = cls(*args)
        assert tuple(getattr(twin, f) for f in names) == tuple(getattr(x, f) for f in names)
        assert x != twin and twin != x
        assert not x == twin

    def test_fields_cannot_be_assigned_or_deleted(self, cls, names, args):
        x = cls(*args)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.not_a_field = 1
        assert x == cls(*args)

    def test_repr_names_every_field(self, cls, names, args):
        x = cls(*args)
        body = ", ".join(f"{name}={getattr(x, name)!r}" for name in names)
        assert repr(x) == f"{cls.__name__}({body})"

    def test_argument_errors_are_type_errors(self, cls, names, args):
        with pytest.raises(TypeError):
            cls(*args, "extra")
        with pytest.raises(TypeError):
            cls(*args, not_a_field=1)
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})  # a second value for the first field
        with pytest.raises(TypeError):
            cls()  # every class has a field without a default


def test_distinct_classes_with_equal_fields_are_unequal():
    assert PeriodicCF((1, 2), (3, 4)) != CurveFactor((1, 2), (3, 4))
    assert InvalidEntry("a", "b") != PolynomialVerdict("a", "b", "c")


class TestDefaults:
    def test_abelian_group_free_rank(self):
        assert AbelianGroup((2,)).free_rank == 0
        assert AbelianGroup((2,)) == AbelianGroup((2,), 0) == AbelianGroup(torsion=(2,))
        assert type("Sub", (AbelianGroup,), {})((2,)).free_rank == 0  # inherited

    def test_corpus_entry(self):
        e = CorpusEntry("e", lam=Fraction(2), theta=QuadraticIrrational(0, 2, 1),
                        polynomials=(X_MINUS_1,))
        assert (e.ab, e.matrix, e.expected_torsion) == (None, None, None)

    def test_conjecture_report(self):
        r = ConjectureReport(ENTRY)
        assert (r.j_invariant, r.curve, r.incidence, r.computed_torsion) == (None,) * 4
        assert (r.verdicts, r.expected_match, r.error) == ((), None, None)
        assert r == ConjectureReport(entry=ENTRY, verdicts=())

    def test_matrix_n_is_not_an_argument(self):
        assert A.n == IntMatrix(rows=A.rows).n == 2
        with pytest.raises(TypeError):
            IntMatrix(A.rows, 2)
        with pytest.raises(TypeError):
            IntMatrix(A.rows, n=2)

    def test_curve_disc_is_not_an_argument(self):
        assert CurveQ(-1, 0).disc == CurveQ(a=-1, b=0).disc == 64
        with pytest.raises(TypeError):
            CurveQ(-1, 0, 64)
        with pytest.raises(TypeError):
            CurveQ(-1, 0, disc=64)


class TestPostInitValidation:
    def test_abelian_group_not_a_chain(self):
        with pytest.raises(ValueError, match="divisibility chain"):
            AbelianGroup((2, 3))
        with pytest.raises(ValueError, match="divisibility chain"):
            AbelianGroup(torsion=(4, 6), free_rank=1)

    def test_abelian_group_normalizes(self):
        g = AbelianGroup([2, 4], True)
        assert g.torsion == (2, 4) and type(g.free_rank) is int
        assert g == AbelianGroup((2, 4), 1) and hash(g) == hash(AbelianGroup((2, 4), 1))

    def test_curve_singular(self):
        with pytest.raises(SingularCurve):
            CurveQ(0, 0)
        with pytest.raises(SingularCurve):
            CurveQ(a=-3, b=2)

    def test_point_with_one_coordinate(self):
        with pytest.raises(ValueError, match="both coordinates or neither"):
            Point(Fraction(1), None)
        with pytest.raises(ValueError, match="both coordinates or neither"):
            Point(x=None, y=Fraction(1))


def modules_added_by_cli_import(preload: str) -> list:
    """The modules `import afcurves.cli` adds in a fresh interpreter, after
    `preload` runs there; comparing inside the child leaves out whatever the
    interpreter itself loads at startup (a site .pth file, say)."""
    code = (
        f"{preload}\n"
        "before = set(sys.modules)\n"
        "import afcurves.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout.split()


def test_import_loads_no_stdlib_module_beyond_the_ones_used():
    # stdlib modules afcurves imports are loaded first, so what each Python
    # version's stdlib pulls in internally does not count; dataclasses (with
    # inspect, ast, dis and tokenize) must not come in
    out = modules_added_by_cli_import(
        "import __future__, argparse, csv, fractions, itertools, json, math, "
        "operator, os, random, re, sys"
    )
    assert "afcurves.cli" in out
    assert [m for m in out if m != "afcurves" and not m.startswith("afcurves.")] == []


def test_import_adds_only_stdlib_and_afcurves_modules():
    # the package is stdlib only, whatever the tests' oracles (sympy) import
    out = modules_added_by_cli_import("import sys")
    allowed = sys.stdlib_module_names | {"afcurves"}
    assert "afcurves.cli" in out
    assert [m for m in out if m.partition(".")[0] not in allowed] == []
