"""Runtime self-checks are explicit raises, so they still run under `python -O`."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from afcurves import elliptic, exact_linalg, zeta

SRC = Path(__file__).resolve().parent.parent / "src" / "afcurves"


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_package():
    # neither `assert` nor `raise AssertionError(...)`: self-checks raise RuntimeError
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node))
    ]
    assert found == []


def test_snf_certificate_failure_raises(monkeypatch):
    monkeypatch.setattr(exact_linalg.SmithDecomposition, "verify", lambda self, m: False)
    with pytest.raises(RuntimeError, match="certificate"):
        exact_linalg.snf(exact_linalg.IntMatrix([[4, 2], [2, 0]]))


@pytest.mark.parametrize(
    "rows,wrong_det",
    [
        ([[4, 2], [2, 0]], 8),  # det -4: the product no longer matches
        ([[4, 2], [2, 0]], 0),  # a zero det asks for a trailing 0
        ([[2, 4], [3, 6]], 5),  # singular, but a nonzero det is claimed
    ],
)
def test_smith_diagonal_determinant_check_raises(monkeypatch, rows, wrong_det):
    monkeypatch.setattr(exact_linalg, "determinant", lambda m: wrong_det)
    with pytest.raises(RuntimeError, match="prod\\(d\\) == \\|det"):
        exact_linalg.smith_diagonal(exact_linalg.IntMatrix(rows))


def test_replayed_inverse_failure_raises(monkeypatch):
    monkeypatch.setattr(exact_linalg.IntMatrix, "identity", classmethod(lambda cls, n: cls.zero(n)))
    with pytest.raises(RuntimeError, match="B @ B\\^-1 == I"):
        exact_linalg.random_glnz(3, steps=5, seed=1)


def test_smith_inverse_failure_raises(monkeypatch):
    monkeypatch.setattr(exact_linalg.IntMatrix, "identity", classmethod(lambda cls, n: cls.zero(n)))
    with pytest.raises(RuntimeError, match="inv @ m == I"):
        exact_linalg.unimodular_inverse(exact_linalg.IntMatrix([[2, 1], [1, 1]]))


def test_lambda_root_check_raises(monkeypatch):
    monkeypatch.setattr(elliptic, "j_from_lambda", lambda lam: Fraction(0))
    with pytest.raises(RuntimeError, match="maps to another j"):
        elliptic.rational_lambdas_from_j(Fraction(1728))


def test_shanks_mestre_without_a_unique_count_raises(monkeypatch):
    # below Mestre's bound the point orders of y^2 = x^3 + x and its twist
    # leave several counts at p = 5
    with pytest.raises(RuntimeError, match="no unique"):
        zeta._count_points_shanks_mestre(elliptic.CurveQ(1, 0), 5)
    # a point order that rules nothing out exhausts the point budget
    monkeypatch.setattr(zeta, "_order_modulus", lambda point, a, p, lo, hi: 1)
    with pytest.raises(RuntimeError, match="no unique"):
        zeta.count_points(elliptic.CurveQ(-1, 0), 233, 1)


def test_hasse_check_fires_on_shanks_mestre_route(monkeypatch):
    monkeypatch.setattr(zeta, "_hasse_candidates", lambda m_e, m_t, p, lo, hi: [hi + 1])
    with pytest.raises(RuntimeError, match="Hasse"):
        zeta.trace_frobenius(elliptic.CurveQ(-1, 0), zeta.RESIDUE_COUNT_MAX + 4)
