"""Runtime self-checks are explicit raises, so they still run under `python -O`."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from afcurves import elliptic, exact_linalg, zeta
from afcurves.exact_linalg import IntMatrix

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
    "m,p_left,d",
    [
        # nonsingular: P*M*Q = diag(d) holds, but prod(d) = 2 != |det M| = 1
        ([[1, 0], [0, 1]], [[1, 0], [0, 2]], (1, 2)),
        # singular: the determinant rule passes; only is_unimodular sees det P = 2
        ([[1, 0], [0, 0]], [[1, 0], [0, 2]], (1, 0)),
        # each of the next three breaks one clause of the Smith chain alone:
        # negative entries, a chain 2 | 3 that does not divide, a zero first
        ([[1, 0], [0, 2]], [[-1, 0], [0, -1]], (-1, -2)),
        ([[2, 0], [0, 3]], [[1, 0], [0, 1]], (2, 3)),
        ([[0, 0, 0], [0, 2, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], (0, 2, 0)),
    ],
)
def test_forged_certificate_fails_verify(m, p_left, d):
    m, p_left = IntMatrix(m), IntMatrix(p_left)
    q_right = IntMatrix.identity(m.n)
    assert (p_left @ m) @ q_right == IntMatrix.diagonal(d)
    assert not exact_linalg.SmithDecomposition(d, p_left, q_right).verify(m)


def test_verify_compares_the_product_with_diag_d():
    # (1, 2) is the Smith form of diag(2, 1) and passes the determinant rule,
    # and P = Q = I are unimodular; only P*M*Q = diag(2, 1) != diag(1, 2) refuses
    m, eye = IntMatrix.diagonal((2, 1)), IntMatrix.identity(2)
    assert exact_linalg.snf(m).d == (1, 2)
    assert not exact_linalg.SmithDecomposition((1, 2), eye, eye).verify(m)


def test_verify_takes_transform_determinants_only_for_singular_m(monkeypatch):
    def refuse(m):
        raise LookupError("is_unimodular reached")

    monkeypatch.setattr(exact_linalg, "is_unimodular", refuse)
    rng = random.Random(6)
    m = IntMatrix([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
    assert exact_linalg.determinant(m) != 0
    assert exact_linalg.snf(m).verify(m)
    with pytest.raises(LookupError, match="is_unimodular reached"):
        exact_linalg.snf(IntMatrix([[2, 4], [3, 6]]))


@pytest.mark.parametrize(
    "rows,wrong_det",
    [
        # det -4: g = 2, so d = (2, 8 / 2) matches 8; only det mod q sees it
        ([[4, 2], [2, 0]], 8),
        # rank 1 claimed: d = (2, 0) is a chain ending in 0; only det mod q sees it
        ([[4, 2], [2, 0]], 0),
        ([[2, 4], [3, 6]], 5),  # singular, but a nonzero det is claimed
        # det 6: g = 1, so d = (1, 2) is set from the wrong value and matches
        # it exactly; only det mod q, taken without _bareiss, sees it
        ([[1, 0], [0, 6]], 2),
    ],
)
def test_smith_diagonal_determinant_check_raises(monkeypatch, rows, wrong_det):
    # _bareiss claims full rank with N = wrong_det, or for det 0 rank n - 1
    # with the true last pivot; the true gcd g of the minors comes along
    true_bareiss = exact_linalg._bareiss

    def lying_bareiss(m):
        rank, minor, g = true_bareiss(m)
        return (len(m), wrong_det, g) if wrong_det else (len(m) - 1, minor, g)

    monkeypatch.setattr(exact_linalg, "_bareiss", lying_bareiss)
    with pytest.raises(RuntimeError, match="prod\\(d\\) == \\|det"):
        exact_linalg.smith_diagonal(exact_linalg.IntMatrix(rows))


def _zero_matrix(cls, n):
    """The n x n zero matrix, put in place of IntMatrix.identity so that an
    `== I` self-check fails."""
    return cls([[0] * n for _ in range(n)])


def test_replayed_inverse_failure_raises(monkeypatch):
    monkeypatch.setattr(exact_linalg.IntMatrix, "identity", classmethod(_zero_matrix))
    with pytest.raises(RuntimeError, match="B @ B\\^-1 == I"):
        exact_linalg.random_glnz(3, steps=5, seed=1)


def test_smith_inverse_failure_raises(monkeypatch):
    monkeypatch.setattr(exact_linalg.IntMatrix, "identity", classmethod(_zero_matrix))
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


def test_torsion_points_that_fit_no_group_raise(monkeypatch):
    # y^2 = x^3 + 1 has torsion Z_6; calling each point with y != 0 order 4
    # leaves 6 points of exponent 4, which no group over Q has
    monkeypatch.setattr(elliptic, "_order_up_to", lambda e, p: 4)
    with pytest.raises(RuntimeError, match="fit no group"):
        elliptic.torsion_subgroup(elliptic.CurveQ(0, 1))


def test_orders_on_curve_and_twist_that_disagree_raise():
    # at p = 7 both orders 3 ask for 3 | N and 3 | 16 - N, and 3 does not divide 16
    with pytest.raises(RuntimeError, match="disagree"):
        zeta._hasse_candidates(3, 3, 7, 3, 13)


def test_window_with_no_multiple_of_the_order_raises():
    # (4, 4) has order 9 on y^2 = x^3 + x + 3 over F_11: [8, 10] holds 9,
    # the 3-wide window [10, 12] holds no multiple of it
    assert zeta._order_modulus((4, 4), 1, 11, 8, 10) == 9
    with pytest.raises(RuntimeError, match="no multiple of a point's order"):
        zeta._order_modulus((4, 4), 1, 11, 10, 12)


@pytest.mark.parametrize(
    "counts",
    [
        # y^2 = x^3 - x at p = 5 has counts (8, 32) and closed series 1, 8, 48;
        # (8 * 8 + 33) / 2 is no integer, though its floor is 48
        (8, 33),
        (0, 0),  # an integral series that is not the closed one
    ],
)
def test_exp_and_closed_zeta_disagreeing_raise(monkeypatch, counts):
    monkeypatch.setattr(zeta, "_curve_counts", lambda a_p, p, order: iter(counts))
    with pytest.raises(RuntimeError, match="exp and closed zeta coefficients differ"):
        zeta.curve_local_zeta(elliptic.CurveQ(-1, 0), 5, 2)


def test_a_double_root_mod_the_lifting_prime_raises():
    # x^2 has a double root at 0 mod 3: Hensel cannot lift it to one root,
    # and torsion_subgroup only hands in polynomials squarefree mod the prime
    with pytest.raises(RuntimeError, match="double root mod 3"):
        elliptic._integer_root_candidates([0, 0, 1], 3, 27)
