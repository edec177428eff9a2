import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from afcurves import exact_linalg
from afcurves.af_invariant import AbelianGroup, quotient_group
from afcurves.contfrac import PeriodicCF, QuadraticIrrational
from afcurves.elliptic import CurveQ
from afcurves.exact_linalg import (
    IntMatrix,
    IntPolynomial,
    MatrixParseError,
    determinant,
    determinantal_divisors,
    format_matrix,
    format_poly,
    is_unimodular,
    mat_poly_eval,
    mat_pow,
    parse_matrix,
    parse_poly,
    random_glnz,
    smith_diagonal,
    snf,
    trace_power,
    unimodular_inverse,
)

A_STD = IntMatrix([[5, 2], [2, 1]])


def square_matrices(max_n=4, max_entry=20):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(IntMatrix)
    )


class Index:
    """An integer that is not an int: only its __index__ says so."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# each value type built around one integer argument, and a value it admits
VALUE_TYPES = {
    "IntMatrix": (lambda x: IntMatrix([[x, 1], [1, 1]]), 2),
    "IntPolynomial": (lambda x: IntPolynomial([-1, x]), 1),
    "AbelianGroup-torsion": (lambda x: AbelianGroup((2, x)), 4),
    "AbelianGroup-free_rank": (lambda x: AbelianGroup((2,), x), 1),
    "CurveQ": (lambda x: CurveQ(x, 0), -1),
    "QuadraticIrrational": (lambda x: QuadraticIrrational(x, 2, 1), 1),
    "PeriodicCF": (lambda x: PeriodicCF((0,), (x,)), 2),
}


class TestConstructors:
    @pytest.mark.parametrize("bad", [2.7, Fraction(5, 2), Fraction(2)])
    def test_non_integers_raise_instead_of_truncating(self, bad):
        with pytest.raises(TypeError):
            IntMatrix([[bad, 1], [1, 1]])
        with pytest.raises(TypeError):
            IntPolynomial([bad, 2])

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("build,value", VALUE_TYPES.values(), ids=VALUE_TYPES)
    def test_every_value_type_refuses_bool(self, build, value, flag):
        with pytest.raises(TypeError, match=f"^bool {flag} is not an integer$"):
            build(flag)
        assert build(Index(value)) == build(value)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: IntMatrix([]), "matrix must have dimension >= 1"),
            (lambda: IntMatrix([[1, 2], [3]]), "matrix must be square"),
            (lambda: A_STD @ IntMatrix.identity(3), "dimension mismatch"),
            (lambda: A_STD + IntMatrix.identity(1), "dimension mismatch"),
            (lambda: A_STD - IntMatrix.identity(3), "dimension mismatch"),
            (lambda: random_glnz(0), "dimension must be >= 1"),
            (lambda: random_glnz(2, steps=-1), "steps must be >= 0"),
        ],
        ids=["empty", "ragged", "matmul", "add", "sub", "glnz_n", "glnz_steps"],
    )
    def test_shape_refusals(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert (type(exc.value), str(exc.value)) == (ValueError, message)


FIBONACCI = IntMatrix([[1, 1], [1, 0]])
X2_MINUS_X_MINUS_1 = IntPolynomial([-1, -1, 1])


def smith_d(m):
    """The Smith diagonal by both routes, the certificate's and the diagonal alone."""
    d = snf(m).d
    assert smith_diagonal(m) == d
    return d


class TestSnf:
    def test_reduction_of_a_minus_identity(self):
        assert smith_d(IntMatrix([[4, 2], [2, 0]])) == (2, 2)

    def test_zero_matrix(self):
        dec = snf(IntMatrix.zero(2))
        assert dec.d == (0, 0)
        assert dec.verify(IntMatrix.zero(2))
        assert smith_diagonal(IntMatrix.zero(2)) == (0, 0)

    def test_divisor_chain_example(self):
        # oracle: gcd of entries is 2, |det| = 8, so diagonal is (2, 4)
        assert smith_d(IntMatrix([[6, 2], [2, 2]])) == (2, 4)

    def test_identity(self):
        assert smith_d(IntMatrix.identity(3)) == (1, 1, 1)

    @pytest.mark.parametrize(
        "diag,d,p,q",
        [
            ((2, 3), (1, 6), ((-1, 1), (-3, 2)), ((1, -3), (1, -2))),
            # two chain folds: (2, 3, 5) -> (1, 6, 5) -> (1, 1, 30)
            (
                (2, 3, 5),
                (1, 1, 30),
                ((-1, 1, 0), (-3, 2, -1), (15, -10, 6)),
                ((1, -3, -15), (1, -2, -10), (0, 1, 6)),
            ),
        ],
    )
    def test_chain_fold_certificate_is_pinned(self, diag, d, p, q):
        dec = snf(IntMatrix.diagonal(diag))
        assert dec.d == d
        assert dec.p_left == IntMatrix(p)
        assert dec.q_right == IntMatrix(q)

    @pytest.mark.parametrize("entry,expected", [(0, (0,)), (1, (1,)), (-7, (7,))])
    def test_one_by_one(self, entry, expected):
        assert smith_d(IntMatrix([[entry]])) == expected

    @given(square_matrices())
    def test_certificate_and_chain(self, m):
        dec = snf(m)
        assert dec.verify(m)
        nonzero = [x for x in dec.d if x]
        det = determinant(m)
        if det != 0:
            prod = 1
            for x in nonzero:
                prod *= x
            assert prod == abs(det)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(square_matrices())
    def test_matches_determinantal_divisor_oracle(self, wall_bound, m):
        oracle = determinantal_divisors(m)
        prefix = 1
        with wall_bound(5):
            d = smith_d(m)
        for k, dk in enumerate(d):
            if dk == 0:
                assert oracle[k] == 0
                break
            prefix *= dk
            assert oracle[k] == prefix

    def test_rank_deficient_fibonacci_block(self):
        # x^2 - x - 1 kills the Fibonacci block, so p(A) has rank 2 of 4;
        # conjugating by B makes p(A) dense without changing its diagonal
        a = IntMatrix([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
        b, b_inv = random_glnz(4, steps=30, seed=3)
        pm = mat_poly_eval(X2_MINUS_X_MINUS_1, (b @ a) @ b_inv)
        assert mat_poly_eval(X2_MINUS_X_MINUS_1, FIBONACCI) == IntMatrix.zero(2)
        assert smith_d(pm) == (2, 2, 0, 0)
        assert determinantal_divisors(pm) == [2, 4, 0, 0]

    def test_large_entries_at_n32(self):
        # n = 32 at x^2 - x - 1: the transform entries here reach ~21,000 bits
        rng = random.Random(32)
        m = IntMatrix([[rng.randint(-50, 50) for _ in range(32)] for _ in range(32)])
        pm = mat_poly_eval(X2_MINUS_X_MINUS_1, m)
        d = snf(pm).d
        assert smith_diagonal(pm) == d
        assert quotient_group(m, X2_MINUS_X_MINUS_1) == AbelianGroup.from_smith_diagonal(d)


@st.composite
def nonsingular_or_singular(draw):
    """Square matrices with n <= 7, scaled by 1, 2 or 6 (scaled, no entry is
    a unit mod the determinant); half of those with n >= 2 get a last row
    that is a multiple of the first, so they are singular."""
    m = draw(square_matrices(max_n=7, max_entry=30))
    scale = draw(st.sampled_from([1, 2, 6]))
    rows = [[scale * x for x in row] for row in m.rows]
    if m.n > 1 and draw(st.booleans()):
        k = draw(st.integers(-3, 3))
        rows[-1] = [k * x for x in rows[0]]
    return IntMatrix(rows)


def _smith_unreached(a, n):
    raise LookupError("_smith reached")


@st.composite
def swap_forcing(draw, matrices=square_matrices(max_n=5, max_entry=9)):
    """Square matrices (by default n <= 5); half of those with n >= 2 have a
    leading (k+1)-minor that vanishes (a[0][0] = 0, or row k a multiple of
    row 0 in its first k + 1 entries), so Bareiss meets a zero pivot and
    swaps rows."""
    m = draw(matrices)
    rows = [list(row) for row in m.rows]
    if m.n > 1 and draw(st.booleans()):
        k = draw(st.integers(0, m.n - 2))
        if k == 0:
            rows[0][0] = 0
        else:
            c = draw(st.integers(-2, 2))
            rows[k][: k + 1] = [c * x for x in rows[0][: k + 1]]
    return IntMatrix(rows)


class TestSmithDiagonalModDet:
    """smith_diagonal reads a nonsingular M's d_1 .. d_(n-1) off M mod h, a
    divisor of |det M| that they all divide, and sets d_n from |det M|; snf
    keeps _smith and its P * M * Q certificate, so it is the oracle."""

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(nonsingular_or_singular())
    def test_matches_snf(self, wall_bound, m):
        with wall_bound(5):
            assert smith_diagonal(m) == snf(m).d

    @pytest.mark.parametrize(
        "rows,d",
        [
            ([[2, 1], [1, 1]], (1, 1)),  # D = 1
            ([[3, 1], [1, 2]], (1, 5)),  # prime D
            ([[1, 2, 0], [0, 4, 6], [6, 0, 9]], (1, 1, 108)),  # D = 2^2 * 3^3
            ([[12, 6, 0], [6, 0, 18], [4, 10, 2]], (2, 6, 150)),  # D = 2^3 * 3^2 * 5^2
            # 2I + N, N nilpotent with even entries: no entry is a unit mod 8
            ([[2, 4, 0], [0, 2, 6], [0, 0, 2]], (2, 2, 2)),
            ([[2, 0], [0, 4]], (2, 4)),  # diag(x, y) with x | y
            ([[2, 2], [0, 2]], (2, 2)),  # mod h = 2 every entry is 0
            ([[-7]], (7,)),  # n = 1
            ([[1]], (1,)),
        ],
    )
    def test_named_examples_take_the_mod_route(self, monkeypatch, wall_bound, rows, d):
        m = IntMatrix(rows)
        assert snf(m).d == d
        monkeypatch.setattr(exact_linalg, "_smith", _smith_unreached)
        with wall_bound(2):
            assert smith_diagonal(m) == d

    def test_smith_mod_tie_keeps_the_pivot_line(self, wall_bound):
        # mod 4 no entry is a unit, so _bezout_pivot runs and meets a tie
        # x == y beside the pivot: a Bezout swap on it would hand the entry
        # between the pivot's row and column forever
        with wall_bound(2):
            assert exact_linalg._smith_mod([[2, 2], [0, 2]], 4) == [2, 2]

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(nonsingular_or_singular(), st.integers(1, 400))
    def test_smith_mod_at_any_modulus_gives_gcds(self, wall_bound, m, modulus):
        rows = [list(row) for row in m.rows]
        expected = [gcd(x, modulus) for x in snf(m).d]
        with wall_bound(5):
            assert exact_linalg._smith_mod(rows, modulus) == expected

    @settings(max_examples=300)
    @given(swap_forcing())
    @example(IntMatrix([[0, 1, 2], [1, 2, 3], [2, 3, 5]]))  # swap at step 0
    @example(IntMatrix([[1, 2, 3], [2, 4, 1], [3, 1, 2]]))  # swap at step 1
    @example(IntMatrix([[1, 2, 3, 1], [2, 4, 6, 5], [1, 1, 2, 3], [0, 2, 1, 1]]))
    def test_bareiss_g_is_a_multiple_of_the_last_divisor_but_one(self, m):
        det, g = exact_linalg._bareiss(m.rows)
        assert det == determinant(m)
        last_but_one = determinantal_divisors(m)[-2] if m.n > 1 else 1
        if last_but_one:
            assert g % last_but_one == 0
            assert det == 0 or g != 0
        else:
            assert g == 0

    @pytest.mark.parametrize(
        "chain",
        [
            (1, 2, 6),
            (3, 3, 9),
            (2, 2, 2, 4),
            (1, 1, 4, 4, 12),
            (1, 1, 1, 1, 2, 2, 10, 30),
        ],
    )
    def test_non_cyclic_cokernels(self, monkeypatch, chain):
        # U diag(chain) V with d_(n-1) > 1, so h > 1 and the reduction runs
        n = len(chain)
        u, _ = random_glnz(n, steps=30, seed=n)
        v, _ = random_glnz(n, steps=30, seed=n + 100)
        m = (u @ IntMatrix.diagonal(chain)) @ v
        assert snf(m).d == chain
        monkeypatch.setattr(exact_linalg, "_smith", _smith_unreached)
        assert smith_diagonal(m) == chain

    def test_only_a_singular_matrix_reaches_smith(self, monkeypatch):
        monkeypatch.setattr(exact_linalg, "_smith", _smith_unreached)
        assert smith_diagonal(_seeded_matrix(6, 6)) == (1, 1, 1, 1, 2, 158720)
        with pytest.raises(LookupError, match="_smith reached"):
            smith_diagonal(IntMatrix([[2, 4], [3, 6]]))


def wide_entries():
    """Small entries, entries beyond +-2^30 and nonzero multiples of the
    check prime q (0 mod q), negatives included."""
    q = exact_linalg._CHECK_PRIME
    return st.one_of(
        st.integers(-9, 9),
        st.integers(2**30 + 1, 2**80),
        st.integers(-(2**80), -(2**30) - 1),
        st.integers(-3, 3).filter(bool).map(lambda k: k * q),
    )


@st.composite
def det_mod_q_inputs(draw):
    """swap_forcing over wide entries and n <= 6; half of those with n >= 2
    are made singular, one row a multiple of another (the multiple 0
    included)."""
    matrices = st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(wide_entries(), min_size=n, max_size=n), min_size=n, max_size=n
        ).map(IntMatrix)
    )
    m = draw(swap_forcing(matrices))
    rows = [list(row) for row in m.rows]
    if m.n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(m.n)))[:2]
        k = draw(st.integers(-2, 2))
        rows[i] = [k * x for x in rows[j]]
    return IntMatrix(rows)


class TestDetModQ:
    """_det_mod_q is smith_diagonal's check on the Bareiss value, so its
    oracle is sympy's determinant reduced mod q."""

    @settings(max_examples=300)
    @given(det_mod_q_inputs())
    @example(IntMatrix([[-7]]))  # n = 1
    @example(IntMatrix([[0]]))
    @example(IntMatrix([[-exact_linalg._CHECK_PRIME]]))  # 0 mod q, not 0
    @example(IntMatrix([[0, 1], [1, 0]]))  # one swap: det = -1
    @example(IntMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))
    @example(IntMatrix([[0, 2**40, 1], [-(2**31), 5, 0], [3, 0, -(2**35)]]))
    @example(IntMatrix([[1, 2], [2, 4]]))  # singular
    def test_matches_sympy(self, m):
        rows = [list(row) for row in m.rows]
        expected = int(sympy.Matrix(rows).det()) % exact_linalg._CHECK_PRIME
        assert exact_linalg._det_mod_q(rows) == expected
        assert rows == [list(row) for row in m.rows]  # read, not changed


def _seeded_matrix(n, seed):
    rng = random.Random(seed)
    return IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def _sha256(m):
    return hashlib.sha256(format_matrix(m).encode()).hexdigest()


class TestSnfPins:
    """snf's d, P and Q on seeded matrices, recorded before the row step
    skipped the cleared prefix; any change to a reduction step moves them."""

    def test_n8_in_full(self):
        dec = snf(_seeded_matrix(8, 8))
        assert dec.d == (1, 1, 1, 1, 1, 1, 1, 227384081)
        assert format_matrix(dec.p_left) == (
            "0,0,0,-1,0,0,0,0;0,0,0,-6,0,0,-1,0;0,-1,0,5,0,0,2,0;"
            "0,46,0,-235,-1,1,-95,0;4,-15642,0,79734,362,-389,32288,45;"
            "-6709,21082737,1,-107428478,-492793,534224,-43514036,-70613;"
            "230895,-726140982,-41,3700108105,16971935,-18397560,1498730582,2429856;"
            "6978094582692,-21945388391977066,-1239099495,111824441078753619,"
            "512924782612511,-556009934259147,45294544079215509,73434959571759"
        )
        assert format_matrix(dec.q_right) == (
            "0,0,0,0,56,171,29813528182,-224311276916;"
            "1,-1,81,1793,1759,5352,932516269950,-7016073843407;"
            "0,0,0,133,243,741,129144820846,-971660901528;"
            "0,0,-8,-232,-158,-480,-83609285973,629060256946;"
            "0,0,1,-18,16,49,8549651809,-64325943000;"
            "0,0,0,-2,-51,-156,-27196237173,204619280561;"
            "0,0,0,87,181,552,96209806232,-723864158445;"
            "0,1,-107,-2426,-2337,-7110,-1238811059615,9320577187092"
        )

    @pytest.mark.parametrize(
        "n,last,p_sha,q_sha",
        [
            (
                16,
                (3, 105169905753343968),
                "b299498ca494d26633a11cf22e839a470846fe2558318bd2edec183f861e4141",
                "5883d6d54f6c7a3b6f91a6d0a4a4043b0400386be3ae147093139dc3e9c5d709",
            ),
            (
                24,
                (1, 11625532016889206226710784579),
                "610239252e144c533a37c1c8c02dded67bae0910f4a944a9d77273fd7bf6c9b8",
                "f90df00d67d7e297a8a8195bfb527743caddc517111305006862a26b478a16d8",
            ),
        ],
    )
    def test_hashed(self, n, last, p_sha, q_sha):
        dec = snf(_seeded_matrix(n, n))
        assert dec.d == (1,) * (n - 2) + last
        assert (_sha256(dec.p_left), _sha256(dec.q_right)) == (p_sha, q_sha)


class TestDeterminant:
    @pytest.mark.parametrize(
        "rows,expected",
        [
            ([[5, 2], [2, 1]], 1),
            ([[4, 2], [2, 0]], -4),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
            ([[2, 2], [1, 1]], 0),
        ],
    )
    def test_known(self, rows, expected):
        assert determinant(IntMatrix(rows)) == expected

    @given(square_matrices(max_n=3, max_entry=9))
    def test_matches_cofactor_expansion(self, m):
        def cofactor_det(mat):
            n = mat.n
            if n == 1:
                return mat[0, 0]
            total = 0
            for j in range(n):
                minor = mat.submatrix(range(1, n), [c for c in range(n) if c != j])
                total += (-1) ** j * mat[0, j] * cofactor_det(minor)
            return total

        assert determinant(m) == cofactor_det(m)


class TestPolynomialEvaluation:
    def test_x_minus_one(self):
        p = IntPolynomial([-1, 1])
        assert mat_poly_eval(p, A_STD) == IntMatrix([[4, 2], [2, 0]])

    def test_constant_one(self):
        assert mat_poly_eval(IntPolynomial([1]), A_STD) == IntMatrix.identity(2)

    def test_x_squared_minus_one(self):
        p = IntPolynomial([-1, 0, 1])
        assert mat_poly_eval(p, A_STD) == IntMatrix([[28, 12], [12, 4]])

    def test_zero_polynomial(self):
        assert mat_poly_eval(IntPolynomial([]), A_STD) == IntMatrix.zero(2)

    @given(
        square_matrices(max_n=3, max_entry=5),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    )
    def test_product_factors(self, m, cp, cq):
        # polynomials in the same matrix commute, so evaluation is a ring map
        p, q = IntPolynomial(cp), IntPolynomial(cq)
        assert mat_poly_eval(p * q, m) == mat_poly_eval(p, m) @ mat_poly_eval(q, m)

    @given(
        square_matrices(max_n=4, max_entry=6),
        st.lists(st.integers(-7, 7), max_size=5),
    )
    @example(A_STD, [])  # the zero polynomial
    @example(A_STD, [-3])  # a constant
    @example(A_STD, [0, 0, 5])  # p(0) = 0, leading coefficient 5
    @example(IntMatrix([[0, 1], [0, 0]]), [1, -4])
    def test_matches_sum_of_powers(self, m, coeffs):
        # oracle: p(m) = sum_k c_k m^k, with no Horner step shared
        terms = (
            IntMatrix([[c * x for x in row] for row in mat_pow(m, k).rows])
            for k, c in enumerate(coeffs)
        )
        expected = sum(terms, IntMatrix.zero(m.n))
        assert mat_poly_eval(IntPolynomial(coeffs), m) == expected


class TestMatPow:
    def test_block_square(self):
        assert mat_pow(IntMatrix([[2, 1], [1, 0]]), 2) == A_STD

    def test_power_zero(self):
        assert mat_pow(A_STD, 0) == IntMatrix.identity(2)

    def test_square_of_standard(self):
        assert mat_pow(A_STD, 2) == IntMatrix([[29, 12], [12, 5]])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(A_STD, -1)


class TestTracePower:
    """trace_power against the trace of mat_pow, its oracle."""

    @settings(deadline=None)
    @given(square_matrices(max_n=5, max_entry=4), st.integers(0, 300))
    @example(IntMatrix([[1, 2], [2, 4]]), 37)  # singular
    @example(IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), 2)  # nilpotent
    @example(IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), 3)
    @example(IntMatrix([[0, 1], [1, 0]]), 299)  # det = -1
    @example(IntMatrix([[2, 1], [1, 0]]), 300)  # det = -1
    @example(IntMatrix.zero(4), 0)
    def test_matches_mat_pow(self, m, k):
        assert trace_power(m, k) == mat_pow(m, k).trace()

    def test_power_zero_is_dimension(self):
        for n in range(1, 6):
            assert trace_power(IntMatrix.zero(n), 0) == n
        assert trace_power(A_STD, 0) == 2

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            trace_power(A_STD, -1)

    @pytest.mark.parametrize("c", [-3, -1, 0, 1, 7])
    def test_one_by_one_is_a_power(self, c):
        for k in range(12):
            assert trace_power(IntMatrix([[c]]), k) == c**k

    def test_standard_matrix_at_a_large_prime(self):
        assert trace_power(A_STD, 10007) == mat_pow(A_STD, 10007).trace()


class TestUnimodular:
    def test_standard_matrix(self):
        assert is_unimodular(A_STD)

    def test_identity(self):
        assert is_unimodular(IntMatrix.identity(4))

    def test_singularish(self):
        assert not is_unimodular(IntMatrix([[4, 2], [2, 0]]))

    @given(st.integers(1, 4), st.integers(0, 40), st.integers(0, 2**32))
    def test_random_glnz_always_unimodular(self, n, steps, seed):
        b, b_inv = random_glnz(n, steps=steps, seed=seed)
        assert is_unimodular(b) and is_unimodular(b_inv)

    def test_random_glnz_deterministic(self):
        assert random_glnz(3, steps=25, seed=99) == random_glnz(3, steps=25, seed=99)

    def test_random_glnz_zero_steps(self):
        identity = IntMatrix.identity(4)
        assert random_glnz(4, steps=0, seed=5) == (identity, identity)

    # B as drawn before random_glnz returned its inverse; the RNG draws are
    # unchanged, so these must stay bit-identical
    @pytest.mark.parametrize(
        "n,steps,seed,rows",
        [
            (1, 20, 0, [[1]]),
            (1, 7, 5, [[-1]]),
            (3, 20, 0, [[0, 1, 0], [-1, -8, 0], [0, 0, 1]]),
            (3, 20, 12345, [[-4, 53, -27], [-5, 26, -13], [3, -16, 8]]),
            (
                6,
                20,
                0,
                [
                    [1, -2, 0, 0, -6, 3],
                    [0, 0, 1, 0, -1, 0],
                    [0, -1, 0, 0, 0, 0],
                    [0, 0, 0, -1, 0, 0],
                    [0, 0, 0, 0, 1, 0],
                    [2, -4, 0, 0, -10, 5],
                ],
            ),
            (
                6,
                30,
                7,
                [
                    [0, 2, 7, -2, 0, 0],
                    [0, 2, 6, -1, 0, 1],
                    [0, -1, -3, 0, 0, 0],
                    [0, 5, 15, 0, -1, 0],
                    [1, 3, 9, 0, 0, 0],
                    [0, 2, 6, -1, 0, 0],
                ],
            ),
        ],
    )
    def test_random_glnz_pinned_matrices(self, n, steps, seed, rows):
        b, _ = random_glnz(n, steps=steps, seed=seed)
        assert b == IntMatrix(rows)

    @given(st.integers(1, 6), st.integers(0, 60), st.integers(0, 2**32))
    @settings(deadline=None)
    def test_replayed_inverse_matches_smith_inverse(self, n, steps, seed):
        b, b_inv = random_glnz(n, steps=steps, seed=seed)
        assert b @ b_inv == IntMatrix.identity(n)
        assert unimodular_inverse(b) == b_inv

    @pytest.mark.parametrize("rows", [[[4, 2], [2, 0]], [[2, 0], [0, 1]], [[0]]])
    def test_unimodular_inverse_rejects_other_determinants(self, rows):
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse(IntMatrix(rows))


class TestDeterminantalDivisors:
    def test_examples(self):
        assert determinantal_divisors(IntMatrix([[4, 2], [2, 0]])) == [2, 4]
        assert determinantal_divisors(IntMatrix.identity(3)) == [1, 1, 1]
        assert determinantal_divisors(IntMatrix([[6, 2], [2, 2]])) == [2, 8]


class TestTextFormats:
    def test_matrix_roundtrip(self):
        assert parse_matrix("5,2;2,1") == A_STD
        assert format_matrix(A_STD) == "5,2;2,1"

    def test_matrix_errors_carry_position(self):
        with pytest.raises(MatrixParseError, match="row 2, column 1"):
            parse_matrix("1,2;x,4")
        with pytest.raises(MatrixParseError, match="row 2"):
            parse_matrix("1,2;3")
        with pytest.raises(MatrixParseError, match="square"):
            parse_matrix("1,2,3;4,5,6")

    def test_poly_roundtrip(self):
        p = parse_poly("-1,1")
        assert p.coeffs == (-1, 1)
        assert format_poly(p) == "-1,1"
        assert str(p) == "x - 1"
        assert str(parse_poly("1,-2,0,1")) == "x^3 - 2*x + 1"

    @pytest.mark.parametrize("coeffs", [(), (0,), (0, 0, 0)])
    def test_zero_polynomial_renders_as_0(self, coeffs):
        p = IntPolynomial(coeffs)
        assert (p.coeffs, str(p), format_poly(p)) == ((), "0", "0")
        assert parse_poly(format_poly(p)) == p


@settings(max_examples=300)
@given(square_matrices())
def test_snf_fixed_input_is_deterministic(m):
    assert snf(m).d == snf(m).d


def test_snf_bulk_random_suite():
    rng = random.Random(20_08_10)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
        dec = snf(m)
        assert dec.verify(m)
