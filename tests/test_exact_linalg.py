import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcurves.af_invariant import AbelianGroup, quotient_group
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


class TestConstructors:
    @pytest.mark.parametrize("bad", [2.7, Fraction(5, 2), Fraction(2)])
    def test_non_integers_raise_instead_of_truncating(self, bad):
        with pytest.raises(TypeError):
            IntMatrix([[bad, 1], [1, 1]])
        with pytest.raises(TypeError):
            IntPolynomial([bad, 2])


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

    @given(square_matrices())
    def test_matches_determinantal_divisor_oracle(self, m):
        oracle = determinantal_divisors(m)
        prefix = 1
        for k, dk in enumerate(smith_d(m)):
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
