import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from afcurves import af_invariant, exact_linalg, shell, zeta
from afcurves.af_invariant import AbelianGroup, quotient_group, validate_incidence
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
from oracles import diagonal_from_minors, mat_sum, poly_mul, smith_chain_matches

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
            (lambda: A_STD - IntMatrix.identity(3), "dimension mismatch"),
            (lambda: random_glnz(0), "dimension must be >= 1"),
            (lambda: random_glnz(2, steps=-1), "steps must be >= 0"),
            (lambda: mat_pow(A_STD, -1), "exponent must be >= 0"),
            (lambda: trace_power(A_STD, -1), "exponent must be >= 0"),
        ],
        ids=["empty", "ragged", "matmul", "sub", "glnz_n", "glnz_steps",
             "mat_pow_exponent", "trace_power_exponent"],
    )
    def test_shape_refusals(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert (type(exc.value), str(exc.value)) == (ValueError, message)


def _lookup_error(*args, **kwargs):
    raise LookupError("the first worker was reached")


# the first worker after an argument's check, as (object, name, stub); the
# stub raises LookupError, so a check that lets a non-integer through shows
IDENTITY = (IntMatrix, "identity", _lookup_error)
RNG = (exact_linalg, "random", SimpleNamespace(Random=_lookup_error))
BASE_GROUP = (af_invariant, "quotient_group", _lookup_error)
PRIMALITY = (zeta, "is_prime", _lookup_error)
TRACE_POWER = (zeta, "trace_power", _lookup_error)

E_CM = CurveQ(-1, 0)
INC_STD = validate_incidence(A_STD)
# tr = 4, so tr^2 - 4 = 12 and p = 3 takes the operator's alpha branch
INC_BAD_AT_3 = validate_incidence(IntMatrix([[2, 1, 0], [0, 1, 1], [1, 1, 1]]))
X_MINUS_1 = IntPolynomial([-1, 1])


def _zeta_command(order):
    args = shell.build_parser().parse_args(["zeta", "lambda=-1", "5,2;2,1", "--primes", "5"])
    args.order = order  # argparse's int never hands it anything else
    return shell._cmd_zeta(args)


# Each entry point's integer argument: (call taking it, a value it admits,
# its first worker, or None for is_prime and local_bits_bound, whose work is
# all arithmetic on their arguments).
# compare_local checks p first (TestErrorPrecedence), so its order and alpha
# are checked after p and before the curve count and trace_power.  A p row's
# worker is is_prime, which the p check calls on the int that exact_int returns.
INTEGER_ARGUMENTS = {
    "mat_pow-k": (lambda x: mat_pow(A_STD, x), 2, IDENTITY),
    "trace_power-k": (lambda x: trace_power(A_STD, x), 3, IDENTITY),
    "random_glnz-n": (lambda x: random_glnz(x), 2, RNG),
    "random_glnz-steps": (lambda x: random_glnz(2, steps=x), 5, RNG),
    "random_glnz-seed": (lambda x: random_glnz(2, seed=x), 7, RNG),
    "probe-trials": (
        lambda x: af_invariant.invariance_probe(INC_STD, X_MINUS_1, trials=x), 2, BASE_GROUP
    ),
    "probe-seed": (
        lambda x: af_invariant.invariance_probe(INC_STD, X_MINUS_1, 2, seed=x), 3, BASE_GROUP
    ),
    "count_points-n": (lambda x: zeta.count_points(E_CM, 5, n=x), 2, PRIMALITY),
    "count_points_enumerated-n": (
        lambda x: zeta.count_points_enumerated(E_CM, 5, x), 2, PRIMALITY
    ),
    "curve_local_zeta-order": (lambda x: zeta.curve_local_zeta(E_CM, 5, x), 3, PRIMALITY),
    "compare_local-order": (
        lambda x: zeta.compare_local(E_CM, INC_STD, 5, x), 3, TRACE_POWER
    ),
    "compare_local-alpha": (
        lambda x: zeta.compare_local(E_CM, INC_BAD_AT_3, 3, 2, alpha=x), -1, TRACE_POWER
    ),
    "operator_counts-order": (
        lambda x: zeta.operator_local_zeta_counts(INC_STD, 5, x), 3, TRACE_POWER
    ),
    "operator_counts-alpha": (
        lambda x: zeta.operator_local_zeta_counts(INC_BAD_AT_3, 3, 4, alpha=x), -1, TRACE_POWER
    ),
    "is_prime-m": (zeta.is_prime, 7, None),
    "count_points-p": (lambda x: zeta.count_points(E_CM, x, 2), 5, PRIMALITY),
    "count_points_enumerated-p": (
        lambda x: zeta.count_points_enumerated(E_CM, x, 2), 5, PRIMALITY
    ),
    "trace_frobenius-p": (lambda x: zeta.trace_frobenius(E_CM, x), 7, PRIMALITY),
    "curve_local_zeta-p": (lambda x: zeta.curve_local_zeta(E_CM, x, 3), 5, PRIMALITY),
    "compare_local-p": (lambda x: zeta.compare_local(E_CM, INC_STD, x, 3), 5, PRIMALITY),
    "operator_counts-p": (
        lambda x: zeta.operator_local_zeta_counts(INC_STD, x, 3), 5, PRIMALITY
    ),
    "operator_counts-bad-p": (
        lambda x: zeta.operator_local_zeta_counts(INC_BAD_AT_3, x, 4, alpha=-1), 3, PRIMALITY
    ),
    "local_bits_bound-p": (lambda x: zeta.local_bits_bound(INC_STD, x, 3), 5, PRIMALITY),
    "local_bits_bound-order": (lambda x: zeta.local_bits_bound(INC_STD, 5, x), 3, None),
    "cli_zeta-order": (_zeta_command, 3, PRIMALITY),
}


class TestIntegerArguments:
    """Every entry point's integer argument passes exact_int, or
    exact_int_at_least where it has a lower bound, before any work."""

    @pytest.mark.parametrize("bad", [True, False, 2.0, Fraction(2), "2"], ids=repr)
    @pytest.mark.parametrize("call,_value,worker", INTEGER_ARGUMENTS.values(),
                             ids=INTEGER_ARGUMENTS)
    def test_non_integers_raise_before_any_work(self, monkeypatch, call, _value, worker, bad):
        if worker is not None:
            monkeypatch.setattr(*worker)
        with pytest.raises(TypeError):
            call(bad)

    @pytest.mark.parametrize("call,value,_worker", INTEGER_ARGUMENTS.values(),
                             ids=INTEGER_ARGUMENTS)
    def test_index_integers_pass(self, call, value, _worker):
        assert call(Index(value)) == call(value)

    def test_reports_store_int(self):
        report = af_invariant.invariance_probe(INC_STD, X_MINUS_1, Index(2), seed=Index(3))
        assert (type(report.trials), type(report.seed)) == (int, int)
        report = zeta.compare_local(E_CM, INC_BAD_AT_3, 3, 2, alpha=Index(-1))
        assert type(report.operator_params.alpha) is int
        assert type(zeta.compare_local(E_CM, INC_STD, Index(5), 2).prime) is int

    @pytest.mark.parametrize("p", [0, -1, 9])
    @pytest.mark.parametrize(
        "call", [row[0] for name, row in INTEGER_ARGUMENTS.items() if name.endswith("-p")],
        ids=[name for name in INTEGER_ARGUMENTS if name.endswith("-p")],
    )
    def test_p_that_is_not_prime_is_refused_before_any_work(self, monkeypatch, call, p):
        monkeypatch.setattr(*TRACE_POWER)
        with pytest.raises(ValueError) as exc:
            call(p)
        assert (type(exc.value), str(exc.value)) == (ValueError, f"{p} is not prime")


class TestBadBranchRefusals:
    """The operator's bad branch (p | tr(A)^2 - 4) refuses a missing or bad
    alpha before it takes tr(A^p); a valid alpha still takes it."""

    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: zeta.operator_local_zeta_counts(INC_BAD_AT_3, 3, 2),
             zeta.AlphaRequired, "p = 3 divides tr(A)^2 - 4; choose alpha in {-1, 0, 1}"),
            (lambda: zeta.operator_local_zeta_counts(INC_BAD_AT_3, 3, 2, alpha=5),
             ValueError, "alpha must be -1, 0, or 1"),
            (lambda: zeta.compare_local(E_CM, INC_BAD_AT_3, 3, 2),
             zeta.AlphaRequired, "p = 3 divides tr(A)^2 - 4; choose alpha in {-1, 0, 1}"),
        ],
        ids=["counts_no_alpha", "counts_alpha_5", "compare_no_alpha"],
    )
    def test_refused_before_trace_power(self, monkeypatch, call, error, message):
        monkeypatch.setattr(*TRACE_POWER)
        with pytest.raises(error) as exc:
            call()
        assert (type(exc.value), str(exc.value)) == (error, message)

    def test_valid_alpha_stores_the_trace_power(self, monkeypatch):
        report = zeta.compare_local(E_CM, INC_BAD_AT_3, 3, 2, alpha=0)
        assert report.operator_params.branch == "bad"
        assert report.operator_params.trace_power == trace_power(INC_BAD_AT_3.m, 3)
        monkeypatch.setattr(*TRACE_POWER)
        with pytest.raises(LookupError, match="the first worker was reached"):
            zeta.operator_local_zeta_counts(INC_BAD_AT_3, 3, 2, alpha=0)


class TestOperatorBitsBound:
    """The operator side refuses with BudgetExceeded when max(order, 1) * p *
    floor(log2 ||A||) passes 2^20, before tr(A^p); at or below it, tr(A^p) is
    taken.  ||A_STD|| = 7 gives 2 bits a unit of p, so at order 3 the twin
    primes 174,761 (6p = 1,048,566) and 174,763 (6p = 1,048,578) straddle
    2^20 = 1,048,576, and at order 0 or 1 the primes 524,287 and 524,309."""

    CALLS = {
        "compare": lambda p, order: zeta.compare_local(E_CM, INC_STD, p, order),
        "counts": lambda p, order: zeta.operator_local_zeta_counts(INC_STD, p, order),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize(
        "order,admitted,refused", [(3, 174_761, 174_763), (1, 524_287, 524_309),
                                   (0, 524_287, 524_309)],
    )
    def test_refused_past_the_bound_before_trace_power(
        self, monkeypatch, name, order, admitted, refused
    ):
        monkeypatch.setattr(*TRACE_POWER)
        with pytest.raises(LookupError, match="the first worker was reached"):
            self.CALLS[name](admitted, order)
        with pytest.raises(exact_linalg.BudgetExceeded) as exc:
            self.CALLS[name](refused, order)
        assert str(exc.value) == (
            f"at p = {refused} and order {order}, max(order, 1) * p * "
            f"floor(log2 ||A||) = {max(order, 1) * refused * 2} bits is past 2^20"
        )

    @pytest.mark.parametrize("order,refused", [(3, 174_763), (1, 524_309), (0, 524_309)])
    def test_bits_bound_past_the_cap_is_the_floor_refused_on(self, order, refused):
        # one formula on both sides: past 2^20 local_bits_bound returns the
        # number the refusal above names (1,048,578 at p = 174,763, order 3),
        # and 7^p (~0.3 MB there) is not formed
        tracemalloc.start()
        try:
            bits = zeta.local_bits_bound(INC_STD, refused, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits == max(order, 1) * refused * 2
        assert peak < 2**16


FIBONACCI = IntMatrix([[1, 1], [1, 0]])
X2_MINUS_X_MINUS_1 = IntPolynomial([-1, -1, 1])


def smith_d(m):
    """The Smith diagonal by both routes, the certificate's and the diagonal alone."""
    d = snf(m).d
    assert smith_diagonal(m) == d
    return d


def box(n, low, high):
    """Every n x n matrix with entries in [low, high]."""
    for entries in itertools.product(range(low, high + 1), repeat=n * n):
        yield IntMatrix([entries[i * n:(i + 1) * n] for i in range(n)])


class TestSnf:
    def test_reduction_of_a_minus_identity(self):
        assert smith_d(IntMatrix([[4, 2], [2, 0]])) == (2, 2)

    def test_zero_matrix(self):
        zero = IntMatrix([[0, 0], [0, 0]])
        dec = snf(zero)
        assert dec.d == (0, 0)
        assert dec.verify(zero)
        assert smith_diagonal(zero) == (0, 0)

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

    @pytest.mark.parametrize("n,low,high", [(2, -4, 4), (3, -1, 1)], ids=["2x2", "3x3"])
    def test_every_matrix_of_a_small_box_matches_the_minors(self, wall_bound, n, low, high):
        with wall_bound(60):
            for m in box(n, low, high):
                assert smith_d(m) == diagonal_from_minors(m), m

    def test_rank_deficient_fibonacci_block(self):
        # x^2 - x - 1 kills the Fibonacci block, so p(A) has rank 2 of 4;
        # conjugating by B makes p(A) dense without changing its diagonal
        a = IntMatrix([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
        b, b_inv = random_glnz(4, steps=30, seed=3)
        pm = mat_poly_eval(X2_MINUS_X_MINUS_1, (b @ a) @ b_inv)
        assert mat_poly_eval(X2_MINUS_X_MINUS_1, FIBONACCI) == IntMatrix([[0, 0], [0, 0]])
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
    @example(IntMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))  # r = 0, N = 1
    @example(IntMatrix([[0, 1, 2], [0, 3, 4], [0, 5, 7]]))  # zero first column
    @example(IntMatrix([[1, 0, 2], [3, 0, 4], [5, 0, 7]]))  # zero middle column
    @example(IntMatrix([[1, 2, 0], [3, 4, 0], [5, 7, 0]]))  # zero last column
    @example(IntMatrix([[2, -4, 6], [-1, 2, -3], [3, -6, 9]]))  # rank 1
    def test_bareiss_gives_the_rank_and_a_minor_the_divisors_divide(self, m):
        rank, minor, g = exact_linalg._bareiss(m.rows)
        divisors = [1] + determinantal_divisors(m)  # D_0 = 1, ..., D_n
        assert rank == sum(1 for x in divisors[1:] if x)
        assert minor != 0 and minor % divisors[rank] == 0
        if rank == m.n:
            assert minor == determinant(m) == int(sympy.Matrix(m.rows).det())
            assert g % divisors[m.n - 1] == 0

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

    def test_smith_diagonal_never_reaches_smith(self, monkeypatch):
        monkeypatch.setattr(exact_linalg, "_smith", _smith_unreached)
        assert smith_diagonal(_seeded_matrix(6, 6)) == (1, 1, 1, 1, 2, 158720)
        assert smith_diagonal(IntMatrix([[2, 4], [3, 6]])) == (1, 0)

    @pytest.mark.parametrize("n,deficit", [(8, 1), (8, 2), (16, 1), (16, 2)])
    def test_dense_singular_matches_snf(self, wall_bound, n, deficit):
        # the last `deficit` rows are integer combinations of the others, so
        # the rank is n - deficit; snf's _smith is an engine of its own
        rng = random.Random(n + deficit)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n - deficit)]
        for _ in range(deficit):
            ks = [rng.randint(-3, 3) for _ in range(n - deficit)]
            rows.append([sum(k * row[j] for k, row in zip(ks, rows)) for j in range(n)])
        m = IntMatrix(rows)
        with wall_bound(5):
            d = smith_diagonal(m)
        assert d[n - deficit - 1] != 0 and d[n - deficit:] == (0,) * deficit
        assert d == snf(m).d


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


def test_smith_chain_rule_matches_its_comprehension_form():
    # every d of length 1-3 with entries in {-2, ..., 4}, as a tuple (verify's
    # d) and as a list (_smith_diagonal's), against every det in {-8, ..., 8}
    verdicts = set()
    for length in (1, 2, 3):
        for d in itertools.product(range(-2, 5), repeat=length):
            for det in range(-8, 9):
                want = smith_chain_matches(d, det)
                assert exact_linalg._smith_diagonal_matches(d, det) == want, (d, det)
                assert exact_linalg._smith_diagonal_matches(list(d), det) == want, (d, det)
                verdicts.add(want)
    assert verdicts == {True, False}


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
        def cofactor_det(rows):
            if len(rows) == 1:
                return rows[0][0]
            return sum(
                (-1) ** j * x * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
                for j, x in enumerate(rows[0])
            )

        assert determinant(m) == cofactor_det(m.rows)


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
        assert mat_poly_eval(IntPolynomial([]), A_STD) == IntMatrix([[0, 0], [0, 0]])

    @given(
        square_matrices(max_n=3, max_entry=5),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    )
    def test_product_factors(self, m, cp, cq):
        # polynomials in the same matrix commute, so evaluation is a ring map
        p, q = IntPolynomial(cp), IntPolynomial(cq)
        assert mat_poly_eval(poly_mul(p, q), m) == mat_poly_eval(p, m) @ mat_poly_eval(q, m)

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
        expected = mat_sum(terms, m.n)
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
    @example(IntMatrix([[0] * 4 for _ in range(4)]), 0)
    def test_matches_mat_pow(self, m, k):
        assert trace_power(m, k) == mat_pow(m, k).trace()

    def test_power_zero_is_dimension(self):
        for n in range(1, 6):
            assert trace_power(IntMatrix([[0] * n for _ in range(n)]), 0) == n
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

    def test_two_by_two_box_on_the_lucas_ladder(self, wall_bound):
        # all 2,401 matrices with entries in [-3, 3], det 0 and |det| > 1
        # among them; the 1 x 1 and n >= 3 cases keep the generic route covered.
        # The oracle is mat_pow's m^k, built here one product a step: a
        # square-and-multiply for every k takes about five times as long.
        with wall_bound(60):
            for m in box(2, -3, 3):
                power = IntMatrix.identity(2)
                for k in range(41):
                    assert trace_power(m, k) == power.trace(), (m, k)
                    power = power @ m
                assert power == mat_pow(m, 41)

    def test_the_largest_admitted_exponent_runs(self, wall_bound):
        # ||A_STD|| = 7, so k * floor(log2 7) = 2k meets 2^20 at k = 2^19
        k = 2**19
        with wall_bound(1):
            t = trace_power(A_STD, k)
        assert t == trace_power(A_STD, k - 1) * 6 - trace_power(A_STD, k - 2)

    @pytest.mark.parametrize("k", [2**19 + 1, 10**6, 10**100])
    def test_an_exponent_past_the_bound_refuses_before_the_ladder(self, wall_bound, k):
        with wall_bound(0.05), pytest.raises(exact_linalg.BudgetExceeded) as exc:
            trace_power(A_STD, k)
        assert str(exc.value) == (
            f"tr(m^k) at k = {k}: k * floor(log2 ||m||) = {2 * k} is past 2^20"
        )

    def test_a_row_sum_of_one_takes_any_exponent(self):
        # floor(log2 1) = 0: the powers of a permutation stay permutations
        assert trace_power(IntMatrix([[0, 1], [1, 0]]), 10**100) == 2
        assert trace_power(IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), 3 * 10**50) == 3

    @pytest.mark.parametrize("p", [20011, 29989])
    @pytest.mark.parametrize(
        "rows",
        # the benchmark's four 2 x 2 incidence matrices, then A_STD
        [[[2, 1], [1, 1]], [[3, 2], [1, 1]], [[1, 1], [1, 2]], [[2, 3], [1, 2]],
         [[5, 2], [2, 1]]],
        ids=["2,1;1,1", "3,2;1,1", "1,1;1,2", "2,3;1,2", "5,2;2,1"],
    )
    def test_incidence_matrices_at_the_benchmarks_primes(self, wall_bound, rows, p):
        m = IntMatrix(rows)
        with wall_bound(10):
            assert trace_power(m, p) == mat_pow(m, p).trace()


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
