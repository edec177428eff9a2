import sys
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import afcurves.cli  # noqa: F401  (loads every afcurves module that could bind mat_pow)
from afcurves import exact_linalg, zeta
from afcurves.af_invariant import validate_incidence
from afcurves.elliptic import CurveQ, legendre_model
from afcurves.exact_linalg import IntMatrix, determinant, mat_pow, trace_power
from afcurves.zeta import (
    MILLER_RABIN_BOUND,
    RESIDUE_COUNT_MAX,
    AlphaRequired,
    BadReduction,
    BudgetExceeded,
    UnsupportedCharacteristic,
    compare_local,
    count_points,
    count_points_enumerated,
    curve_local_zeta,
    is_prime,
    operator_local_zeta_counts,
    trace_frobenius,
)

from oracles import trace_discriminant_mod

E_CM = CurveQ(-1, 0)
A_STD = validate_incidence(IntMatrix([[5, 2], [2, 1]]))
# tr = 4, so tr^2 - 4 = 12 and 5, 7, 101 are good primes for it
A_3X3 = validate_incidence(IntMatrix([[2, 1, 0], [0, 1, 1], [1, 1, 1]]))


def lp_matrix(a, p: int) -> IntMatrix:
    """The paper's L_p = [[tr(A^p), p], [-1, 0]], with tr(A^p) read off
    mat_pow rather than trace_power, which the operator side runs on."""
    return IntMatrix([[mat_pow(a.m, p).trace(), p], [-1, 0]])


GOOD_ODD_PRIMES_UNDER_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def trial_division_primes(limit: int) -> list:
    """Primes below limit by trial division: the oracle for is_prime."""
    primes = []
    for n in range(2, limit):
        for q in primes:
            if q * q > n:
                primes.append(n)
                break
            if n % q == 0:
                break
        else:
            primes.append(n)
    return primes


SMALL_PRIMES = trial_division_primes(2 * 10**4)
# every prime on the Shanks-Mestre route below 2e4
MESTRE_PRIMES = [p for p in SMALL_PRIMES if p > RESIDUE_COUNT_MAX]


class TestIsPrime:
    def test_matches_trial_division_below_2e5(self):
        primes = set(trial_division_primes(2 * 10**5))
        for n in range(-3, 2 * 10**5):
            assert is_prime(n) == (n in primes), n

    @pytest.mark.parametrize(
        "factors",
        # strong pseudoprimes to the bases 2..7, 2..23 and 2..37
        [(151, 751, 28351), (149491, 747451, 34233211), (399165290221, 798330580441)],
    )
    def test_strong_pseudoprimes_are_composite(self, factors):
        assert not is_prime(prod(factors))

    def test_large_primes(self):
        assert is_prime(10**12 + 39)
        assert is_prime(10**9 + 7)
        assert not is_prime((10**9 + 7) * (10**9 + 9))

    def test_past_the_proven_bound_raises(self):
        for n in (MILLER_RABIN_BOUND, MILLER_RABIN_BOUND + 1, 2 * MILLER_RABIN_BOUND):
            with pytest.raises(BudgetExceeded):
                is_prime(n)
        assert issubclass(BudgetExceeded, ValueError)


def _unreached(*args):
    raise LookupError("the count was reached")


class TestCountPoints:
    def test_p3(self):
        assert count_points(E_CM, 3, 1) == 4

    def test_p5(self):
        assert count_points(E_CM, 5, 1) == 8

    def test_f9(self):
        assert count_points(E_CM, 3, 2) == 16

    def test_recurrence_matches_enumeration_oracle(self):
        # every good (p, n >= 2) with p^n <= 10^4 on E_CM, and p^n <= 2000 on
        # a non-CM curve, whose a_p is nonzero at primes = 3 (mod 4) as well
        for e, limit, expected_pairs in (
            (E_CM, 10**4, 39),
            (CurveQ(-43, 166), 2000, 20),
        ):
            pairs = 0
            for p in range(3, 100, 2):
                if not is_prime(p) or e.disc % p == 0:
                    continue
                n = 2
                while p**n <= limit:
                    assert count_points(e, p, n) == count_points_enumerated(e, p, n)
                    pairs += 1
                    n += 1
            assert pairs == expected_pairs
        # compare_local takes its counts from the recurrence, not count_points
        for p in (3, 5, 7, 13):
            report = compare_local(E_CM, A_STD, p, 3)
            assert report.curve_counts == tuple(
                count_points_enumerated(E_CM, p, n) for n in (1, 2, 3)
            )

    def test_characteristic_two_rejected(self):
        with pytest.raises(UnsupportedCharacteristic):
            count_points(E_CM, 2, 1)

    def test_bad_reduction_rejected(self):
        # disc(y^2 = x^3 - x + 1) = -16 * 23
        e = CurveQ(-1, 1)
        with pytest.raises(BadReduction):
            count_points(e, 23, 1)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            count_points(E_CM, 9, 1)

    @pytest.mark.parametrize("n", [14655, 10**6])
    def test_a_large_n_is_refused_before_the_count(self, monkeypatch, wall_bound, n):
        # the recurrence takes O(n^2) bit work: 0.32 s at n = 20,000 when
        # unbounded; 14,654 is the largest n admitted at p = 1009
        monkeypatch.setattr(zeta, "_trace_frobenius", _unreached)
        message = (f"at p = 1009 and n = {n}, n^2 * p.bit_length() = "
                   f"{n * n * 10} is past 2^31")
        with wall_bound(1), pytest.raises(BudgetExceeded) as exc:
            count_points(E_CM, 1009, n)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "e",
        [
            E_CM,
            CurveQ(0, 1),  # supersingular at p = 2 (mod 3)
            CurveQ(-43, 166),
            legendre_model(Fraction(3)).curve,  # full 2-torsion: not cyclic mod p
        ],
    )
    def test_shanks_mestre_matches_residue_count(self, e):
        primes = [p for p in MESTRE_PRIMES if p < 3000 and e.disc % p]
        assert len(primes) == 380  # every prime in (229, 3000) is good here
        for p in primes:
            assert count_points(e, p, 1) == zeta._count_points_prime_field(e, p), p

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6),
        st.sampled_from(MESTRE_PRIMES),
    )
    @example(3, -3, 271)  # the point x = 2 has order 10 = 2s, twice the baby steps
    def test_shanks_mestre_matches_residue_count_random(self, a, b, p):
        assume((4 * a**3 + 27 * b * b) % p != 0)
        e = CurveQ(a, b)
        assert count_points(e, p, 1) == zeta._count_points_prime_field(e, p)

    def test_order_modulus_matches_point_orders(self):
        # every point the count draws from x < 40, on E or its twist, at the
        # first ten primes of the route: m * P = O exactly when d | m
        for e in (E_CM, CurveQ(0, 1), CurveQ(-43, 166), CurveQ(3, -3)):
            for p in MESTRE_PRIMES[:10]:
                if e.disc % p == 0:
                    continue
                lo, hi = p + 1 - isqrt(4 * p), p + 1 + isqrt(4 * p)
                count = zeta._count_points_prime_field(e, p)
                for x in range(40):
                    c = (x**3 + e.a * x + e.b) % p
                    if c == 0:
                        continue
                    point, a = (c * x % p, c * c % p), e.a * c * c % p
                    twist = pow(c, (p - 1) // 2, p) != 1
                    group_order = 2 * p + 2 - count if twist else count
                    order = min(
                        n for n in range(1, group_order + 1)
                        if group_order % n == 0 and zeta._ec_mul(n, point, a, p) is None
                    )
                    d = zeta._order_modulus(point, a, p, lo, hi)
                    for m in range(lo, hi + 1):
                        assert (m % order == 0) == (m % d == 0), (e, p, x, m)

    def test_large_p_supersingular(self):
        # p = 10^9 + 7 is 3 (mod 4) and 2 (mod 3): both CM curves have p + 1
        # points; a residue count would need a list of length p
        p = 10**9 + 7
        assert count_points(E_CM, p, 1) == p + 1
        assert count_points(CurveQ(0, 1), p, 1) == p + 1

    def test_large_p_ordinary_cm_trace(self):
        # p = u^2 + v^2 with u odd; CM by Z[i] makes a_p = +-2u
        p, u, v = 10**12 + 61, 529205, 848494
        assert p % 4 == 1 and u * u + v * v == p and is_prime(p)
        assert abs(trace_frobenius(E_CM, p)) == 2 * u

    def test_enumeration_cap(self):
        # 3^13 = 1594323 exceeds ENUMERATION_MAX; the recurrence has no cap
        with pytest.raises(ValueError):
            count_points_enumerated(E_CM, 3, 13)
        assert count_points(E_CM, 3, 13) == 3**13 + 1

    @pytest.mark.parametrize("n,message", [
        (0, "extension degree must be >= 1"),
        # 3^n alone is past the cap, so p^n, 1.6 million bits here and past
        # the digit limit of str(), is neither formed nor named
        (10**6, f"p^n = 3^{10**6} exceeds the enumeration cap {zeta.ENUMERATION_MAX}"),
    ])
    def test_enumerated_degree_is_refused_before_any_work(self, wall_bound, n, message):
        with wall_bound(2), pytest.raises(ValueError) as exc:
            count_points_enumerated(E_CM, 3, n)
        assert (type(exc.value), str(exc.value)) == (ValueError, message)

    def test_high_degree_is_fast_and_matches_frobenius_power(self, wall_bound):
        # p^n + 1 - tr(F^n) with F = [[a_p, -p], [1, 0]], whose characteristic
        # polynomial is x^2 - a_p x + p; the recurrence keeps two terms, so
        # n = 14,654, the largest n admitted at p = 1009, takes well under a second
        e, p, n = CurveQ(-1, 1), 1009, 14_654
        a_p = trace_frobenius(e, p)
        expected = p**n + 1 - mat_pow(IntMatrix([[a_p, -p], [1, 0]]), n).trace()
        with wall_bound(3):
            assert count_points(e, p, n) == expected


def _frobenius_counts(a_p: int, p: int, order: int) -> list:
    frobenius = IntMatrix([[a_p, -p], [1, 0]])
    return [p**n + 1 - mat_pow(frobenius, n).trace() for n in range(1, order + 1)]


class TestCurveCounts:
    @given(
        st.sampled_from([3, 5, 7, 11, 1009, 10**9 + 7]),
        st.integers(-200, 200),
        st.integers(0, 40),
    )
    @settings(max_examples=120, deadline=None)
    @example(3, 0, 0)  # order 0 yields nothing
    @example(5, 2, 1)
    @example(1009, -63, 40)
    def test_matches_frobenius_power(self, p, a_p, order):
        assert list(zeta._curve_counts(a_p, p, order)) == _frobenius_counts(a_p, p, order)

    @pytest.mark.parametrize("order", [0, 1, 2, 7])
    def test_never_forms_the_next_term(self, order):
        # each t_{n+1} = a_p t_n - p t_{n-1} multiplies by a_p once, so t_2
        # .. t_order take order - 1 products and t_{order+1} none
        products = []

        class CountingInt(int):
            def __mul__(self, other):
                products.append(other)
                return int(self) * other

        assert list(zeta._curve_counts(CountingInt(4), 7, order)) == (
            _frobenius_counts(4, 7, order)
        )
        assert len(products) == max(order - 1, 0)


class TestTraceFrobenius:
    @pytest.mark.parametrize("p,expected", [(3, 0), (5, -2), (7, 0)])
    def test_known_traces(self, p, expected):
        assert trace_frobenius(E_CM, p) == expected

    def test_hasse_bound_under_200(self):
        for p in range(3, 200, 2):
            if not is_prime(p) or E_CM.disc % p == 0:
                continue
            a_p = trace_frobenius(E_CM, p)
            assert a_p * a_p <= 4 * p

    def test_hasse_violation_raises(self, monkeypatch):
        # a_5 = 5 + 1 - 1 = 5 and 25 > 20: the check must hold under -O too
        monkeypatch.setattr(zeta, "_count_points_prime_field", lambda e, p: 1)
        with pytest.raises(RuntimeError, match="Hasse"):
            trace_frobenius(E_CM, 5)

    def test_supersingular_pattern(self):
        # CM by Z[i]: every good prime p = 3 (mod 4) is supersingular
        for p in range(3, 200, 2):
            if not is_prime(p) or p % 4 != 3:
                continue
            assert trace_frobenius(E_CM, p) == 0


class TestCurveLocalZeta:
    def test_series_p3(self):
        zs = curve_local_zeta(E_CM, 3, 4)
        # closed form (1 + 3z^2)/((1 - z)(1 - 3z)), expanded by hand:
        # geometric sums 1, 4, 13, 40, 121 plus 3 * (1, 4, 13) shifted
        assert zs.closed_coefficients == (1, 4, 16, 52, 160)
        assert zs.exp_coefficients == zs.closed_coefficients

    def test_order_zero(self):
        zs = curve_local_zeta(E_CM, 5, 0)
        assert zs.exp_coefficients == (1,)
        assert zs.closed_coefficients == (1,)

    def test_rationality_identity_for_all_good_primes_under_50(self):
        for p in GOOD_ODD_PRIMES_UNDER_50:
            zs = curve_local_zeta(E_CM, p, 8)
            assert zs.exp_coefficients == zs.closed_coefficients
            assert zs.numerator == (1, -zs.a_p, p)
            assert zs.denominator == (1, -(1 + p), p)

    @pytest.mark.parametrize("order", [458, 3000])
    def test_a_large_order_is_refused_before_the_series(self, wall_bound, order):
        # the series is O(order^2) products of growing integers: over 120 s
        # at order 3000 when unbounded; 457 is the largest order admitted here
        message = (f"at p = 1009 and order {order}, order^2 * p.bit_length() = "
                   f"{order * order * 10} is past 2^21")
        with wall_bound(1), pytest.raises(BudgetExceeded) as exc:
            curve_local_zeta(E_CM, 1009, order)
        assert str(exc.value) == message

    def test_the_largest_admitted_order_runs(self):
        zs = curve_local_zeta(E_CM, 1009, 457)
        assert len(zs.exp_coefficients) == 458


class TestLpMatrix:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (2, [[34, 2], [-1, 0]]),
            (3, [[198, 3], [-1, 0]]),
            (5, [[6726, 5], [-1, 0]]),
        ],
    )
    def test_known(self, p, expected):
        assert lp_matrix(A_STD, p) == IntMatrix(expected)
        assert trace_power(A_STD.m, p) == expected[0][0]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_det_is_p(self, p):
        assert determinant(lp_matrix(A_STD, p)) == p

    def test_det_is_p_for_other_matrices(self):
        for rows in ([[2, 1], [1, 1]], [[3, 2], [1, 1]], [[2, 1], [1, 0]]):
            a = validate_incidence(IntMatrix(rows))
            for p in (3, 5, 7):
                assert determinant(lp_matrix(a, p)) == p


class TestOperatorCounts:
    def test_p5_first_count(self):
        assert operator_local_zeta_counts(A_STD, 5, 1) == [6720]

    def test_p3_first_count(self):
        assert operator_local_zeta_counts(A_STD, 3, 1) == [194]

    def test_recurrence_matches_direct_determinant(self):
        for p in (3, 5, 7):
            lp = lp_matrix(A_STD, p)
            counts = operator_local_zeta_counts(A_STD, p, 6)
            for n in range(1, 7):
                direct = determinant(IntMatrix.identity(2) - mat_pow(lp, n))
                assert counts[n - 1] == abs(direct)

    @pytest.mark.parametrize("p", [5, 7, 101])
    def test_three_by_three_matches_direct_determinant(self, p):
        assert trace_discriminant_mod(A_3X3.m, p) != 0
        lp = lp_matrix(A_3X3, p)
        assert trace_power(A_3X3.m, p) == lp.rows[0][0]
        counts = operator_local_zeta_counts(A_3X3, p, 6)
        for n in range(1, 7):
            direct = determinant(IntMatrix.identity(2) - mat_pow(lp, n))
            assert counts[n - 1] == abs(direct)

    def test_bad_prime_detection(self):
        # tr(A)^2 - 4 = 32, so 2 is the only bad prime
        assert zeta._is_bad_prime(A_STD, 2)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert not zeta._is_bad_prime(A_STD, p)

    def test_bad_branch_needs_alpha(self):
        with pytest.raises(AlphaRequired):
            operator_local_zeta_counts(A_STD, 2, 3)

    @pytest.mark.parametrize(
        "alpha,expected",
        [(1, [0, 0, 0, 0]), (0, [1, 1, 1, 1]), (-1, [2, 0, 2, 0])],
    )
    def test_bad_branch_sequences(self, alpha, expected):
        assert operator_local_zeta_counts(A_STD, 2, 4, alpha=alpha) == expected

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            operator_local_zeta_counts(A_STD, 2, 3, alpha=2)


def test_compare_local_operator_half_matches_the_counts_routine():
    """compare_local's operator half against operator_local_zeta_counts and
    the paper's L_p, on both branches (A_3X3 is bad at p = 3)."""
    bad_cases = 0
    for a in (A_STD, A_3X3):
        for p in [q for q in SMALL_PRIMES if 2 < q < 60 and E_CM.disc % q]:
            bad = trace_discriminant_mod(a.m, p) == 0
            bad_cases += bad
            for alpha in (-1, 0, 1) if bad else (None,):
                report = compare_local(E_CM, a, p, 4, alpha=alpha)
                assert report.operator_counts == tuple(
                    operator_local_zeta_counts(a, p, 4, alpha=alpha)
                )
                params = report.operator_params
                assert params.trace_power == lp_matrix(a, p).rows[0][0]
                assert (params.branch, params.alpha) == (
                    ("bad", alpha) if bad else ("good", None)
                )
    assert bad_cases == 1


class TestErrorPrecedence:
    """Each entry point checks p once, through count_points at n = 1; these
    pin which error wins when an argument breaks two rules."""

    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: compare_local(E_CM, A_STD, 9, -1), ValueError, "9 is not prime"),
            (lambda: curve_local_zeta(E_CM, 9, -1), ValueError, "order must be >= 0"),
            (lambda: count_points(CurveQ(-1, 1), 23, 2), BadReduction, "divides"),
            (lambda: count_points(E_CM, 9, 2), ValueError, "9 is not prime"),
            (lambda: count_points(E_CM, 2, 2), UnsupportedCharacteristic, "p = 2"),
        ],
        ids=["compare_prime_first", "zeta_order_first", "bad_reduction_n2",
             "not_prime_n2", "char_two_n2"],
    )
    def test_which_error_wins(self, call, error, message):
        with pytest.raises(error, match=message) as exc:
            call()
        assert type(exc.value) is error


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: count_points(E_CM, 5, n=0), "extension degree must be >= 1"),
        (lambda: operator_local_zeta_counts(A_STD, 5, order=-1), "order must be >= 0"),
        (lambda: zeta.local_bits_bound(A_STD, 5, -1), "order must be >= 0"),
    ],
    ids=["count_points_n_0", "operator_order_minus_1", "bits_bound_order_minus_1"],
)
def test_size_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (ValueError, message)


class TestCompareLocal:
    def test_p5_report(self):
        report = compare_local(E_CM, A_STD, 5, 3)
        assert report.prime == 5
        assert report.a_p == -2
        assert report.curve_counts[0] == 8
        assert report.operator_counts[0] == 6720
        assert report.match_flags[0] is False
        assert report.curve_factor.numerator == (1, 2, 5)
        assert report.curve_factor.denominator == (1, -6, 5)
        assert report.operator_params.branch == "good"
        assert report.operator_params.trace_power == 6726

    def test_order_zero_report(self):
        report = compare_local(E_CM, A_STD, 5, 0)
        assert report.curve_counts == ()
        assert report.operator_counts == ()
        assert report.match_flags == ()

    def test_bad_reduction_surfaces(self):
        with pytest.raises(BadReduction):
            compare_local(CurveQ(-1, 1), A_STD, 23, 2)

    def test_characteristic_two_surfaces(self):
        with pytest.raises(UnsupportedCharacteristic):
            compare_local(E_CM, A_STD, 2, 2)

    def test_counts_consistent_with_trace_recurrence(self):
        report = compare_local(E_CM, A_STD, 13, 5)
        traces = []
        t_prev, t = 2, report.a_p
        for _ in range(5):
            traces.append(t)
            t_prev, t = t, report.a_p * t - 13 * t_prev
        assert report.curve_counts == tuple(
            13**n + 1 - traces[n - 1] for n in range(1, 6)
        )

    def test_bad_branch_at_odd_prime(self):
        # tr([[3,2],[1,1]])^2 - 4 = 12, so 3 is a bad prime for this matrix
        a = validate_incidence(IntMatrix([[3, 2], [1, 1]]))
        assert trace_discriminant_mod(a.m, 3) == 0
        with pytest.raises(AlphaRequired):
            compare_local(E_CM, a, 3, 2)
        report = compare_local(E_CM, a, 3, 2, alpha=-1)
        assert report.operator_params.branch == "bad"
        assert report.operator_params.alpha == -1
        assert report.operator_counts == (2, 0)
        assert report.curve_counts == (4, 16)


class TestReportCost:
    """compare_local and operator_local_zeta_counts refuse, before any count,
    an order whose report's cost (zeta._report_cost) passes 2^38: the
    report grows as order^2, while the operator floor bounds only its
    largest integer, and not at all for the 1 x 1 matrix 1 (floor 0).
    Unbounded, order 30,000 on 2,1;1,1 at p = 7 took 0.9-1.7 s and 739 MB;
    14,057 there and 21,403 on 1 are the largest orders admitted."""

    FIB_SQUARED = validate_incidence(IntMatrix([[2, 1], [1, 1]]))
    ONE = validate_incidence(IntMatrix([[1]]))
    CALLS = {
        "compare": lambda a, order: compare_local(E_CM, a, 7, order),
        "counts": lambda a, order: operator_local_zeta_counts(a, 7, order),
    }

    @staticmethod
    def message(order, cost):
        return (f"at p = 7 and order {order}, the report's cost order^2 * (2 * "
                f"p.bit_length() + w) * (100 + min(w, 8192)) = {cost}, w = p * "
                f"floor(log2 ||A||), is past 2^38")

    @pytest.mark.parametrize(
        "a,order,cost",
        [(FIB_SQUARED, 30_000, 30_000**2 * 13 * 107),
         (ONE, 100_000, 100_000**2 * 6 * 100)],
        ids=["2,1;1,1", "1"],
    )
    def test_a_large_order_is_refused(self, wall_bound, a, order, cost):
        with wall_bound(1), pytest.raises(BudgetExceeded) as exc:
            compare_local(E_CM, a, 7, order)
        assert str(exc.value) == self.message(order, cost)

    @pytest.mark.parametrize("a,order", [(FIB_SQUARED, 14_058), (ONE, 21_404)],
                             ids=["2,1;1,1", "1"])
    def test_refused_before_any_count(self, monkeypatch, a, order):
        monkeypatch.setattr(zeta, "_trace_frobenius", _unreached)
        monkeypatch.setattr(zeta, "trace_power", _unreached)
        for call in self.CALLS.values():
            with pytest.raises(BudgetExceeded, match="is past 2\\^38"):
                call(a, order)

    def test_the_largest_admitted_order_runs(self, wall_bound):
        with wall_bound(3):
            report = compare_local(E_CM, self.FIB_SQUARED, 7, 14_057)
        assert len(report.curve_counts) == len(report.operator_counts) == 14_057


def test_compare_local_takes_no_matrix_power(monkeypatch):
    """The operator side reads tr(A^p) without mat_pow: with mat_pow made to
    raise under every name an afcurves module binds it to, compare_local
    still gives the reports held to the mat_pow oracle."""
    cases = [(A_STD, 10007), (A_3X3, 101)]
    expected = []
    for a, p in cases:
        report = compare_local(E_CM, a, p, 3)
        lp = IntMatrix([[mat_pow(a.m, p).trace(), p], [-1, 0]])
        assert report.operator_params.trace_power == lp.rows[0][0]
        assert report.operator_counts == tuple(
            abs(determinant(IntMatrix.identity(2) - mat_pow(lp, n))) for n in (1, 2, 3)
        )
        expected.append(report)

    def refuse(*args, **kwargs):
        raise AssertionError("mat_pow was called")

    original = exact_linalg.mat_pow
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "afcurves" or name.startswith("afcurves.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)
                    bound += 1
    assert bound >= 1  # exact_linalg's own name; the package does not export it
    assert [compare_local(E_CM, a, p, 3) for a, p in cases] == expected


def _report_ints(value):
    """Every integer in a report: its Record fields and tuples, walked."""
    if isinstance(value, int):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _report_ints(item)
    elif isinstance(value, exact_linalg.Record):
        for field in value._fields:
            yield from _report_ints(getattr(value, field))


def _elementary(n, i, j):
    return IntMatrix([[int(r == c or (r, c) == (i, j)) for c in range(n)] for r in range(n)])


@st.composite
def small_incidence(draw):
    """A product of elementary I + E_ij, n <= 3, that is primitive."""
    n = draw(st.integers(1, 3))
    m = IntMatrix.identity(n)
    if n > 1:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for i, j in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8)):
            m = m @ _elementary(n, i, j)
    try:
        return validate_incidence(m)
    except ValueError:
        assume(False)


@given(
    small_incidence(),
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.sampled_from([q for q in range(3, 400) if is_prime(q)]),
    st.integers(0, 4),
    st.sampled_from((-1, 0, 1)),
)
@settings(deadline=None)
def test_local_bits_bound_holds_every_report_integer(a, ca, cb, p, order, alpha):
    assume(4 * ca**3 + 27 * cb**2 != 0)
    e = CurveQ(ca, cb)
    assume(e.disc % p != 0)
    report = compare_local(e, a, p, order, alpha=alpha)
    bound = zeta.local_bits_bound(a, p, order)
    assert max(x.bit_length() for x in _report_ints(report)) <= bound


class TestShanksMestreBound:
    """Shanks-Mestre grows as p^(1/4); every curve-side entry refuses past
    p = 2^58 (_SHANKS_MESTRE_MAX) before it counts."""

    LARGEST = 288230376151711717  # the largest prime below 2^58
    SMALLEST_REFUSED = 288230376151711813  # the smallest prime past it
    E = CurveQ(-1, 1)

    def test_the_bound_sits_between_the_two_primes(self):
        assert zeta._SHANKS_MESTRE_MAX == 2**58
        assert is_prime(self.LARGEST) and is_prime(self.SMALLEST_REFUSED)
        assert not any(map(is_prime, range(self.LARGEST + 1, 2**58 + 1)))
        assert not any(map(is_prime, range(2**58, self.SMALLEST_REFUSED)))

    def test_the_largest_admitted_prime_is_counted(self, wall_bound):
        p = self.LARGEST
        with wall_bound(1):
            a_p = trace_frobenius(self.E, p)
        assert a_p * a_p <= 4 * p

    @pytest.mark.parametrize(
        "call",
        [
            lambda e, p: trace_frobenius(e, p),
            lambda e, p: count_points(e, p, 1),
            lambda e, p: curve_local_zeta(e, p, 1),
            lambda e, p: compare_local(e, A_STD, p, 1),
        ],
        ids=["trace_frobenius", "count_points", "curve_local_zeta", "compare_local"],
    )
    def test_past_the_bound_every_entry_refuses_before_the_count(self, wall_bound, call):
        p = self.SMALLEST_REFUSED
        with wall_bound(0.05), pytest.raises(BudgetExceeded) as exc:
            call(self.E, p)
        assert str(exc.value) == f"p = {p} is past 2^58, where #E(F_p) is no longer counted"
