import pytest

from afcurves import zeta
from afcurves.af_invariant import validate_incidence
from afcurves.elliptic import CurveQ
from afcurves.exact_linalg import IntMatrix, determinant, mat_pow
from afcurves.zeta import (
    AlphaRequired,
    BadReduction,
    UnsupportedCharacteristic,
    compare_local,
    count_points,
    count_points_enumerated,
    curve_local_zeta,
    is_bad_prime,
    is_prime,
    lp_matrix,
    operator_local_zeta_counts,
    trace_frobenius,
)

E_CM = CurveQ(-1, 0)
A_STD = validate_incidence(IntMatrix([[5, 2], [2, 1]]))

GOOD_ODD_PRIMES_UNDER_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


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

    def test_enumeration_cap(self):
        # 3^13 = 1594323 exceeds ENUMERATION_MAX; the recurrence has no cap
        with pytest.raises(ValueError):
            count_points_enumerated(E_CM, 3, 13)
        assert count_points(E_CM, 3, 13) == 3**13 + 1


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

    def test_bad_prime_detection(self):
        # tr(A)^2 - 4 = 32, so 2 is the only bad prime
        assert is_bad_prime(A_STD, 2)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert not is_bad_prime(A_STD, p)

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
        assert is_bad_prime(a, 3)
        with pytest.raises(AlphaRequired):
            compare_local(E_CM, a, 3, 2)
        report = compare_local(E_CM, a, 3, 2, alpha=-1)
        assert report.operator_params.branch == "bad"
        assert report.operator_params.alpha == -1
        assert report.operator_counts == (2, 0)
        assert report.curve_counts == (4, 16)
