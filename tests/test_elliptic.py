from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afcurves import elliptic
from afcurves.af_invariant import AbelianGroup
from afcurves.elliptic import (
    CurveQ,
    CurveSpecError,
    INFINITY,
    MAZUR_ADMISSIBLE,
    Point,
    PointNotOnCurve,
    SingularCurve,
    SingularLambda,
    add_points,
    j_from_lambda,
    lambda_orbit,
    legendre_model,
    mul_point,
    negate,
    parse_curve_spec,
    rational_lambdas_from_j,
    torsion_subgroup,
)
from afcurves.exact_linalg import BudgetExceeded
from afcurves.zeta import count_points

E_CM = CurveQ(-1, 0)  # y^2 = x^3 - x


def rationals(max_num=12, max_den=6):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def legendre_params():
    return rationals().filter(lambda x: x not in (0, 1))


class TestJFromLambda:
    @pytest.mark.parametrize(
        "lam,expected",
        [
            (Fraction(-1), 1728),
            (Fraction(2), 1728),
            (Fraction(1, 2), 1728),
            (Fraction(3), Fraction(21952, 9)),
        ],
    )
    def test_known_values(self, lam, expected):
        assert j_from_lambda(lam) == expected

    @pytest.mark.parametrize("lam", [0, 1])
    def test_singular(self, lam):
        with pytest.raises(SingularLambda):
            j_from_lambda(lam)


class TestLambdaOrbit:
    def test_three_element_orbit(self):
        assert lambda_orbit(Fraction(-1)) == {
            Fraction(-1),
            Fraction(2),
            Fraction(1, 2),
        }

    def test_orbit_membership_is_symmetric(self):
        assert lambda_orbit(Fraction(1, 2)) == lambda_orbit(Fraction(-1))

    def test_six_element_orbit(self):
        assert lambda_orbit(Fraction(3)) == {
            Fraction(3),
            Fraction(1, 3),
            Fraction(-2),
            Fraction(-1, 2),
            Fraction(3, 2),
            Fraction(2, 3),
        }

    @given(legendre_params())
    def test_j_constant_on_orbit(self, lam):
        j = j_from_lambda(lam)
        orbit = lambda_orbit(lam)
        assert all(j_from_lambda(mu) == j for mu in orbit)
        # rational orbits have 6 elements except over j = 1728 (3 elements);
        # the 2-element case needs non-real parameters
        assert len(orbit) == (3 if j == 1728 else 6)


class TestRationalLambdasFromJ:
    def test_j_1728(self):
        assert rational_lambdas_from_j(1728) == [
            Fraction(-1),
            Fraction(1, 2),
            Fraction(2),
        ]

    def test_roundtrip_example(self):
        assert Fraction(3) in rational_lambdas_from_j(Fraction(21952, 9))

    def test_j_zero_has_no_rational_parameter(self):
        assert rational_lambdas_from_j(0) == []

    @given(legendre_params())
    @settings(max_examples=40, deadline=None)
    def test_recovers_whole_orbit(self, lam):
        j = j_from_lambda(lam)
        assert set(rational_lambdas_from_j(j)) == lambda_orbit(lam)


class TestLegendreToWeierstrass:
    def test_cm_curve(self):
        assert legendre_model(Fraction(-1)).curve == CurveQ(-1, 0)

    def test_lambda_two_preserves_j(self):
        assert legendre_model(Fraction(2)).curve.j_invariant() == 1728

    def test_lambda_half_integral_model(self):
        e = legendre_model(Fraction(1, 2)).curve
        assert e == CurveQ(-4, 0)
        assert e.disc != 0
        assert e.j_invariant() == 1728

    def test_the_smallest_denominator_past_the_step_cap_is_refused(self, wall_bound):
        # 3d > 2^44 = _STEP_CAP^2 first at d = 5,864,062,014,806; the refusal
        # comes before _divisors, whose search would take ~2^22 steps
        d = 5_864_062_014_806
        assert 3 * (d - 1) <= elliptic._STEP_CAP**2 == 2**44 < 3 * d
        with wall_bound(0.05), pytest.raises(
            BudgetExceeded,
            match=r"^denominator of lambda = 1/5864062014806 over 4194304\^2 / 3$",
        ):
            legendre_model(Fraction(1, d))

    @given(legendre_params())
    @settings(max_examples=60)
    def test_model_is_integral_with_matching_j(self, lam):
        e = legendre_model(lam).curve
        assert isinstance(e.a, int) and isinstance(e.b, int)
        assert e.j_invariant() == j_from_lambda(lam)

    @given(legendre_params())
    @settings(max_examples=40)
    def test_point_maps_both_ways(self, lam):
        model = legendre_model(lam)
        u, shift = model.u, model.shift
        # the Legendre 2-torsion abscissae 0, 1, lambda map onto the curve
        # by x_w = u^2 (x - shift), y_w = u^3 y
        for x_leg in (Fraction(0), Fraction(1), lam):
            assert model.curve.contains(Point(u**2 * (x_leg - shift), 0))
        # a non-torsion point: the Weierstrass cubic is u^6 times the Legendre one
        x_leg = lam + 2
        y_squared = x_leg * (x_leg - 1) * (x_leg - lam)
        assert model.curve.rhs(u**2 * (x_leg - shift)) == u**6 * y_squared


class TestGroupLaw:
    def test_two_torsion_chord(self):
        assert add_points(E_CM, Point(0, 0), Point(1, 0)) == Point(-1, 0)

    def test_identity(self):
        p = Point(0, 0)
        assert add_points(E_CM, p, INFINITY) == p
        assert add_points(E_CM, INFINITY, p) == p

    def test_vertical_tangent(self):
        assert add_points(E_CM, Point(0, 0), Point(0, 0)) == INFINITY

    def test_point_not_on_curve(self):
        with pytest.raises(PointNotOnCurve):
            add_points(E_CM, Point(2, 2), Point(0, 0))

    def test_doubling(self):
        # on y^2 = x^3 + 4x the point (2, 4) doubles to (0, 0)
        e = CurveQ(4, 0)
        assert add_points(e, Point(2, 4), Point(2, 4)) == Point(0, 0)

    @given(
        st.integers(-6, 6),
        st.integers(-8, 8),
        st.integers(-6, 6),
        st.permutations([1, 2, 3]),
    )
    @settings(max_examples=120)
    def test_axioms_on_sampled_points(self, x1, y1, a, ks):
        # build an integral curve through (x1, y1) and sample its multiples
        b = y1 * y1 - x1**3 - a * x1
        try:
            e = CurveQ(a, b)
        except SingularCurve:
            assume(False)
        base = Point(x1, y1)
        p, q, r = (mul_point(e, k, base) for k in ks)
        # commutativity, associativity, inverses: all exact
        assert add_points(e, p, q) == add_points(e, q, p)
        left = add_points(e, add_points(e, p, q), r)
        right = add_points(e, p, add_points(e, q, r))
        assert left == right
        assert add_points(e, p, negate(p)) == INFINITY


    @pytest.mark.parametrize("k", [-1, -2, -7])
    def test_negative_multiple_is_the_negated_multiple(self, k):
        e, p = CurveQ(0, -2), Point(3, 5)  # y^2 = x^3 - 2; (3, 5) has infinite order
        assert mul_point(e, k, p) == negate(mul_point(e, -k, p)) != INFINITY
        assert add_points(e, mul_point(e, k, p), mul_point(e, -k, p)) == INFINITY


class TestTorsionSubgroup:
    @pytest.mark.parametrize(
        "curve,expected",
        [
            (CurveQ(-1, 0), AbelianGroup((2, 2))),
            (CurveQ(-4, 0), AbelianGroup((2, 2))),
            (CurveQ(4, 0), AbelianGroup((4,))),
        ],
    )
    def test_battery(self, curve, expected):
        group, _ = torsion_subgroup(curve)
        assert group == expected

    def test_cm_curve_points(self):
        group, points = torsion_subgroup(E_CM)
        assert group == AbelianGroup((2, 2))
        assert points[0] is INFINITY
        assert {(p.x, p.y) for p in points[1:]} == {(0, 0), (1, 0), (-1, 0)}

    def test_order_four_points(self):
        _, points = torsion_subgroup(CurveQ(4, 0))
        assert Point(2, 4) in points and Point(2, -4) in points

    @pytest.mark.parametrize(
        "curve",
        [
            CurveQ(-1, 0),
            CurveQ(-4, 0),
            CurveQ(4, 0),
            CurveQ(0, 1),   # j = 0, torsion Z_6
            CurveQ(0, -1),
            CurveQ(1, 0),
            CurveQ(-2, 2),
            CurveQ(3, 5),
        ],
    )
    def test_structure_invariants(self, curve):
        group, points = torsion_subgroup(curve)
        assert group in MAZUR_ADMISSIBLE
        # closed under addition, and orders divide the exponent
        for p in points:
            for q in points:
                assert add_points(curve, p, q) in points
            assert mul_point(curve, group.exponent(), p) == INFINITY

    def test_non_integral_multiple_ends_the_order_search(self, monkeypatch):
        # y^2 = x^3 - x + 1 has trivial torsion and three strong Nagell-Lutz
        # candidates (x, 1), x = -1, 0, 1, each of infinite order; a slope
        # that is no integer stops each within a few steps (8 in all), where
        # running on to 12P would take 33.  Each step of the walk takes one
        # slope, a divmod, and calls no add_points.
        steps = []

        def slope(num, den):
            steps.append((num, den))
            return divmod(num, den)

        def add(e, p, q):
            raise AssertionError("the order walk calls add_points")

        monkeypatch.setattr(elliptic, "divmod", slope, raising=False)
        monkeypatch.setattr(elliptic, "add_points", add)
        e = CurveQ(-1, 1)
        assert [elliptic._order_up_to(e, Point(x, 1)) for x in (-1, 0, 1)] == [None] * 3
        assert len(steps) == 8

    @pytest.mark.parametrize(
        "point,message",
        [
            (Point(Fraction(129, 100), Fraction(383, 1000)), "not an integral point"),
            (INFINITY, "not an integral point"),
            (Point(3, -4), "not on y"),
        ],
        ids=["not integral", "infinity", "off the curve"],
    )
    def test_the_order_walk_refuses_a_point_it_cannot_walk(self, point, message):
        # (129/100, 383/1000) = -2 (3, 5) lies on y^2 = x^3 - 2 but is not integral
        with pytest.raises(RuntimeError, match=message):
            elliptic._order_up_to(CurveQ(0, -2), point)

    @pytest.mark.parametrize(
        "ab,point,order",
        [
            ((-1, 0), Point(1, 0), 2),
            ((0, 1), Point(0, 1), 3),
            ((-2, 1), Point(0, 1), 4),
            ((0, 1), Point(2, -3), 6),
            ((-43, 166), Point(3, 8), 7),
            ((-219, 1654), Point(3, 32), 3),
            ((-219, 1654), Point(-13, 48), 9),
            ((0, -2), Point(3, 5), None),
        ],
    )
    def test_the_order_walk_finds_each_order(self, ab, point, order):
        assert elliptic._order_up_to(CurveQ(*ab), point) == order

    def test_a_gcd_of_one_tries_no_candidate(self, monkeypatch):
        # #E(F_3) = 7 and #E(F_5) = 8 for y^2 = x^3 - x + 1, so g = 1 at the
        # second good prime proves the torsion trivial with no point tried
        candidates = []

        def order_up_to(e, p):
            candidates.append(p)
            return order(e, p)

        order = elliptic._order_up_to
        monkeypatch.setattr(elliptic, "_order_up_to", order_up_to)
        assert elliptic._reduction_gcd(CurveQ(-1, 1)) == (1, [3, 5])
        assert torsion_subgroup(CurveQ(-1, 1)) == (AbelianGroup(()), [INFINITY])
        assert candidates == []

    @pytest.mark.parametrize("curve", [CurveQ(-1, 0), CurveQ(-4, 0), CurveQ(4, 0)])
    def test_torsion_injects_into_good_reductions(self, curve):
        group, _ = torsion_subgroup(curve)
        order = group.order()
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if curve.disc % p == 0:
                continue
            assert count_points(curve, p, 1) % order == 0


class TestFloatsRejected:
    """Every place a caller's value becomes a Fraction refuses a float."""

    @pytest.mark.parametrize(
        "call",
        [
            j_from_lambda,
            rational_lambdas_from_j,
            lambda x: Point(x, 1),
            lambda x: CurveQ(-1, 0).rhs(x),
        ],
        ids=["check_lambda", "lambdas_from_j", "point", "rhs"],
    )
    def test_boundary(self, call):
        with pytest.raises(TypeError):
            call(0.5)
        for exact in (3, Fraction(1, 2), "1/2"):
            call(exact)


class TestCurveSpecParsing:
    def test_lambda_spec(self):
        curve, model = parse_curve_spec("lambda=-1")
        assert curve == CurveQ(-1, 0)
        assert model.lam == -1

    def test_ab_spec(self):
        curve, model = parse_curve_spec("a=-4,b=0")
        assert curve == CurveQ(-4, 0)
        assert model is None

    def test_singular_lambda(self):
        with pytest.raises(SingularLambda):
            parse_curve_spec("lambda=1")

    def test_garbage(self):
        with pytest.raises(CurveSpecError):
            parse_curve_spec("y^2 = x^3 - x")


def test_curve_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        CurveQ(-1.5, 0)
    with pytest.raises(TypeError):
        CurveQ(-1, Fraction(1, 2))


def test_no_rational_lambda_gives_j_zero():
    # the j = 0 fiber parameters are the primitive sixth roots of unity
    for num in range(-40, 41):
        for den in range(1, 12):
            lam = Fraction(num, den)
            if lam in (0, 1):
                continue
            assert j_from_lambda(lam) != 0


class TestFormerOffenders:
    """Inputs the trial-division searches took tens of seconds on."""

    @pytest.mark.parametrize(
        "a,expected", [(-(10**4), AbelianGroup((2, 2))), (-(10**5), AbelianGroup((2,)))]
    )
    def test_torsion_with_large_a(self, wall_bound, a, expected):
        with wall_bound(5):
            group, _ = torsion_subgroup(CurveQ(a, 0))
        assert group == expected

    def test_no_lambda_over_tiny_j(self, wall_bound):
        with wall_bound(5):
            assert rational_lambdas_from_j(Fraction(1, 10**10)) == []

    def test_large_lambda_orbit(self, wall_bound):
        lam = Fraction(10**10 + 1, 3)
        with wall_bound(5):
            assert set(rational_lambdas_from_j(j_from_lambda(lam))) == lambda_orbit(lam)


class TestTorsionByReduction:
    """The gcd of #E(F_l) and the division-polynomial roots: the targets,
    and the cap on each side."""

    def test_a_minus_ten_to_the_six_within_10_ms(self, wall_bound):
        with wall_bound(0.01):
            group, _ = torsion_subgroup(CurveQ(-(10**6), 0))
        assert group == AbelianGroup((2, 2))

    def test_a_discriminant_near_1e40_within_50_ms(self, wall_bound):
        u = 730  # y^2 = x^3 - 43x + 166 (torsion Z_7) scaled by u
        curve = CurveQ(-43 * u**4, 166 * u**6)
        assert 10**39 < abs(4 * curve.a**3 + 27 * curve.b**2) < 10**41
        with wall_bound(0.05):
            group, _ = torsion_subgroup(curve)
        assert group == AbelianGroup((7,))

    @staticmethod
    def nine_torsion(k):
        """y^2 = x^3 - 219x + 1654, torsion Z_9, scaled by u = 2^k + 1: g_9,
        the costliest division polynomial, decides it."""
        u = 2**k + 1
        return CurveQ(-219 * u**4, 1654 * u**6)

    def test_the_largest_admitted_size_runs(self, wall_bound):
        curve = self.nine_torsion(1998)
        assert 3 * curve.a.bit_length() == elliptic._TORSION_BITS_CAP == 24_000
        with wall_bound(1):
            group, _ = torsion_subgroup(curve)
        assert group == AbelianGroup((9,))

    def test_past_the_cap_refuses_before_the_division_polynomials(
        self, wall_bound, monkeypatch
    ):
        monkeypatch.setattr(elliptic, "_division_polynomial", None)  # a call fails
        with wall_bound(0.05), pytest.raises(BudgetExceeded) as exc:
            torsion_subgroup(self.nine_torsion(1999))
        assert str(exc.value).endswith(
            ": max(3 * a.bit_length(), 2 * b.bit_length()) = 24012 is past 24000"
        )

    def test_a_gcd_of_one_decides_past_the_cap(self, wall_bound):
        # #E(F_3) and #E(F_5) are coprime: the torsion is trivial whatever the size
        curve = CurveQ(10**9000 + 1, 1)
        assert elliptic._reduction_gcd(curve) == (1, [3, 5])
        with wall_bound(0.05):
            assert torsion_subgroup(curve) == (AbelianGroup(()), [INFINITY])

    @pytest.mark.parametrize(
        "ab,m",
        [((-43, 166), 7), ((-219, 1654), 9), ((45333, -1978074), 8), ((-2, 1), 4)],
    )
    def test_division_polynomials_vanish_at_the_torsion_x(self, ab, m):
        # each point of order k | m, not 2-torsion, has its x a root of g_m;
        # the modulus is a large odd prime, so this is nearly the integer identity
        n = 2**127 - 1
        curve = CurveQ(*ab)
        for k in range(m + 1):
            g = elliptic._division_polynomial(curve.a, curve.b, k, n)
            assert len(g) - 1 == max(0, (k * k - (4 if k % 2 == 0 else 1)) // 2)
            assert g[-1] == k % n
        g = elliptic._division_polynomial(curve.a, curve.b, m, n)
        for pt in torsion_subgroup(curve)[1][1:]:
            if pt.y != 0:
                assert elliptic._horner(g, int(pt.x), n) == 0, pt

    @pytest.mark.parametrize(
        "ab,m",
        [((45333, -1978074), 8), ((-219, 1654), 9), ((-157707, 78888006), 12)],
    )
    def test_division_polynomials_square_each_g_k_once(self, monkeypatch, ab, m):
        # g_8, g_9 and g_12 reach some g_k^2 from two recurrence steps; each
        # g_k is one list for the call, so a square repeats iff one list is
        # squared twice
        n = 2**127 - 1
        pmul, squared = elliptic._pmul, []

        def recording(u, v, modulus):
            if u is v:
                squared.append(u)
            return pmul(u, v, modulus)

        monkeypatch.setattr(elliptic, "_pmul", recording)
        g = elliptic._division_polynomial(*ab, m, n)
        assert len({id(u) for u in squared}) == len(squared) > 1
        for pt in torsion_subgroup(CurveQ(*ab))[1][1:]:
            if pt.y != 0:
                assert elliptic._horner(g, int(pt.x), n) == 0, pt
