from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

