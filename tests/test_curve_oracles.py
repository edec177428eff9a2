"""The curve layer's exact routes against the searches they replaced.

`scan_torsion_points` is the Lutz-Nagell d-scan: every d with d^2 | disc,
then the integer roots of x^3 + ax + b - d^2 among the divisors of its
constant term.  `window_torsion_points` is the strong Nagell-Lutz scan over
every integer x of `elliptic._nagell_lutz_window`, O(|D|^(1/3)) values.
`sextic_lambdas` is the rational-root search on the degree-6 lambda
polynomial, p over its constant term and q over its leading one.  The
d-scan and the sextic run O(sqrt) trial division through
`elliptic._divisors`, so they stay on small inputs here, and the window on
windows of at most a few hundred thousand x.  Both scans take a point's
order from `oracles.order_up_to`, the walk in Fractions over the public
`add_points`, and the package's integer walk `elliptic._order_up_to` is held
to it on every integral point those windows meet.

The CM curves, the paper's own case, are also held to Olson's theorem
(Manuscripta Math. 14, 1974): the torsion of an elliptic curve over Q with
complex multiplication is one of 0, Z_2, Z_3, Z_4, Z_6 and Z_2 + Z_2.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afcurves.af_invariant import AbelianGroup
from afcurves.elliptic import (
    INFINITY,
    MAZUR_ADMISSIBLE,
    CurveQ,
    Point,
    SingularCurve,
    _divisors,
    _nagell_lutz_window,
    _order_up_to,
    j_from_lambda,
    lambda_orbit,
    legendre_model,
    mul_point,
    negate,
    rational_lambdas_from_j,
    torsion_subgroup,
)
from oracles import order_up_to


def _roots_by_divisors(a: int, c: int) -> list:
    """Integer roots of x^3 + a x + c."""
    if c == 0:
        roots = {0}
        if a < 0:
            r = isqrt(-a)
            if r * r == -a:
                roots.update((r, -r))
        return sorted(roots)
    return sorted(
        x for d in _divisors(c) for x in (d, -d) if x**3 + a * x + c == 0
    )


def scan_torsion_points(e: CurveQ) -> list:
    points = {INFINITY}
    for x in _roots_by_divisors(e.a, e.b):
        points.add(Point(x, 0))
    for d in range(1, isqrt(abs(e.disc)) + 1):
        if abs(e.disc) % (d * d) != 0:
            continue
        for x in _roots_by_divisors(e.a, e.b - d * d):
            candidate = Point(x, d)
            if order_up_to(e, candidate) is not None:
                points.add(candidate)
                points.add(negate(candidate))
    return sorted(points, key=lambda pt: (not pt.is_infinity, pt.x, pt.y))


def window_torsion_points(e: CurveQ) -> list:
    """Every x of the strong Nagell-Lutz window: (x, 0) when f(x) = 0, and
    (x, +-sqrt f(x)) when f(x) is a square dividing D = 4a^3 + 27b^2 and some
    multiple up to 12 of the point is infinity."""
    a, b = e.a, e.b
    d = 4 * a**3 + 27 * b * b
    r, top = _nagell_lutz_window(a, b)
    points = {INFINITY}
    for x in range(1 - r, top + 1):
        fx = (x * x + a) * x + b
        if fx == 0:
            points.add(Point(x, 0))
        elif fx > 0 and d % fx == 0 and isqrt(fx) ** 2 == fx:
            candidate = Point(x, isqrt(fx))
            if order_up_to(e, candidate) is not None:
                points.update((candidate, negate(candidate)))
    return sorted(points, key=lambda pt: (not pt.is_infinity, pt.x, pt.y))


def window_points(e: CurveQ):
    """Every integral point (x, +-sqrt f(x)) of e with x in the strong
    Nagell-Lutz window, torsion or not."""
    r, top = _nagell_lutz_window(e.a, e.b)
    for x in range(1 - r, top + 1):
        fx = (x * x + e.a) * x + e.b
        if fx >= 0 and isqrt(fx) ** 2 == fx:
            yield from {Point(x, isqrt(fx)), Point(x, -isqrt(fx))}


def sextic_lambdas(j) -> list:
    j = Fraction(j)
    jn, jd = j.numerator, j.denominator
    # 256 (l^2 - l + 1)^3 - j l^2 (l - 1)^2 times jd, constant term first
    coeffs = [
        256 * jd,
        -768 * jd,
        1536 * jd - jn,
        -1792 * jd + 2 * jn,
        1536 * jd - jn,
        -768 * jd,
        256 * jd,
    ]
    roots = set()
    for p in _divisors(coeffs[0]):
        for q in _divisors(coeffs[-1]):
            if gcd(p, q) != 1:
                continue
            for pn in (p, -p):
                value = sum(c * pn**k * q ** (6 - k) for k, c in enumerate(coeffs))
                if value == 0:
                    roots.add(Fraction(pn, q))
    return sorted(roots)


def _small_sweep():
    for a in range(-50, 51):
        for b in range(-50, 51):
            if 4 * a**3 + 27 * b * b != 0:
                yield CurveQ(a, b)


def test_torsion_matches_scan_on_small_sweep():
    for curve in _small_sweep():
        assert torsion_subgroup(curve)[1] == scan_torsion_points(curve), curve


BOX = 60  # |a|, |b| <= BOX; never shrink the box to pass


def test_every_curve_of_a_small_box(wall_bound):
    """All nonsingular y^2 = x^3 + ax + b with |a|, |b| <= BOX.  The integer
    roots of x^3 + ax + b divide b (or are 0 and +-sqrt(-a) when b = 0), so
    scanning |x| <= BOX finds them all."""
    curves = 0
    with wall_bound(60):
        for a in range(-BOX, BOX + 1):
            for b in range(-BOX, BOX + 1):
                if 4 * a**3 + 27 * b * b == 0:
                    continue
                e = CurveQ(a, b)
                group, points = torsion_subgroup(e)
                assert group in MAZUR_ADMISSIBLE, (a, b)
                assert len(points) == len(set(points)) == group.order(), (a, b)
                assert points[0] == INFINITY, (a, b)
                for pt in points[1:]:
                    assert pt.x.denominator == pt.y.denominator == 1, (a, b, pt)
                    assert e.contains(pt), (a, b, pt)
                    assert mul_point(e, group.exponent(), pt) == INFINITY, (a, b, pt)
                roots = {x for x in range(-BOX, BOX + 1) if x**3 + a * x + b == 0}
                assert {pt.x for pt in points[1:] if pt.y == 0} == roots, (a, b)
                two_even = len(group.torsion) == 2 and group.torsion[0] % 2 == 0
                assert two_even == (len(roots) == 3), (a, b)
                curves += 1
    assert curves == 14634


MAZUR_CURVES = {
    (-43, 166): (7,),
    (-219, 1654): (9,),
    (-2, 1): (4,),
    (-1, 0): (2, 2),
    (0, 1): (6,),
}


@pytest.mark.parametrize("ab,torsion", sorted(MAZUR_CURVES.items()))
def test_torsion_matches_scan_on_mazur_curves(ab, torsion):
    curve = CurveQ(*ab)
    group, points = torsion_subgroup(curve)
    assert group == AbelianGroup(torsion)
    assert points == scan_torsion_points(curve)


# short models -27 c4, -54 c6 of Cremona's curves, whose discriminants are
# past the scan's reach; the groups are the tabulated ones
CREMONA_CURVES = [
    ("11a1", (-13392, -1080432), (5,)),
    ("14a1", (5805, -285714), (6,)),
    ("15a4", (45333, -1978074), (8,)),
    ("66c1", (-58347, 3954150), (10,)),
    ("90c3", (-157707, 78888006), (12,)),
    ("15a1", (-12987, -263466), (2, 4)),
    ("30a2", (-24003, 1296702), (2, 6)),
]


@pytest.mark.parametrize("label,ab,torsion", CREMONA_CURVES)
def test_torsion_of_tabulated_curves(label, ab, torsion):
    group, _ = torsion_subgroup(CurveQ(*ab))
    assert group == AbelianGroup(torsion), label


def _small_lambdas(max_num, max_den):
    return sorted(
        {Fraction(n, d) for n in range(-max_num, max_num + 1) for d in range(1, max_den + 1)}
        - {0, 1}
    )


def test_torsion_matches_scan_on_legendre_models():
    compared = 0
    for lam in _small_lambdas(9, 4):
        curve = legendre_model(lam).curve
        if abs(curve.disc) > 10**10:
            continue
        assert torsion_subgroup(curve)[1] == scan_torsion_points(curve), lam
        compared += 1
    assert compared >= 30


def test_lambdas_match_sextic_on_small_orbits():
    js = {j_from_lambda(lam) for lam in _small_lambdas(8, 6)}
    for j in js:
        assert rational_lambdas_from_j(j) == sextic_lambdas(j), j


def test_lambdas_match_sextic_off_the_lambda_line():
    # mostly j with no rational parameter, where both must come back empty;
    # j = 256 (u + 1)^3 / u^2 puts a rational root u on the cubic even then
    js = [*range(-100, 101), *(Fraction(1, n) for n in range(2, 101))]
    us = (Fraction(p, q) for p in range(-12, 13) for q in range(1, 7) if p)
    js += [256 * (u + 1) ** 3 / u**2 for u in us]
    for j in js:
        assert rational_lambdas_from_j(j) == sextic_lambdas(j), j


@given(
    st.integers(-(10**12), 10**12),
    st.integers(1, 10**12),
)
@settings(max_examples=60, deadline=None)
def test_lambdas_recover_whole_orbit_at_height_1e12(num, den):
    lam = Fraction(num, den)
    assume(lam not in (0, 1))
    assert set(rational_lambdas_from_j(j_from_lambda(lam))) == lambda_orbit(lam)


def test_torsion_matches_the_window_on_the_box(wall_bound):
    compared = 0
    with wall_bound(60):
        for a in range(-BOX, BOX + 1):
            for b in range(-BOX, BOX + 1):
                if 4 * a**3 + 27 * b * b != 0:
                    e = CurveQ(a, b)
                    assert torsion_subgroup(e)[1] == window_torsion_points(e), (a, b)
                    compared += 1
    assert compared == 14634


@pytest.mark.parametrize(
    "ab",
    [
        (-(10**3), 0),
        (-(10**4), 0),
        (-(10**5), 0),
        *MAZUR_CURVES,
        (-13392, -1080432),  # 11a1, Z_5
        (45333, -1978074),  # 15a4, Z_8
        (-12987, -263466),  # 15a1, Z_2 + Z_4
    ],
)
def test_torsion_matches_the_window_past_the_box(ab):
    curve = CurveQ(*ab)
    assert torsion_subgroup(curve)[1] == window_torsion_points(curve)


def kubert_curve(n: int, t: Fraction):
    """(curve, point): Kubert's Tate normal form y^2 + (1 - c)xy - by =
    x^3 - bx^2 at the parameter t, on which (0, 0) has order n (Kubert, Proc.
    London Math. Soc. 33, 1976, Table 3), as y^2 = x^3 - 27 c4 x - 54 c6
    scaled by u^4 and u^6 to integers, and the image of (0, 0) there."""
    if n == 4:
        b, c = t, 0
    elif n == 5:
        b, c = t, t
    elif n == 6:
        b, c = t + t * t, t
    elif n == 7:
        b, c = t**3 - t**2, t**2 - t
    elif n == 8:
        b, c = (2 * t - 1) * (t - 1), (2 * t - 1) * (t - 1) / t
    elif n == 9:
        c = t * t * (t - 1)
        b = c * (t * t - t + 1)
    elif n == 10:
        d = t * t - 3 * t + 1
        b, c = t**3 * (t - 1) * (2 * t - 1) / d**2, -t * (t - 1) * (2 * t - 1) / d
    else:
        b = t * (2 * t - 1) * (2 * t * t - 2 * t + 1) * (3 * t * t - 3 * t + 1) / (t - 1) ** 4
        c = -t * (2 * t - 1) * (3 * t * t - 3 * t + 1) / (t - 1) ** 3
    a1, a3 = 1 - Fraction(c), -Fraction(b)
    b2, b4 = a1 * a1 - 4 * Fraction(b), a1 * a3
    c4, c6 = b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * a3 * a3
    u = lcm(c4.denominator, c6.denominator, b2.denominator, a3.denominator)
    curve = CurveQ(int(-27 * c4 * u**4), int(-54 * c6 * u**6))
    return curve, Point(3 * b2 * u * u, 108 * a3 * u**3)


@given(
    st.sampled_from([4, 5, 6, 7, 8, 9, 10, 12]),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30)),
)
@settings(max_examples=80, deadline=None)
def test_kubert_curves_keep_their_point_of_order_n(n, t):
    try:
        curve, point = kubert_curve(n, t)
    except (ZeroDivisionError, SingularCurve):
        assume(False)
    group, points = torsion_subgroup(curve)
    assert point in points and group.order() % n == 0, (n, t)
    assert group in MAZUR_ADMISSIBLE
    for pt in points[1:]:
        assert _order_up_to(curve, pt) == order_up_to(curve, pt), (n, t, pt)
    assert _order_up_to(curve, point) == n, (n, t)
    r, top = _nagell_lutz_window(curve.a, curve.b)
    if top + r < 2 * 10**5:
        assert points == window_torsion_points(curve), (n, t)


def test_the_integer_walk_matches_the_fraction_walk_on_the_box(wall_bound):
    """elliptic._order_up_to against oracles.order_up_to on every integral
    point in the windows of the box's curves: 818 torsion points of orders
    2, 3, 4 and 6, and 22,516 points that leave Z^2 within 12 steps."""
    orders = Counter()
    with wall_bound(30):
        for a in range(-BOX, BOX + 1):
            for b in range(-BOX, BOX + 1):
                if 4 * a**3 + 27 * b * b != 0:
                    e = CurveQ(a, b)
                    for pt in window_points(e):
                        orders[k := _order_up_to(e, pt)] += 1
                        assert k == order_up_to(e, pt), (a, b, pt)
    assert orders == {2: 748, 3: 42, 4: 24, 6: 4, None: 22516}


@pytest.mark.parametrize(
    "ab", [*MAZUR_CURVES, *(ab for _, ab, _ in CREMONA_CURVES)], ids=str
)
def test_the_integer_walk_matches_the_fraction_walk_on_named_curves(ab):
    # every integral point of these windows is torsion, of each order the
    # group has but 1
    curve = CurveQ(*ab)
    orders = set()
    for pt in window_points(curve):
        orders.add(k := _order_up_to(curve, pt))
        assert k == order_up_to(curve, pt), pt
    exponent = torsion_subgroup(curve)[0].exponent()
    assert orders == {k for k in range(2, 13) if exponent % k == 0}


# Olson's list: the torsion groups of CM curves over Q
OLSON = frozenset(AbelianGroup(t) for t in [(), (2,), (3,), (4,), (6,), (2, 2)])
# (j, a, b): one model y^2 = x^3 + ax + b for each of the 13 rational CM
# j-invariants, keyed by the discriminant of the order (Silverman, Advanced
# Topics in the Arithmetic of Elliptic Curves, Appendix A, section 3)
CM_CURVES = {
    -3: (0, 0, 1),
    -4: (1728, 1, 0),
    -7: (-3375, -35, -98),
    -8: (8000, -4320, 96768),
    -11: (-32768, -9504, 365904),
    -12: (54000, -15, 22),
    -16: (287496, -11, -14),
    -19: (-884736, -608, 5776),
    -27: (-12288000, -480, 4048),
    -28: (16581375, -595, 5586),
    -43: (-884736000, -13760, 621264),
    -67: (-147197952000, -117920, 15585808),
    -163: (-262537412640768000, -34790720, 78984748304),
}
QUADRATIC_TWISTS = (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7)


@pytest.mark.parametrize("disc", sorted(CM_CURVES, reverse=True))
def test_cm_curves_and_their_quadratic_twists_have_olsons_torsion(disc):
    # t y^2 = x^3 + ax + b is y^2 = x^3 + a t^2 x + b t^3, with the same j
    j, a, b = CM_CURVES[disc]
    for t in QUADRATIC_TWISTS:
        curve = CurveQ(a * t * t, b * t**3)
        assert curve.j_invariant() == j
        group, points = torsion_subgroup(curve)
        assert group in OLSON, (disc, t)
        assert points == window_torsion_points(curve), (disc, t)


def _free_part(k: int, e: int) -> int:
    """k with every d^e dividing it divided out."""
    d = 2
    while d**e <= abs(k):
        while k % d**e == 0:
            k //= d**e
        d += 1
    return k


def _is_power(k: int, e: int) -> bool:
    root = round(abs(k) ** (1 / e))
    return any((s * r) ** e == k for r in (root - 1, root, root + 1) for s in (1, -1))


TWIST_RANGE = [k for k in range(-500, 501) if k]


def test_sextic_twists_at_j_zero():
    # y^2 = x^3 + k with k sixth-power-free has torsion Z_6 at k = 1, Z_3 at
    # k = -432 or a square, Z_2 at a cube and 0 otherwise (Silverman, AEC,
    # Exercise 10.19); k d^6 is the same curve
    for k in TWIST_RANGE:
        free = _free_part(k, 6)
        if free == 1:
            expected = (6,)
        elif free == -432 or _is_power(free, 2) and free > 0:
            expected = (3,)
        elif _is_power(free, 3):
            expected = (2,)
        else:
            expected = ()
        curve = CurveQ(0, k)
        group, points = torsion_subgroup(curve)
        assert group == AbelianGroup(expected) and group in OLSON, k
        assert points == window_torsion_points(curve), k


def test_quartic_twists_at_j_1728():
    # y^2 = x^3 + kx with k fourth-power-free has torsion Z_4 at k = 4,
    # Z_2 + Z_2 when -k is a square and Z_2 otherwise (Silverman, AEC,
    # Proposition X.6.1); k d^4 is the same curve
    for k in TWIST_RANGE:
        free = _free_part(k, 4)
        if free == 4:
            expected = (4,)
        elif free < 0 and _is_power(-free, 2):
            expected = (2, 2)
        else:
            expected = (2,)
        curve = CurveQ(k, 0)
        group, points = torsion_subgroup(curve)
        assert group == AbelianGroup(expected) and group in OLSON, k
        assert points == window_torsion_points(curve), k
