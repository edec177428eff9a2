"""The curve layer's exact routes against the searches they replaced.

`scan_torsion_points` is the Lutz-Nagell d-scan: every d with d^2 | disc,
then the integer roots of x^3 + ax + b - d^2 among the divisors of its
constant term.  `sextic_lambdas` is the rational-root search on the degree-6
lambda polynomial, p over its constant term and q over its leading one.
Both run O(sqrt) trial division through `elliptic._divisors`, so they stay
on small inputs here.
"""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afcurves.af_invariant import AbelianGroup
from afcurves.elliptic import (
    INFINITY,
    MAZUR_ADMISSIBLE,
    CurveQ,
    Point,
    _divisors,
    _order_up_to,
    j_from_lambda,
    lambda_orbit,
    legendre_model,
    mul_point,
    negate,
    rational_lambdas_from_j,
    torsion_subgroup,
)


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
            if _order_up_to(e, candidate) is not None:
                points.add(candidate)
                points.add(negate(candidate))
    return sorted(points, key=lambda pt: (not pt.is_infinity, pt.x, pt.y))


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
@pytest.mark.parametrize(
    "label,ab,torsion",
    [
        ("11a1", (-13392, -1080432), (5,)),
        ("14a1", (5805, -285714), (6,)),
        ("15a4", (45333, -1978074), (8,)),
        ("66c1", (-58347, 3954150), (10,)),
        ("90c3", (-157707, 78888006), (12,)),
        ("15a1", (-12987, -263466), (2, 4)),
        ("30a2", (-24003, 1296702), (2, 6)),
    ],
)
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
