"""Legendre-form elliptic curve algebra over the rationals.

Covers the j-invariant of y^2 = x(x-1)(x-lambda), the six-element
fractional-linear lambda orbit, recovery of rational lambda values from a
given j, conversion to an integral short Weierstrass model y^2 = x^3+ax+b,
the exact chord-and-tangent group law, and rational torsion subgroups by
Lutz-Nagell candidate enumeration.  All arithmetic is exact (Fraction).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

from .af_invariant import AbelianGroup


class SingularLambda(ValueError):
    """lambda in {0, 1}: the Legendre curve degenerates."""


class SingularCurve(ValueError):
    """Zero discriminant: y^2 = x^3 + ax + b is not smooth."""


class PointNotOnCurve(ValueError):
    pass


class CurveSpecError(ValueError):
    pass


def _check_lambda(lam) -> Fraction:
    lam = Fraction(lam)
    if lam == 0 or lam == 1:
        raise SingularLambda(f"lambda must avoid 0 and 1, got {lam}")
    return lam


def j_from_lambda(lam) -> Fraction:
    """j = 2^8 (lam^2 - lam + 1)^3 / (lam^2 (lam - 1)^2), exact."""
    lam = _check_lambda(lam)
    return 256 * (lam * lam - lam + 1) ** 3 / (lam * lam * (lam - 1) ** 2)


def lambda_orbit(lam) -> set:
    """The fractional-linear orbit of lam: all parameters with the same j.

    At most six values; collapses to three on the j = 1728 orbit (two would
    need the non-real j = 0 parameters, so rational orbits have 3 or 6).
    """
    lam = _check_lambda(lam)
    one = Fraction(1)
    return {
        lam,
        one / lam,
        one - lam,
        one / (one - lam),
        lam / (lam - one),
        (lam - one) / lam,
    }


def _divisors(m: int):
    m = abs(m)
    small, large = [], []
    k = 1
    while k * k <= m:
        if m % k == 0:
            small.append(k)
            if k != m // k:
                large.append(m // k)
        k += 1
    return small + large[::-1]


def rational_lambdas_from_j(j) -> list:
    """All rational lambda with j_from_lambda(lambda) = j, sorted.

    Clears denominators in 2^8 (l^2-l+1)^3 - j l^2 (l-1)^2 and runs an exact
    rational-root search (p over the constant term, q over the leading one).
    Empty when no rational parameter exists (e.g. j = 0).
    """
    j = Fraction(j)
    jn, jd = j.numerator, j.denominator
    # coefficients of the degree-6 polynomial, constant first, times jd
    coeffs = [
        256 * jd,
        -768 * jd,
        1536 * jd - jn,
        -1792 * jd + 2 * jn,
        1536 * jd - jn,
        -768 * jd,
        256 * jd,
    ]
    content = 0
    for c in coeffs:
        content = gcd(content, c)
    coeffs = [c // content for c in coeffs]
    # cheap filters before full evaluation: a root p/q in lowest terms has
    # (p - q) | P(1) and (p + q) | P(-1)
    at_one = sum(coeffs)  # never 0: the original value there is 256*jd
    at_minus_one = sum(c if k % 2 == 0 else -c for k, c in enumerate(coeffs))
    roots = set()
    for p in _divisors(coeffs[0]):
        for q in _divisors(coeffs[-1]):
            if gcd(p, q) != 1:
                continue  # the reduced pair is enumerated on its own
            for pn in (p, -p):
                if pn == q:
                    continue
                if at_one % (pn - q) != 0:
                    continue
                if pn != -q and at_minus_one != 0 and at_minus_one % (pn + q) != 0:
                    continue
                value = sum(
                    c * pn**k * q ** (6 - k) for k, c in enumerate(coeffs)
                )
                if value == 0:
                    roots.add(Fraction(pn, q))
    out = sorted(roots)
    if any(j_from_lambda(r) != j for r in out):
        raise RuntimeError(f"a root of the lambda sextic for j = {j} maps to another j")
    return out


@dataclass(frozen=True)
class CurveQ:
    """Integral short Weierstrass curve y^2 = x^3 + a x + b, nonsingular.

    a and b must be integers; a float or Fraction raises TypeError.
    """

    a: int
    b: int
    disc: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "a", operator.index(self.a))
        object.__setattr__(self, "b", operator.index(self.b))
        disc = -16 * (4 * self.a**3 + 27 * self.b**2)
        if disc == 0:
            raise SingularCurve(f"discriminant vanishes for a={self.a}, b={self.b}")
        object.__setattr__(self, "disc", disc)

    def j_invariant(self) -> Fraction:
        return Fraction(1728 * 4 * self.a**3, 4 * self.a**3 + 27 * self.b**2)

    def rhs(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        return x**3 + self.a * x + self.b

    def contains(self, pt: "Point") -> bool:
        if pt.is_infinity:
            return True
        return pt.y * pt.y == self.rhs(pt.x)

    def __str__(self):
        return f"y^2 = x^3 + {self.a}*x + {self.b}"


@dataclass(frozen=True)
class Point:
    """Affine rational point or the point at infinity (both coords None)."""

    x: Fraction | None
    y: Fraction | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("both coordinates or neither")
        if self.x is not None:
            object.__setattr__(self, "x", Fraction(self.x))
            object.__setattr__(self, "y", Fraction(self.y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self):
        return "infinity" if self.is_infinity else f"({self.x}, {self.y})"


INFINITY = Point(None, None)


def negate(pt: Point) -> Point:
    if pt.is_infinity:
        return pt
    return Point(pt.x, -pt.y)


def add_points(e: CurveQ, p: Point, q: Point) -> Point:
    """Chord-and-tangent sum, exact; infinity is the identity."""
    for pt in (p, q):
        if not e.contains(pt):
            raise PointNotOnCurve(f"{pt} does not satisfy {e}")
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:  # includes the y = 0 tangent case
            return INFINITY
        slope = (3 * p.x * p.x + e.a) / (2 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope * slope - p.x - q.x
    y3 = slope * (p.x - x3) - p.y
    return Point(x3, y3)


def mul_point(e: CurveQ, k: int, p: Point) -> Point:
    """k-th multiple of p by double-and-add; negative k negates first."""
    if k < 0:
        return mul_point(e, -k, negate(p))
    acc = INFINITY
    base = p
    while k:
        if k & 1:
            acc = add_points(e, acc, base)
        k >>= 1
        if k:
            base = add_points(e, base, base)
    return acc


@dataclass(frozen=True)
class LegendreModel:
    """Integral Weierstrass model of a Legendre curve with the point maps.

    The substitution is x_w = u^2 (x_leg - shift), y_w = u^3 y_leg with
    shift = (1 + lambda)/3 and u the least positive integer clearing all
    denominators, so points transfer exactly in both directions.
    """

    lam: Fraction
    curve: CurveQ
    u: int
    shift: Fraction

    def to_weierstrass(self, x_leg, y_leg) -> Point:
        x = (Fraction(x_leg) - self.shift) * self.u**2
        return Point(x, Fraction(y_leg) * self.u**3)

    def to_legendre(self, pt: Point):
        if pt.is_infinity:
            raise ValueError("infinity has no affine Legendre coordinates")
        return (pt.x / self.u**2 + self.shift, pt.y / self.u**3)


def legendre_model(lam) -> LegendreModel:
    lam = _check_lambda(lam)
    a = (-(lam * lam) + lam - 1) / 3
    b = (-2 * lam**3 + 3 * lam * lam + 3 * lam - 2) / 27
    for u in _divisors(3 * lam.denominator):
        ia = a * u**4
        ib = b * u**6
        if ia.denominator == 1 and ib.denominator == 1:
            curve = CurveQ(int(ia), int(ib))
            return LegendreModel(lam, curve, u, (1 + lam) / 3)
    raise RuntimeError("u = 3*denominator always clears denominators")


def legendre_to_weierstrass(lam) -> CurveQ:
    """Integral short Weierstrass model of y^2 = x(x-1)(x-lambda)."""
    return legendre_model(lam).curve


# the 15 torsion groups that can occur over Q
MAZUR_ADMISSIBLE = frozenset(
    [AbelianGroup(())]
    + [AbelianGroup((n,)) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
    + [AbelianGroup((2, 2 * m)) for m in (1, 2, 3, 4)]
)


def _integer_roots_cubic(a: int, c: int) -> list:
    """Integer roots of x^3 + a x + c."""
    if c == 0:
        roots = {0}
        if a < 0:
            r = isqrt(-a)
            if r * r == -a:
                roots.update((r, -r))
        return sorted(roots)
    roots = set()
    for d in _divisors(c):
        for x in (d, -d):
            if x**3 + a * x + c == 0:
                roots.add(x)
    return sorted(roots)


def _order_up_to(e: CurveQ, p: Point, bound: int = 12):
    """Order of p if at most `bound`, else None (then p is non-torsion over Q)."""
    if p.is_infinity:
        return 1
    acc = p
    for k in range(2, bound + 1):
        acc = add_points(e, acc, p)
        if acc.is_infinity:
            return k
        # torsion points have integral coordinates; leaving Z^2 proves
        # infinite order and stops the denominators from growing
        if acc.x.denominator != 1 or acc.y.denominator != 1:
            return None
    return None


def torsion_subgroup(e: CurveQ):
    """Full rational torsion subgroup: (normal form, points).

    Candidates are the finitely many integral points with y = 0 or
    y^2 | disc; each is kept only if some multiple up to 12 hits infinity.
    Points come back sorted with infinity first.
    """
    points = {INFINITY}
    for x in _integer_roots_cubic(e.a, e.b):
        points.add(Point(x, 0))
    limit = isqrt(abs(e.disc))
    for d in range(1, limit + 1):
        if abs(e.disc) % (d * d) != 0:
            continue
        for x in _integer_roots_cubic(e.a, e.b - d * d):
            candidate = Point(x, d)
            if _order_up_to(e, candidate) is not None:
                points.add(candidate)
                points.add(negate(candidate))
    n = len(points)
    exponent = 1
    for pt in points:
        k = _order_up_to(e, pt)
        exponent = exponent * k // gcd(exponent, k)
    if exponent == n:
        group = AbelianGroup((n,) if n > 1 else ())
    elif n == 2 * exponent:
        group = AbelianGroup((2, exponent))
    else:
        raise RuntimeError(
            f"{n} torsion points with exponent {exponent} fit no group over Q"
        )
    ordered = sorted(points, key=lambda pt: (not pt.is_infinity, pt.x, pt.y))
    return group, ordered


_AB_SPEC = re.compile(r"^a\s*=\s*(-?\d+)\s*,\s*b\s*=\s*(-?\d+)$")


def parse_curve_spec(text: str):
    """Parse `lambda=<rational>` or `a=<int>,b=<int>`.

    Returns (curve, model) where model is the LegendreModel for lambda specs
    and None for direct (a, b) specs.
    """
    text = text.strip()
    if text.startswith("lambda="):
        try:
            lam = Fraction(text[len("lambda=") :].strip())
        except (ValueError, ZeroDivisionError):
            raise CurveSpecError(f"bad rational in {text!r}") from None
        model = legendre_model(lam)
        return model.curve, model
    m = _AB_SPEC.match(text)
    if m:
        return CurveQ(int(m.group(1)), int(m.group(2))), None
    raise CurveSpecError(
        f"cannot parse curve spec {text!r}; expected lambda=<rational> or a=<int>,b=<int>"
    )
