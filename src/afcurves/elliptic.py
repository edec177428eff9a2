"""Legendre-form elliptic curve algebra over the rationals.

Covers the j-invariant of y^2 = x(x-1)(x-lambda), the six-element
fractional-linear lambda orbit, recovery of rational lambda values from a
given j (integer roots of a monic cubic in u = lambda^2 - lambda, by exact
bisection), conversion to an integral short Weierstrass model
y^2 = x^3+ax+b, the exact chord-and-tangent group law, and rational torsion
subgroups, as exact_linalg.AbelianGroup, from a strong Nagell-Lutz scan over
an explicit window of integer x.  Searches past _STEP_CAP steps raise
BudgetExceeded before they start.  All arithmetic is exact (Fraction); a
float argument raises TypeError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm

from .exact_linalg import AbelianGroup, BudgetExceeded, Record, exact_int, int_text

# Steps a curve search may take before it raises BudgetExceeded instead.
_STEP_CAP = 1 << 22


class SingularLambda(ValueError):
    """lambda in {0, 1}: the Legendre curve degenerates."""


class SingularCurve(ValueError):
    """Zero discriminant: y^2 = x^3 + ax + b is not smooth."""


class PointNotOnCurve(ValueError):
    pass


class CurveSpecError(ValueError):
    pass


def to_fraction(value) -> Fraction:
    """Fraction(value) for an int, a Fraction or a `p/q` string; a float, or
    a bool by exact_int, raises TypeError rather than pass as its binary
    expansion or 0/1, and text that is not a rational raises ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(exact_int(value))
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not an int, Fraction or 'p/q'")
    try:
        return Fraction(value)
    except ZeroDivisionError:  # from 'p/0'; every refusal is a ValueError
        raise ValueError(f"zero denominator in {value!r}") from None


def _check_lambda(lam) -> Fraction:
    lam = to_fraction(lam)
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


def rational_lambdas_from_j(j) -> list:
    """All rational lambda with j_from_lambda(lambda) = j, sorted.

    With u = lambda^2 - lambda, j = 2^8 (u + 1)^3 / u^2, so y = k u with
    k = 256 jd is a root of the monic cubic g(y) = (y + k)^3 - jn y^2.  The
    lambda over j form one orbit, so if one is rational, all are: every root
    y is then an integer and 1 + 4u = (2 lambda - 1)^2 a rational square.
    Any integer root decides, and with three real roots the largest lies at
    or past c, the larger zero of g', 3c = jn - 3k + sqrt(jn (jn - 6k)),
    where g increases: the integers next to c are tried directly (at j = 1728
    a double root sits on c), and exact bisection covers the rest.  Empty
    when no rational parameter exists (e.g. j = 0).
    """
    j = to_fraction(j)
    jn, k = j.numerator, 256 * j.denominator

    def g(y):
        return (y + k) ** 3 - jn * y * y

    hi = 1 + max(abs(3 * k - jn), 3 * k * k, k**3)  # Cauchy's bound: g(hi) > 0
    lo, roots = -hi, []
    s = jn * (jn - 6 * k)
    if s > 0:  # g' has two zeros; c is the larger
        top = jn - 3 * k + isqrt(s)  # 3c lies in [top, top + 1)
        lo = -(-(top + 1) // 3)
        roots = [y for y in range(top // 3, lo) if g(y) == 0]
    while hi - lo > 1:  # g increases on [lo, hi] and stays > 0 at hi
        mid = (lo + hi) // 2
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    if g(lo) == 0:
        roots.append(lo)
    out = []
    if roots and k + 4 * roots[0] >= 0:
        t = 1 + Fraction(4 * roots[0], k)  # 1 + 4u
        root = Fraction(isqrt(t.numerator), isqrt(t.denominator))
        if root * root == t:
            out = sorted(lambda_orbit((1 + root) / 2))
    if any(j_from_lambda(r) != j for r in out):
        raise RuntimeError(f"a lambda recovered for j = {j} maps to another j")
    return out


class CurveQ(Record):
    """Integral short Weierstrass curve y^2 = x^3 + a x + b, nonsingular.

    a and b pass exact_linalg.exact_int, or raise TypeError.
    """

    a: int
    b: int
    disc: int  # set from a and b, not an argument

    def __init__(self, a, b):
        object.__setattr__(self, "a", exact_int(a))
        object.__setattr__(self, "b", exact_int(b))
        disc = -16 * (4 * self.a**3 + 27 * self.b**2)
        if disc == 0:
            raise SingularCurve(f"discriminant vanishes for a={self.a}, b={self.b}")
        object.__setattr__(self, "disc", disc)

    def j_invariant(self) -> Fraction:
        return Fraction(1728 * 4 * self.a**3, 4 * self.a**3 + 27 * self.b**2)

    def rhs(self, x: Fraction) -> Fraction:
        x = to_fraction(x)
        return x**3 + self.a * x + self.b

    def contains(self, pt: "Point") -> bool:
        if pt.is_infinity:
            return True
        return pt.y * pt.y == self.rhs(pt.x)

    def __str__(self):
        return f"y^2 = x^3 + {self.a}*x + {self.b}"


class Point(Record):
    """Affine rational point or the point at infinity (both coords None)."""

    x: Fraction | None
    y: Fraction | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("both coordinates or neither")
        if self.x is not None:
            object.__setattr__(self, "x", to_fraction(self.x))
            object.__setattr__(self, "y", to_fraction(self.y))

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


class LegendreModel(Record):
    """Integral Weierstrass model of a Legendre curve and its substitution.

    A point (x_leg, y_leg) of y^2 = x(x - 1)(x - lambda) maps to
    (u^2 (x_leg - shift), u^3 y_leg) on the integral model `curve`, and
    (x_w, y_w) maps back to (x_w / u^2 + shift, y_w / u^3).  shift =
    (1 + lambda)/3 removes the x^2 term, and u is the least positive integer
    that makes the model integral.
    """

    lam: Fraction
    curve: CurveQ
    u: int
    shift: Fraction


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


def legendre_model(lam) -> LegendreModel:
    lam = _check_lambda(lam)
    if 3 * lam.denominator > _STEP_CAP**2:  # _divisors tries k up to the root
        raise BudgetExceeded(f"denominator of lambda = {lam} over {_STEP_CAP}^2 / 3")
    a = (-(lam * lam) + lam - 1) / 3
    b = (-2 * lam**3 + 3 * lam * lam + 3 * lam - 2) / 27
    for u in _divisors(3 * lam.denominator):
        ia = a * u**4
        ib = b * u**6
        if ia.denominator == 1 and ib.denominator == 1:
            curve = CurveQ(int(ia), int(ib))
            return LegendreModel(lam, curve, u, (1 + lam) / 3)
    raise RuntimeError("u = 3*denominator always clears denominators")


# the 15 torsion groups that can occur over Q
MAZUR_ADMISSIBLE = frozenset(
    [AbelianGroup(())]
    + [AbelianGroup((n,)) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
    + [AbelianGroup((2, 2 * m)) for m in (1, 2, 3, 4)]
)


def _order_up_to(e: CurveQ, p: Point):
    """Order of p if at most 12, else None: then p is non-torsion (Mazur)."""
    acc = p
    for k in range(2, 13):
        acc = add_points(e, acc, p)
        if acc.is_infinity:
            return k
        # torsion points have integral coordinates; leaving Z^2 proves
        # infinite order and stops the denominators from growing
        if acc.x.denominator != 1 or acc.y.denominator != 1:
            return None
    return None


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 0, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // 3)
    while x * x * x > n:
        x = (2 * x + n // (x * x)) // 3
    return x


def torsion_subgroup(e: CurveQ):
    """Full rational torsion subgroup: (normal form, points).

    By the strong Nagell-Lutz theorem a torsion point is integral with y = 0
    or y^2 | D = 4a^3 + 27b^2.  Candidates come from one pass over integer x
    in a window of O(|D|^(1/3)) values; each is kept only if some multiple
    up to 12 hits infinity.  A window over _STEP_CAP raises BudgetExceeded
    before the pass.  Points come back sorted with infinity first.
    """
    a, b = e.a, e.b
    d = 4 * a**3 + 27 * b * b
    # With r^2 > 2|a| and r^3 > 2|b|, |x| >= r gives |ax + b| < |x|^3, so
    # f(x) = x^3 + ax + b has the sign of x and no point has x <= -r.  From
    # x >= 2r on, |ax + b| < x^3 (1/8 + 1/16), so f(x) > x^3 / 2; past
    # c^3 > 2|D| that exceeds |D|, and y^2 = f(x) can no longer divide D.
    r = max(isqrt(2 * abs(a)), _icbrt(2 * abs(b))) + 1
    top = max(2 * r, _icbrt(2 * abs(d)) + 1)
    if top + r > _STEP_CAP:
        # str(e), which itself raises past the digit limit
        curve = f"y^2 = x^3 + {int_text(a)}*x + {int_text(b)}"
        raise BudgetExceeded(f"Nagell-Lutz window of {curve} over {_STEP_CAP} values")
    orders = {INFINITY: 1}
    for x in range(1 - r, top + 1):
        fx = (x * x + a) * x + b
        if fx == 0:
            orders[Point(x, 0)] = 2
        elif fx > 0 and d % fx == 0 and isqrt(fx) ** 2 == fx:
            candidate = Point(x, isqrt(fx))
            k = _order_up_to(e, candidate)
            if k is not None:
                orders[candidate] = orders[negate(candidate)] = k
    n, exponent = len(orders), lcm(*orders.values())
    if exponent == n:
        group = AbelianGroup((n,) if n > 1 else ())
    elif n == 2 * exponent:
        group = AbelianGroup((2, exponent))
    else:
        raise RuntimeError(
            f"{n} torsion points with exponent {exponent} fit no group over Q"
        )
    ordered = sorted(orders, key=lambda pt: (not pt.is_infinity, pt.x, pt.y))
    return group, ordered


_AB_SPEC = re.compile(r"^a\s*=\s*(-?\d+)\s*,\s*b\s*=\s*(-?\d+)$")


def parse_spec_rational(spec: str, prefix: str) -> Fraction:
    """The rational after `prefix` in a spec such as `lambda=1/3` or `j=0`;
    text that is not a rational, or a zero denominator, is a CurveSpecError."""
    try:
        return to_fraction(spec[len(prefix) :].strip())
    except ValueError:
        raise CurveSpecError(f"bad rational in {spec!r}") from None


def parse_curve_spec(text: str):
    """Parse `lambda=<rational>` or `a=<int>,b=<int>`.

    Returns (curve, model) where model is the LegendreModel for lambda specs
    and None for direct (a, b) specs.
    """
    text = text.strip()
    if text.startswith("lambda="):
        model = legendre_model(parse_spec_rational(text, "lambda="))
        return model.curve, model
    m = _AB_SPEC.match(text)
    if m:
        try:  # past the interpreter's digit limit, int() raises ValueError
            a, b = int(m.group(1)), int(m.group(2))
        except ValueError as exc:
            raise CurveSpecError(f"bad integer in curve spec: {exc}") from None
        return CurveQ(a, b), None
    raise CurveSpecError(
        f"cannot parse curve spec {text!r}; expected lambda=<rational> or a=<int>,b=<int>"
    )
