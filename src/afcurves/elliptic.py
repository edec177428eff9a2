"""Legendre-form elliptic curve algebra over the rationals.

Covers the j-invariant of y^2 = x(x-1)(x-lambda), the six-element
fractional-linear lambda orbit, recovery of rational lambda values from a
given j (integer roots of a monic cubic in u = lambda^2 - lambda, by exact
bisection), conversion to an integral short Weierstrass model
y^2 = x^3+ax+b, the exact chord-and-tangent group law, and rational torsion
subgroups, as exact_linalg.AbelianGroup, by reduction: the gcd g of #E(F_l)
over a few good primes (zeta's residue count) bounds the torsion, g = 1
settles it, and otherwise the torsion x are the integer roots of x^3 + ax +
b and of division polynomials, found mod one prime and Hensel-lifted past
the Nagell-Lutz bound on x.  No search scans a window of x.  The divisor
search of legendre_model past _STEP_CAP steps, and the division polynomials
past _TORSION_BITS_CAP bits of a^3 and b^2, raise BudgetExceeded before they
start.  All arithmetic is exact (Fraction); a float argument raises
TypeError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

from .exact_linalg import AbelianGroup, BudgetExceeded, Record, exact_int, int_text
from .zeta import _count_points_prime_field, is_prime

# Steps legendre_model's divisor search may take before it raises
# BudgetExceeded instead.
_STEP_CAP = 1 << 22
# Good primes whose point counts torsion_subgroup takes the gcd of.
_REDUCTION_PRIMES = 8
# Past this max(3 * a.bit_length(), 2 * b.bit_length()), about the bits of
# D = 4a^3 + 27b^2, torsion_subgroup refuses a curve with g > 1 before its
# division polynomials.  Time near the cap on the curves below, scaled to
# (a u^4, b u^6) with u = 2^1998 + 1, sizes 23,994 to 24,030 (best of 3,
# CPython 3.11.7, 2 shared vCPUs):
#   a, b     -219, 1654  45333, -1978074  -12987, -263466  -43, 166  -157707, 78888006
#   torsion         Z_9              Z_8        Z_2 + Z_4       Z_7               Z_12
#   s              0.25             0.23             0.22      0.11               0.05
_TORSION_BITS_CAP = 24_000


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


def _nagell_lutz_window(a: int, b: int) -> tuple:
    """(r, top): every torsion point of y^2 = x^3 + ax + b has an integer x
    in [1 - r, top], and y = 0 or y^2 | D = 4a^3 + 27b^2 (strong
    Nagell-Lutz).  With r^2 > 2|a| and r^3 > 2|b|, |x| >= r gives
    |ax + b| < |x|^3, so f(x) = x^3 + ax + b has the sign of x and no point
    has x <= -r.  From x >= 2r on, |ax + b| < x^3 (1/8 + 1/16), so
    f(x) > x^3 / 2, which passes |D| once x^3 > 2|D|: y^2 = f(x) can then
    no longer divide D."""
    r = max(isqrt(2 * abs(a)), _icbrt(2 * abs(b))) + 1
    return r, max(2 * r, _icbrt(2 * abs(4 * a**3 + 27 * b * b)) + 1)


def _reduction_gcd(e: CurveQ) -> tuple:
    """(g, primes): g = gcd #E(F_l) over the good primes l >= 3 in increasing
    order, and the primes it took.  E(Q)_tors injects into E(F_l) at each
    (Silverman, AEC VII.3.1), so its order divides g.  Stops at the first l
    where g = 1, or after _REDUCTION_PRIMES good primes."""
    g, primes, ell = 0, [], 1
    while g != 1 and len(primes) < _REDUCTION_PRIMES:
        ell += 2
        if e.disc % ell and is_prime(ell):
            g = gcd(g, _count_points_prime_field(e, ell))
            primes.append(ell)
    return g, primes


def _pmul(u: list, v: list, n: int) -> list:
    """u * v mod n, for coefficient lists in [0, n) with the constant first,
    by Kronecker substitution: each list packed into one integer, w bytes a
    coefficient, wide enough that no coefficient of the product carries into
    the next, and one integer product."""
    w = (2 * n.bit_length() + max(len(u), len(v)).bit_length()) // 8 + 1
    x = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in u), "little")
    y = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in v), "little")
    raw = (x * y).to_bytes(w * (len(u) + len(v) - 1), "little")
    return [int.from_bytes(raw[i : i + w], "little") % n for i in range(0, len(raw), w)]


def _psub(u: list, v: list, n: int) -> list:
    """u - v mod n."""
    u, v = u + [0] * (len(v) - len(u)), v + [0] * (len(u) - len(v))
    return [(c - d) % n for c, d in zip(u, v)]


def _division_polynomial(a: int, b: int, m: int, n: int) -> list:
    """g_m mod n, as an x-polynomial with the constant first: g_m = psi_m
    for odd m and psi_m / y for even m, so g_m has leading coefficient m and
    its roots are the x of the points of order dividing m but not 2.  psi's
    recurrence, with y^2 = f = x^3 + ax + b:
    g_(2k+1) = g_(k+2) g_k^3 - g_(k-1) g_(k+1)^3, where f^2 multiplies the
    term whose indices are even, and
    g_(2k) = g_k (g_(k+2) g_(k-1)^2 - g_(k-2) g_(k+1)^2) / 2 (n is odd);
    only the g_j that g_m reaches are formed."""
    f = [b % n, a % n, 0, 1]
    f2 = _pmul(f, f, n)
    g = {0: [0], 1: [1], 2: [2], 3: [-a * a, 12 * b, 6 * a, 0, 3]}
    g[4] = [-4 * a**3 - 32 * b * b, -16 * a * b, -20 * a * a, 80 * b, 20 * a, 0, 4]
    g = {j: [c % n for c in poly] for j, poly in g.items()}
    half = pow(2, -1, n)

    def square(j: int) -> list:
        return _pmul(at(j), at(j), n)

    def at(j: int) -> list:
        if j not in g:
            k = j // 2
            if j % 2:
                u = _pmul(at(k + 2), _pmul(at(k), square(k), n), n)
                v = _pmul(at(k - 1), _pmul(at(k + 1), square(k + 1), n), n)
                if k % 2:
                    v = _pmul(f2, v, n)
                else:
                    u = _pmul(f2, u, n)
                g[j] = _psub(u, v, n)
            else:
                u = _pmul(at(k + 2), square(k - 1), n)
                v = _pmul(at(k - 2), square(k + 1), n)
                g[j] = [c * half % n for c in _pmul(at(k), _psub(u, v, n), n)]
        return g[j]

    return at(m)


def _horner(poly: list, x: int, n: int) -> int:
    """poly(x) mod n."""
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % n
    return acc


def _integer_root_candidates(poly: list, ell: int, n: int) -> list:
    """Every integer root x with |x| < n / 2 of an integer polynomial, given
    mod n = ell^k and squarefree mod the prime ell: its roots mod ell, each
    simple, Newton-lifted (Hensel) to mod n, the precision squared a step,
    as symmetric residues.  A candidate need not be a root; the caller
    checks each exactly."""
    slope = [i * c for i, c in enumerate(poly)][1:]
    low, low_slope = [c % ell for c in poly], [c % ell for c in slope]
    out = []
    for x in range(ell):
        if _horner(low, x, ell):
            continue
        if not _horner(low_slope, x, ell):
            raise RuntimeError(f"a squarefree polynomial has a double root mod {ell}")
        precision = ell
        while precision < n:
            precision = min(precision * precision, n)
            inverse = pow(_horner(slope, x, precision), -1, precision)
            x = (x - _horner(poly, x, precision) * inverse) % precision
        out.append(x if 2 * x < n else x - n)
    return out


def torsion_subgroup(e: CurveQ):
    """Full rational torsion subgroup: (normal form, points).

    Its order divides g = gcd #E(F_l) over a few good primes l
    (_reduction_gcd), so g = 1 proves it trivial.  Otherwise each prime
    q | g climbs the orders q^e | g that Mazur allows (2, 4, 8; 3, 9; 5; 7)
    while the last step found a point of order q^(e-1).  A point of order
    q^e is integral (Nagell-Lutz), and its x is a root of f = x^3 + ax + b
    (e = 1, q = 2) or of the division polynomial g_(q^e).  Their integer
    roots are found mod one good prime l that does not divide g and lifted
    past twice the Nagell-Lutz x bound; a lifted x is kept if f(x) = 0, or
    if f(x) is a square and some multiple up to 12 of (x, sqrt f(x)) hits
    infinity.  The group is the sum of its primary parts.  When g > 1 and
    max(3 * a.bit_length(), 2 * b.bit_length()) passes _TORSION_BITS_CAP it
    raises BudgetExceeded before the division polynomials.  Points come back
    sorted with infinity first.
    """
    a, b = e.a, e.b
    g, primes = _reduction_gcd(e)
    if g == 1:
        return AbelianGroup(()), [INFINITY]
    if (size := max(3 * a.bit_length(), 2 * b.bit_length())) > _TORSION_BITS_CAP:
        # str(e), which itself raises past the digit limit
        curve = f"y^2 = x^3 + {int_text(a)}*x + {int_text(b)}"
        raise BudgetExceeded(
            f"torsion of {curve}: max(3 * a.bit_length(), 2 * b.bit_length()) = "
            f"{size} is past {_TORSION_BITS_CAP}"
        )
    # g <= #E(F_l) < l^2 at the first good l, so at most one of them divides g
    ell = next(q for q in primes if g % q)
    bound, modulus = 2 * _nagell_lutz_window(a, b)[1], ell
    while modulus <= bound:
        modulus *= ell
    orders = {INFINITY: 1}
    for chain in ((2, 4, 8), (3, 9), (5,), (7,)):  # the prime powers Mazur allows
        part = {INFINITY: 1}
        for m in chain:
            # a point of order q^e has one of order q^(e-1) among its multiples
            if g % m or (m > chain[0] and m // chain[0] not in part.values()):
                break
            if m == 2:
                f = [b % modulus, a % modulus, 0, 1]
                for x in _integer_root_candidates(f, ell, modulus):
                    if (x * x + a) * x + b == 0:
                        part[Point(x, 0)] = 2
            else:
                psi = _division_polynomial(a, b, m, modulus)
                for x in _integer_root_candidates(psi, ell, modulus):
                    fx = (x * x + a) * x + b
                    if fx > 0 and isqrt(fx) ** 2 == fx:
                        candidate = Point(x, isqrt(fx))
                        if candidate not in part and (k := _order_up_to(e, candidate)):
                            part[candidate] = part[negate(candidate)] = k
        if len(orders) == 1:
            orders = part
        elif len(part) > 1:  # orders coprime to the parts before: all sums are new
            orders = {
                add_points(e, p, q): lcm(i, j)
                for p, i in orders.items()
                for q, j in part.items()
            }
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
