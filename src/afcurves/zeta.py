"""Local zeta data on both sides of the curve/operator correspondence.

Curve side: exact point counts of y^2 = x^3 + ax + b over F_{p^n}, and the
local factor (1 - a_p z + p z^2)/((1-z)(1-pz)) checked against the
exponential of the count sum.  #E(F_p) is a residue count for p <= 229 and
a Shanks-Mestre baby-step giant-step count above (O(p^(1/4)) group steps,
certified unique in the Hasse interval by points of E and of its quadratic
twist); every n > 1 follows from a_p by the Frobenius-trace recurrence.
The residue count and count_points_enumerated, which counts over a
constructed F_{p^n} table, are the tests' independent oracles.

Operator side: the companion matrix L_p = [[tr(A^p), p], [-1, 0]] of an
incidence matrix A and the cardinality sequence |det(I - L_p^n)|, with the
degenerate branch |1 - alpha^n| when p divides tr(A)^2 - 4.  tr(A^p) is
x^p reduced modulo the characteristic polynomial of A (Cayley-Hamilton,
exact_linalg.trace_power), O(n^2 log p) big-integer products; no A^p.
One routine, _operator_side, takes tr(A^p) and decides the branch once;
operator_local_zeta_counts and compare_local both read it.

compare_local assembles both sequences side by side and records per-n
equality flags without asserting them: whether the two local zetas agree
under some normalization is the open question the report is for.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm

from .af_invariant import IncidenceMatrix
from .exact_linalg import BudgetExceeded, Record, trace_power

ENUMERATION_MAX = 1_000_000
# Mestre's theorem (Schoof 1995, Thm 3.2): above 229, E or its twist has
# points whose orders leave one #E in the Hasse interval.
RESIDUE_COUNT_MAX = 229
# Points tried before Shanks-Mestre gives up; generic curves need one or two.
MESTRE_MAX_POINTS = 64
# The first 13 primes: Miller-Rabin on these bases is exact below
# MILLER_RABIN_BOUND (Sorenson-Webster 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


class BadReduction(ValueError):
    """p divides the discriminant: the reduced curve is singular."""


class UnsupportedCharacteristic(ValueError):
    """p = 2 is excluded: the quadratic-residue count logic needs odd p."""


class AlphaRequired(ValueError):
    """The degenerate branch p | tr(A)^2 - 4 needs an explicit alpha."""


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases.

    Exact below MILLER_RABIN_BOUND; at or above it raises BudgetExceeded.
    """
    if m >= MILLER_RABIN_BOUND:
        raise BudgetExceeded(
            f"{m} is at or above {MILLER_RABIN_BOUND}, where Miller-Rabin on "
            f"{len(MILLER_RABIN_BASES)} bases is no longer a proof"
        )
    if m < 2:
        return False
    for q in MILLER_RABIN_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for q in MILLER_RABIN_BASES:
        x = pow(q, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _check_good_odd_prime(e, p: int):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        raise UnsupportedCharacteristic("p = 2 is not supported on the curve side")
    if e.disc % p == 0:
        raise BadReduction(f"p = {p} divides the discriminant {e.disc}")


def _count_points_prime_field(e, p: int) -> int:
    sq_count = [0] * p
    for y in range(p):
        sq_count[y * y % p] += 1
    a, b = e.a % p, e.b % p
    affine = sum(sq_count[(x * x * x + a * x + b) % p] for x in range(p))
    return affine + 1


# --- Shanks-Mestre: #E(F_p) from point orders over the Hasse interval ------


def _ec_add(u, v, a: int, p: int):
    """u + v on y^2 = x^3 + a x + b over F_p; None is the point at infinity."""
    if u is None:
        return v
    if v is None:
        return u
    (x1, y1), (x2, y2) = u, v
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _ec_mul(k: int, u, a: int, p: int):
    """k * u by double-and-add."""
    acc = None
    while k:
        if k & 1:
            acc = _ec_add(acc, u, a, p)
        u = _ec_add(u, u, a, p)
        k >>= 1
    return acc


def _order_modulus(point, a: int, p: int, lo: int, hi: int) -> int:
    """A d with: for lo <= m <= hi, m * point = O exactly when d | m.

    Baby steps j * point, j = 1..s, either meet O, a point of order 2 or a
    repeated x (j P = -k P) and so give the exact order n at once, or prove
    n > 2s.  Then each giant step c * point, with centres c spaced 2s + 1
    apart over [lo, hi], equals O or +-j * point for at most one j, which
    names the one m = c -+ j it certifies; no collision costs a scalar
    multiplication.
    """
    s = isqrt((hi - lo) // 2)
    baby = {}  # x(j * point) -> (j, y(j * point))
    u = None
    for j in range(1, s + 1):
        u = _ec_add(u, point, a, p)
        if u is None:
            return j
        if u[1] == 0:
            return 2 * j
        if u[0] in baby:
            return j + baby[u[0]][0]
        baby[u[0]] = j, u[1]
    stride = 2 * s + 1
    step = _ec_mul(stride, point, a, p)
    centre = lo + s
    giant = _ec_mul(centre, point, a, p)
    found = []
    while centre - s <= hi:
        if giant is None:
            found.append(centre)
        elif giant[0] in baby:
            j, y = baby[giant[0]]
            found.append(centre - j if giant[1] == y else centre + j)
        giant = _ec_add(giant, step, a, p)
        centre += stride
    found = [m for m in found if lo <= m <= hi]
    if not found:
        raise RuntimeError(
            f"no multiple of a point's order lies in the Hasse interval at p = {p}"
        )
    return found[1] - found[0] if len(found) > 1 else found[0]


def _hasse_candidates(m_e: int, m_t: int, p: int, lo: int, hi: int) -> list:
    """The first two N in [lo, hi] with m_e | N and m_t | 2p + 2 - N."""
    g = gcd(m_e, m_t)
    if (2 * p + 2) % g:
        raise RuntimeError(f"the orders on E and on its twist disagree at p = {p}")
    t = (2 * p + 2) // g * pow(m_e // g, -1, m_t // g) % (m_t // g)
    step = lcm(m_e, m_t)
    first = lo + (m_e * t - lo) % step
    return [n for n in (first, first + step) if n <= hi]


def _count_points_shanks_mestre(e, p: int) -> int:
    """#E(F_p) for p > RESIDUE_COUNT_MAX, certified, never guessed.

    For x = 0, 1, 2, ... with c = f(x) != 0, the point (c x, c^2) lies on
    y^2 = x^3 + a c^2 x + b c^3: E itself when c is a square mod p, its
    quadratic twist (with 2p + 2 - #E points) otherwise.  Each point's order
    constrains #E or the twist's count; the count is returned once one N is
    left in the Hasse interval.
    """
    a, b = e.a % p, e.b % p
    width = isqrt(4 * p)
    lo, hi = p + 1 - width, p + 1 + width
    m_e = m_t = 1
    tried = 0
    for x in range(p):
        c = (x * x * x + a * x + b) % p
        if c == 0:
            continue
        d = _order_modulus((c * x % p, c * c % p), a * c * c % p, p, lo, hi)
        if pow(c, (p - 1) // 2, p) == 1:
            m_e = lcm(m_e, d)
        else:
            m_t = lcm(m_t, d)
        candidates = _hasse_candidates(m_e, m_t, p, lo, hi)
        if len(candidates) == 1:
            return candidates[0]
        tried += 1
        if tried == MESTRE_MAX_POINTS:
            break
    raise RuntimeError(
        f"Shanks-Mestre left no unique #E in the Hasse interval at p = {p} "
        f"after {tried} points"
    )


# --- arithmetic in F_{p^n} as polynomials modulo an irreducible ------------


def _poly_rem(dividend: list, divisor: tuple, p: int) -> list:
    """Remainder of dividend by monic divisor, coefficients mod p."""
    rem = [c % p for c in dividend]
    dn = len(divisor) - 1
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c:
            for j in range(dn + 1):
                rem[i - dn + j] = (rem[i - dn + j] - c * divisor[j]) % p
    return rem[:dn]


def _is_irreducible(poly: tuple, p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    n = len(poly) - 1
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            divisor = low + (1,)
            if not any(_poly_rem(list(poly), divisor, p)):
                return False
    return True


def _find_irreducible(p: int, n: int) -> tuple:
    for low in itertools.product(range(p), repeat=n):
        if low[0] == 0:
            continue  # divisible by x
        poly = low + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise RuntimeError("an irreducible polynomial of every degree exists")


class _PrimePowerField:
    """Just enough F_{p^n} arithmetic to count points by enumeration."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.modulus = _find_irreducible(p, n)

    def elements(self):
        return itertools.product(range(self.p), repeat=self.n)

    def mul(self, u, v):
        conv = [0] * (2 * self.n - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    conv[i + j] += a * b
        return tuple(_poly_rem(conv, self.modulus, self.p))

    def add(self, u, v):
        return tuple((a + b) % self.p for a, b in zip(u, v))

    def scalar(self, k: int):
        return tuple([k % self.p] + [0] * (self.n - 1))


def count_points_enumerated(e, p: int, n: int) -> int:
    """#E(F_{p^n}) by direct enumeration over a constructed field table.

    The test oracle for count_points; p^n is capped at ENUMERATION_MAX.
    """
    _check_good_odd_prime(e, p)
    if p**n > ENUMERATION_MAX:
        raise ValueError(f"p^n = {p**n} exceeds the enumeration cap {ENUMERATION_MAX}")
    if n == 1:
        return _count_points_prime_field(e, p)
    gf = _PrimePowerField(p, n)
    sq_count: dict = {}
    for z in gf.elements():
        w = gf.mul(z, z)
        sq_count[w] = sq_count.get(w, 0) + 1
    a = gf.scalar(e.a)
    b = gf.scalar(e.b)
    affine = 0
    for x in gf.elements():
        fx = gf.add(gf.add(gf.mul(x, gf.mul(x, x)), gf.mul(a, x)), b)
        affine += sq_count.get(fx, 0)
    return affine + 1


def trace_frobenius(e, p: int) -> int:
    """a_p = p + 1 - #E(F_p); a count breaking Hasse's a_p^2 <= 4p raises."""
    a_p = p + 1 - count_points(e, p, 1)
    if a_p * a_p > 4 * p:
        raise RuntimeError(f"a_p = {a_p} at p = {p} breaks the Hasse bound a_p^2 <= 4p")
    return a_p


def _curve_counts(a_p: int, p: int, order: int):
    """Yield #E(F_{p^n}) = p^n + 1 - t_n for n = 1..order, where
    t_n = phi^n + phibar^n with phi + phibar = a_p and phi * phibar = p.
    No list is built: t_{n-1}, t_n and p^n are carried, and t_{order+1} is
    never formed."""
    t_prev, t, p_n = 2, a_p, p
    for n in range(order):
        if n:
            t_prev, t, p_n = t, a_p * t - p * t_prev, p_n * p
        yield p_n + 1 - t


def count_points(e, p: int, n: int = 1) -> int:
    """Exact #E(F_{p^n}), infinity included.

    n = 1 is a residue count for p <= RESIDUE_COUNT_MAX and a Shanks-Mestre
    baby-step giant-step count above; n > 1 follows from a_p by the trace
    recurrence, which keeps its last two terms and builds no list of counts.
    The tests hold it to the residue count and to count_points_enumerated.
    """
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if n == 1:
        _check_good_odd_prime(e, p)
        if p <= RESIDUE_COUNT_MAX:
            return _count_points_prime_field(e, p)
        return _count_points_shanks_mestre(e, p)
    for count in _curve_counts(trace_frobenius(e, p), p, n):
        pass
    return count


class ZetaSeries(Record):
    """Curve-side local zeta to order N, by two routes that must agree.

    exp_coefficients come from exp(sum #E(F_{p^n}) z^n / n) with exact
    rational arithmetic; closed_coefficients expand
    (1 - a_p z + p z^2) / ((1 - z)(1 - p z)).
    """

    prime: int
    a_p: int
    exp_coefficients: tuple
    closed_coefficients: tuple
    numerator: tuple
    denominator: tuple


def curve_local_zeta(e, p: int, order: int) -> ZetaSeries:
    """Local zeta series of the curve at p, to the given order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    a_p = trace_frobenius(e, p)
    counts = list(_curve_counts(a_p, p, order))
    exp_coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        exp_coeffs.append(
            sum(counts[j - 1] * exp_coeffs[k - j] for j in range(1, k + 1))
            / Fraction(k)
        )
    geom = [(p ** (k + 1) - 1) // (p - 1) for k in range(order + 1)]

    def _closed(k: int) -> int:
        total = geom[k]
        if k >= 1:
            total -= a_p * geom[k - 1]
        if k >= 2:
            total += p * geom[k - 2]
        return total

    closed = tuple(_closed(k) for k in range(order + 1))
    if any(x != y for x, y in zip(exp_coeffs, closed)):
        raise RuntimeError(f"exp and closed zeta coefficients differ at p = {p}")
    return ZetaSeries(
        prime=p,
        a_p=a_p,
        exp_coefficients=tuple(int(x) for x in exp_coeffs),
        closed_coefficients=closed,
        numerator=(1, -a_p, p),
        denominator=(1, -(1 + p), p),
    )


def is_bad_prime(a: IncidenceMatrix, p: int) -> bool:
    """True when p divides tr(A)^2 - 4 (the degenerate operator branch)."""
    t = a.m.trace()
    return (t * t - 4) % p == 0


def operator_local_zeta_counts(
    a: IncidenceMatrix, p: int, order: int, alpha: int | None = None
) -> list:
    """The K0 cardinality sequence |det(I - eps_n)| for n = 1..order.

    On the good branch (p does not divide tr(A)^2 - 4) eps_n = L_p^n and the
    determinant follows the trace recurrence s_n = tr(A^p) s_{n-1} - p s_{n-2},
    det(I - L_p^n) = 1 - s_n + p^n.  On the degenerate branch eps_n = 1 -
    alpha^n, whose cardinality is |1 - alpha^n| for the supplied alpha.

    Reading |K0| of the crossed product as a Bowen-Franks style determinant
    cardinality is a normalization choice; it is isolated here so the
    comparison reports state exactly what was computed.
    """
    return list(_operator_side(a, p, order, alpha)[0])


class OperatorParams(Record):
    trace_power: int
    branch: str  # "good" (p does not divide tr(A)^2 - 4) or "bad"
    alpha: int | None


class CurveFactor(Record):
    numerator: tuple  # 1 - a_p z + p z^2
    denominator: tuple  # (1 - z)(1 - p z)


class LocalZetaReport(Record):
    """Per-prime comparison of the curve and operator cardinality sequences.

    match_flags records per-n equality of curve_counts and operator_counts;
    nothing asserts the flags, the report itself is the result.
    """

    prime: int
    curve_counts: tuple
    a_p: int
    curve_factor: CurveFactor
    operator_counts: tuple
    operator_params: OperatorParams
    match_flags: tuple


def _operator_side(a: IncidenceMatrix, p: int, order: int, alpha) -> tuple:
    """Operator counts for n = 1..order and the OperatorParams that made them."""
    if order < 0:
        raise ValueError("order must be >= 0")
    tr_ap = trace_power(a.m, p)
    if not is_bad_prime(a, p):
        counts = tuple(abs(c) for c in _curve_counts(tr_ap, p, order))
        return counts, OperatorParams(trace_power=tr_ap, branch="good", alpha=None)
    if alpha is None:
        raise AlphaRequired(
            f"p = {p} divides tr(A)^2 - 4; choose alpha in {{-1, 0, 1}}"
        )
    if alpha not in (-1, 0, 1):
        raise ValueError("alpha must be -1, 0, or 1")
    counts = tuple(abs(1 - alpha**n) for n in range(1, order + 1))
    return counts, OperatorParams(trace_power=tr_ap, branch="bad", alpha=alpha)


def compare_local(
    e, a: IncidenceMatrix, p: int, order: int, alpha: int | None = None
) -> LocalZetaReport:
    """Assemble both local sequences at p with per-n equality flags."""
    a_p = trace_frobenius(e, p)  # first: a bad p outranks a bad order
    curve_counts = tuple(_curve_counts(a_p, p, order))
    operator_counts, operator_params = _operator_side(a, p, order, alpha)
    return LocalZetaReport(
        prime=p,
        curve_counts=curve_counts,
        a_p=a_p,
        curve_factor=CurveFactor(numerator=(1, -a_p, p), denominator=(1, -(1 + p), p)),
        operator_counts=operator_counts,
        operator_params=operator_params,
        match_flags=tuple(c == o for c, o in zip(curve_counts, operator_counts)),
    )
