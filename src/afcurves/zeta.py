"""Local zeta data on both sides of the curve/operator correspondence.

Curve side: exact point counts of y^2 = x^3 + ax + b over F_{p^n}, and the
local factor (1 - a_p z + p z^2)/((1-z)(1-pz)) checked against the
exponential of the count sum.  #E(F_p) is a residue count for p <= 229 and
a Shanks-Mestre baby-step giant-step count above (O(p^(1/4)) group steps,
certified unique in the Hasse interval by points of E and of its quadratic
twist), and past p = 2^58 every curve-side entry refuses with BudgetExceeded
before it counts; every n > 1 follows from a_p by the Frobenius-trace
recurrence.
The residue count and count_points_enumerated, which counts over a
constructed F_{p^n} table, are the tests' independent oracles.

Operator side: the companion matrix L_p = [[tr(A^p), p], [-1, 0]] of an
incidence matrix A and the cardinality sequence |det(I - L_p^n)|, with the
degenerate branch |1 - alpha^n| when p divides tr(A)^2 - 4.  tr(A^p) comes
from exact_linalg.trace_power, which never forms A^p and picks its route
from A's size n: a 2 x 2 A, the matrix of every continued-fraction period,
takes a Lucas ladder on V_p(tr A, det A), one squaring and one product a bit
of p; every other n reduces x^p modulo the characteristic polynomial of A
(Cayley-Hamilton), O(n^2 log p) big-integer products.
One routine, _operator_side, decides the branch once and refuses a missing
or bad alpha before it takes tr(A^p), and then refuses with BudgetExceeded
when the floor max(order, 1) * p * floor(log2 ||A||) passes 2^20 bits (||A||
the largest row sum) or when _report_cost, the cost of both count sequences,
which grows as order^2, passes 2^38; operator_local_zeta_counts and
compare_local both read it, compare_local before its curve count.
local_bits_bound bounds the bits of compare_local's integers before tr(A^p)
is taken, and past 2^20 returns that same floor; _operator_floor alone
writes it.  On the curve side, curve_local_zeta refuses with BudgetExceeded
before its exp series when order^2 * p.bit_length() passes 2^21, and
count_points before its count when n^2 * p.bit_length() passes 2^31.

Every public function here that takes p passes it once, before any work on
it, through _prime (or _check_good_odd_prime, which adds the curve's own
refusals): the package's integer rule, exact_int, then primality.

compare_local assembles both sequences side by side and records per-n
equality flags without asserting them: whether the two local zetas agree
under some normalization is the open question the report is for.
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt, lcm

from .exact_linalg import BudgetExceeded, Record, exact_int, exact_int_at_least
from .exact_linalg import int_text, trace_power

ENUMERATION_MAX = 1_000_000
# Mestre's theorem (Schoof 1995, Thm 3.2): above 229, E or its twist has
# points whose orders leave one #E in the Hasse interval.
RESIDUE_COUNT_MAX = 229
# Points tried before Shanks-Mestre gives up; generic curves need one or two.
MESTRE_MAX_POINTS = 64
# Past this p the curve side refuses before counting: Shanks-Mestre grows as
# p^(1/4).  trace_frobenius at the largest prime below it (best of 3, CPython
# 3.11.7, 2 shared vCPUs) takes 0.26 s on y^2 = x^3 - x, x^3 + 1 and
# x^3 - x + 1, and on two Legendre models with full 2-torsion; 0.10 s at
# p ~ 10^16 and 0.013 s at p ~ 10^12.
_SHANKS_MESTRE_MAX = 2**58
# The first 13 primes: Miller-Rabin on these bases is exact below
# MILLER_RABIN_BOUND (Sorenson-Webster 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
# Past this floor on the bits of the operator side's integers,
# max(order, 1) * p * floor(log2 ||A||), it refuses before tr(A^p).
_OPERATOR_BITS_CAP = 2**20
# Past this cost of compare_local's report (_report_cost), compare_local and
# operator_local_zeta_counts refuse before any count.  Time of compare_local
# at the largest admitted order (y^2 = x^3 - x + 1, best of 3, CPython
# 3.11.7, 2 shared vCPUs):
#   A             1      1        1  2,1;1,1  2,1;1,1  2,1;1,1  2,1;1,1  5,2;2,1
#   p             7  10^6+3 10^12+39       7      101     1009    16381     1009
#   order     21403    8289     5861   14057     3448      490       44      252
#   s          0.24    0.22     0.31    0.20     0.27     0.23     0.18     0.18
_REPORT_COST_CAP = 2**38
# Past this size of curve_local_zeta's series, order^2 * p.bit_length() (about
# twice the bits of its coefficients: the k-th has k * log2 p bits and takes k
# products), it refuses before the series.  Time at the largest admitted order
# (y^2 = x^3 - x + 1, best of 3, CPython 3.11, 2 shared vCPUs):
#   p         3      5    1009   65537   10^6+3   10^9+7   10^12+39
#   order  1024    836     457     351      323      264        228
#   s      0.25   0.21    0.25    0.21     0.23     0.21       0.22
_SERIES_BITS_CAP = 2**21
# Past this size of count_points' recurrence, n^2 * p.bit_length() (its k-th
# step takes linear products on k * log2 p bits), it refuses before counting.
# Time at the largest admitted n (y^2 = x^3 - x + 1, best of 3, CPython 3.11,
# 2 shared vCPUs):
#   p         3      5    1009   65537   10^6+3   10^9+7   10^12+39
#   n     32768  26754   14654   11239    10362     8460       7327
#   s      0.14   0.14    0.16    0.15     0.16     0.18       0.25
_COUNT_BITS_CAP = 2**31


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
    m = exact_int(m)
    if m >= MILLER_RABIN_BOUND:
        raise BudgetExceeded(
            f"{int_text(m)} is at or above {MILLER_RABIN_BOUND}, where Miller-Rabin on "
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


def _prime(p) -> int:
    """exact_int(p), refused with ValueError unless prime; private helpers
    take the int it returns."""
    p = exact_int(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _check_good_odd_prime(e, p) -> int:
    """_prime(p), refused also at 2, where p divides e's discriminant, and
    past _SHANKS_MESTRE_MAX with BudgetExceeded: every curve-side entry takes
    p through here before it counts."""
    p = _prime(p)
    if p == 2:
        raise UnsupportedCharacteristic("p = 2 is not supported on the curve side")
    if e.disc % p == 0:
        raise BadReduction(f"p = {p} divides the discriminant {int_text(e.disc)}")
    if p > _SHANKS_MESTRE_MAX:
        raise BudgetExceeded(f"p = {p} is past 2^58, where #E(F_p) is no longer counted")
    return p


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

    Baby steps j * point, j = 1..s, either meet a point of order 2 or a
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


def count_points_enumerated(e, p: int, n: int) -> int:
    """#E(F_{p^n}) by direct enumeration over F_p[x] modulo the first monic
    irreducible of degree n, found by trial division.

    The test oracle for count_points; p^n is capped at ENUMERATION_MAX.
    """
    n = exact_int_at_least(n, 1, "extension degree")
    p = _check_good_odd_prime(e, p)
    # p >= 3 > 2, so from n = ENUMERATION_MAX.bit_length() on p^n passes the
    # cap, and only a smaller n has p^n formed
    if n >= ENUMERATION_MAX.bit_length() or p**n > ENUMERATION_MAX:
        raise ValueError(f"p^n = {p}^{n} exceeds the enumeration cap {ENUMERATION_MAX}")
    if n == 1:
        return _count_points_prime_field(e, p)

    def rem(u, monic):
        """u modulo the monic polynomial, coefficients mod p, as a tuple."""
        u = [c % p for c in u]
        k = len(monic) - 1
        for i in range(len(u) - 1, k - 1, -1):
            c = u[i]
            if c:
                for j in range(k + 1):
                    u[i - k + j] = (u[i - k + j] - c * monic[j]) % p
        return tuple(u[:k])

    for low in itertools.product(range(p), repeat=n):
        modulus = low + (1,)
        if all(any(rem(modulus, g + (1,))) for d in range(1, n // 2 + 1)
               for g in itertools.product(range(p), repeat=d)):
            break
    else:
        raise RuntimeError("an irreducible polynomial of every degree exists")

    def mul(u, v):
        conv = [0] * (2 * n - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    conv[i + j] += a * b
        return rem(conv, modulus)

    sq_count: dict = {}
    for z in itertools.product(range(p), repeat=n):
        w = mul(z, z)
        sq_count[w] = sq_count.get(w, 0) + 1
    affine = 0
    for x in itertools.product(range(p), repeat=n):
        fx = [c + e.a * xi for c, xi in zip(mul(x, mul(x, x)), x)]
        fx[0] += e.b
        affine += sq_count.get(rem(fx, modulus), 0)
    return affine + 1


def trace_frobenius(e, p: int) -> int:
    """a_p = p + 1 - #E(F_p); a count breaking Hasse's a_p^2 <= 4p raises."""
    return _trace_frobenius(e, _check_good_odd_prime(e, p))


def _trace_frobenius(e, p: int) -> int:
    """trace_frobenius at a checked p, from a residue count of #E(F_p) for
    p <= RESIDUE_COUNT_MAX and a Shanks-Mestre count above."""
    if p <= RESIDUE_COUNT_MAX:
        a_p = p + 1 - _count_points_prime_field(e, p)
    else:
        a_p = p + 1 - _count_points_shanks_mestre(e, p)
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

    #E(F_p) is a residue count for p <= RESIDUE_COUNT_MAX and a Shanks-Mestre
    baby-step giant-step count above, held to Hasse's bound; every n follows
    from a_p by the trace recurrence, which keeps its last two terms and
    builds no list of counts; past n^2 * p.bit_length() = 2^31 it raises
    BudgetExceeded before the count.  The tests hold it to the residue count
    and to count_points_enumerated.
    """
    n = exact_int_at_least(n, 1, "extension degree")
    p = _check_good_odd_prime(e, p)
    if (size := n * n * p.bit_length()) > _COUNT_BITS_CAP:
        raise BudgetExceeded(
            f"at p = {p} and n = {n}, n^2 * p.bit_length() = {size} is past 2^31"
        )
    for count in _curve_counts(_trace_frobenius(e, p), p, n):
        pass
    return count


class ZetaSeries(Record):
    """Curve-side local zeta to order N, by two routes that must agree.

    exp_coefficients come from exp(sum #E(F_{p^n}) z^n / n) in integers,
    each division checked exact; closed_coefficients expand
    (1 - a_p z + p z^2) / ((1 - z)(1 - p z)).
    """

    prime: int
    a_p: int
    exp_coefficients: tuple
    closed_coefficients: tuple
    numerator: tuple
    denominator: tuple


def _local_factor(a_p: int, p: int) -> tuple:
    """(1 - a_p z + p z^2) / ((1 - z)(1 - p z)) as two tuples, constant first."""
    return (1, -a_p, p), (1, -(1 + p), p)


def curve_local_zeta(e, p: int, order: int) -> ZetaSeries:
    """Local zeta series of the curve at p, to the given order."""
    order = exact_int_at_least(order, 0, "order")
    p = _check_good_odd_prime(e, p)
    if (size := order * order * p.bit_length()) > _SERIES_BITS_CAP:
        raise BudgetExceeded(
            f"at p = {p} and order {order}, order^2 * p.bit_length() = {size} "
            "is past 2^21"
        )
    a_p = _trace_frobenius(e, p)
    counts = list(_curve_counts(a_p, p, order))
    exp_coeffs = [1]
    for k in range(1, order + 1):
        total = sum(counts[j - 1] * exp_coeffs[k - j] for j in range(1, k + 1))
        if total % k:
            break  # not an integer, so the check below fails on the length
        exp_coeffs.append(total // k)
    numerator, denominator = _local_factor(a_p, p)
    # 1/((1 - z)(1 - p z)) = sum of (p^(k+1) - 1)/(p - 1) z^k
    geom = [(p ** (k + 1) - 1) // (p - 1) for k in range(order + 1)]
    closed = tuple(
        sum(c * geom[k - i] for i, c in enumerate(numerator[: k + 1]))
        for k in range(order + 1)
    )
    if tuple(exp_coeffs) != closed:
        raise RuntimeError(f"exp and closed zeta coefficients differ at p = {p}")
    return ZetaSeries(p, a_p, tuple(exp_coeffs), closed, numerator, denominator)


def _is_bad_prime(a: IncidenceMatrix, p: int) -> bool:
    """True when the prime p divides tr(A)^2 - 4 (the degenerate operator branch)."""
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
    return list(_operator_side(a, _prime(p), order, alpha)[0])


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


def local_bits_bound(a: IncidenceMatrix, p: int, order: int) -> int:
    """A bound on the bits of every integer in compare_local(e, a, p, order).
    |tr(A^p)| <= T = n * ||A||^p, ||A|| the largest row sum; R = T + p + 1
    bounds the roots of x^2 - tr(A^p) x + p and the Frobenius roots, so each
    count at k <= order is at most 4 R^k.  Past 2^20 bits the operator
    side's floor is returned instead, and ||A||^p is not formed."""
    p = _prime(p)
    order = exact_int_at_least(order, 0, "order")
    floor_bits, norm = _operator_floor(a, p, order)
    if floor_bits > _OPERATOR_BITS_CAP:
        return floor_bits
    return 2 + max(order, 1) * (a.n * norm**p + p + 1).bit_length()


def _operator_floor(a: IncidenceMatrix, p: int, order: int) -> tuple:
    """max(order, 1) * p * floor(log2 ||A||), a floor on the bits of the
    operator side's integers that is O(n^2) to take, and ||A||, the largest
    row sum of |entries|."""
    norm = max(sum(map(abs, row)) for row in a.m.rows)
    return max(order, 1) * p * (norm.bit_length() - 1), norm


def _report_cost(p: int, order: int, floor_bits: int) -> int:
    """order^2 * (2 * p.bit_length() + w) * (100 + min(w, 8192)), the cost
    of both count sequences to order, w = p * floor(log2 ||A||) the operator
    floor's bits an order.  The n-th count on each side has about n *
    p.bit_length() bits, and n * w more on the operator side, whose step
    multiplies it by tr(A^p) of about w bits: at a fixed report size its
    time grows like 100 + w until w = 8192, then more slowly (Karatsuba)."""
    w = floor_bits // max(order, 1)
    return order * order * (2 * p.bit_length() + w) * (100 + min(w, 8192))


def _operator_side(a: IncidenceMatrix, p: int, order: int, alpha) -> tuple:
    """Operator counts for n = 1..order and the OperatorParams that made them,
    at a checked p; the branch is decided, alpha refused and the size bounded
    before tr(A^p), on _operator_floor and _report_cost, so ||A||^p is not
    formed on this path."""
    order = exact_int_at_least(order, 0, "order")
    alpha = alpha if alpha is None else exact_int(alpha)
    bad = _is_bad_prime(a, p)
    if bad and alpha is None:
        raise AlphaRequired(
            f"p = {p} divides tr(A)^2 - 4; choose alpha in {{-1, 0, 1}}"
        )
    if bad and alpha not in (-1, 0, 1):
        raise ValueError("alpha must be -1, 0, or 1")
    floor_bits, _ = _operator_floor(a, p, order)
    if floor_bits > _OPERATOR_BITS_CAP:
        raise BudgetExceeded(
            f"at p = {p} and order {order}, max(order, 1) * p * floor(log2 ||A||)"
            f" = {floor_bits} bits is past 2^20"
        )
    if (cost := _report_cost(p, order, floor_bits)) > _REPORT_COST_CAP:
        raise BudgetExceeded(
            f"at p = {p} and order {order}, the report's cost order^2 * (2 * "
            f"p.bit_length() + w) * (100 + min(w, 8192)) = {cost}, w = p * "
            f"floor(log2 ||A||), is past 2^38"
        )
    tr_ap = trace_power(a.m, p)
    if bad:
        counts = tuple(abs(1 - alpha**n) for n in range(1, order + 1))
        return counts, OperatorParams(trace_power=tr_ap, branch="bad", alpha=alpha)
    counts = tuple(abs(c) for c in _curve_counts(tr_ap, p, order))
    return counts, OperatorParams(trace_power=tr_ap, branch="good", alpha=None)


def compare_local(
    e, a: IncidenceMatrix, p: int, order: int, alpha: int | None = None
) -> LocalZetaReport:
    """Assemble both local sequences at p with per-n equality flags; the
    operator side, which bounds the report's size, runs first."""
    p = _check_good_odd_prime(e, p)  # first: a bad p outranks a bad order
    operator_counts, operator_params = _operator_side(a, p, order, alpha)
    a_p = _trace_frobenius(e, p)
    curve_counts = tuple(_curve_counts(a_p, p, order))
    return LocalZetaReport(
        prime=p,
        curve_counts=curve_counts,
        a_p=a_p,
        curve_factor=CurveFactor(*_local_factor(a_p, p)),
        operator_counts=operator_counts,
        operator_params=operator_params,
        match_flags=tuple(c == o for c, o in zip(curve_counts, operator_counts)),
    )
