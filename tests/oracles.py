"""Arithmetic that only the tests' oracles need, on the package's value types
but not part of them."""

from math import gcd, prod

from afcurves.elliptic import CurveQ, Point, add_points
from afcurves.exact_linalg import IntMatrix, IntPolynomial, determinantal_divisors


def poly_mul(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p * q by the schoolbook convolution of the coefficients."""
    out = [0] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return IntPolynomial(out)  # trailing zeros stripped, () for a zero factor


def mat_sum(matrices, n: int) -> IntMatrix:
    """The entrywise sum of n x n matrices; the zero matrix when there are none."""
    total = [[0] * n for _ in range(n)]
    for m in matrices:
        total = [[x + y for x, y in zip(r, s)] for r, s in zip(total, m.rows)]
    return IntMatrix(total)


def diagonal_from_minors(m: IntMatrix) -> tuple:
    """The Smith diagonal read off determinantal_divisors: d_k = D_k / D_(k-1),
    with D_0 = 1, while D_k != 0; zeros from the first D_k = 0 on."""
    d, previous = [], 1
    for divisor in determinantal_divisors(m):
        d.append(divisor // previous if divisor else 0)
        previous = divisor
    return tuple(d)


def smith_chain_matches(d, det: int) -> bool:
    """The Smith-chain rule as a padded copy and comprehensions: d is its
    nonzero entries followed by zeros, those entries are >= 1 and each
    divides the next, and prod(d) == |det|, or d ends in 0 when det == 0."""
    nonzero = [x for x in d if x != 0]
    return (
        list(d) == nonzero + [0] * (len(d) - len(nonzero))
        and all(x >= 1 for x in nonzero)
        and all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        and (prod(d) == abs(det) if det else d[-1] == 0)
    )


def trace_discriminant_mod(m: IntMatrix, p: int) -> int:
    """(tr(m)^2 - 4) mod p: 0 exactly where p takes the operator side's
    degenerate branch."""
    t = sum(m.rows[i][i] for i in range(m.n))
    return (t * t - 4) % p


def det_and_rank_mod(rows, q: int) -> tuple:
    """(det mod q, rank over F_q) of a square integer matrix given as rows,
    by one Gaussian elimination over F_q, q prime; it shares no code with
    the package."""
    a = [[x % q for x in row] for row in rows]
    n, det, rank = len(a), 1, 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if a[r][col]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        det = det * a[rank][col] % q
        inverse = pow(a[rank][col], -1, q)
        for r in range(rank + 1, n):
            factor = a[r][col] * inverse % q
            if factor:
                a[r] = [(x - factor * y) % q for x, y in zip(a[r], a[rank])]
        rank += 1
    return det % q, rank


def is_strictly_positive(m: IntMatrix) -> bool:
    """Every entry of m is >= 1."""
    return all(a >= 1 for row in m.rows for a in row)


def block_product(period) -> IntMatrix:
    """The product of the blocks [[a, 1], [1, 0]] over period, one matrix
    product a quotient, squared when it is not yet strictly positive: the
    oracle for contfrac.incidence_from_period."""
    m = IntMatrix.identity(2)
    for a in period:
        m = m @ IntMatrix([[a, 1], [1, 0]])
    return m if is_strictly_positive(m) else m @ m


def order_up_to(e: CurveQ, p: Point):
    """The order of p if at most 12, else None, by adding p to its last
    multiple in Fractions through the public add_points, which checks both
    points on e at each addition; a multiple that leaves Z^2 proves p of
    infinite order.  The oracle for elliptic._order_up_to."""
    acc = p
    for k in range(2, 13):
        acc = add_points(e, acc, p)
        if acc.is_infinity:
            return k
        if acc.x.denominator != 1 or acc.y.denominator != 1:
            return None
    return None


def bareiss_one_column(rows) -> tuple:
    """(r, N, g) as exact_linalg._bareiss gives them, by its one column a
    pass form: each pivot step takes every row below it once, over the pivot
    before.  The oracle for the two-column passes, which must give the same
    pivots and so the same triple."""
    n = len(rows)
    a = [list(row) for row in rows]
    k, sign, prev = 0, 1, 1
    g = gcd(*rows[0], *rows[1]) if n == 2 else 1
    for c in range(n):
        top = a[k]
        if c == n - 3 and k == c:
            x0, x1, x2 = top[c:]
            y0, y1, y2 = a[c + 1][c:]
            z0, z1, z2 = a[c + 2][c:]
            g = gcd(
                x0 * y1 - x1 * y0, x0 * y2 - x2 * y0, x1 * y2 - x2 * y1,
                x0 * z1 - x1 * z0, x0 * z2 - x2 * z0, x1 * z2 - x2 * z1,
                y0 * z1 - y1 * z0, y0 * z2 - y2 * z0, y1 * z2 - y2 * z1,
            ) // abs(prev)
        if not top[c]:
            for r in range(k + 1, n):
                if a[r][c]:
                    a[k], a[r] = a[r], top
                    top = a[k]
                    sign = -sign
                    break
            else:
                continue  # a zero column below row k: no pivot
        p = top[c]
        for i in range(k + 1, n):
            row = a[i]
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
        k += 1
    return k, sign * prev, g


def det_mod_q_one_column(rows, q: int) -> int:
    """det mod q of the square rows, q prime, as exact_linalg._det_mod_q
    gives it, by its one column a pass form: entries reduced where read, a
    pivot nonzero mod q swapped up, each row below adding f = -its entry /
    pivot times the pivot row.  The oracle for the two-column passes."""
    a = [list(row) for row in rows]
    n = len(a)
    det = 1
    for k in range(n - 1):
        top = a[k]
        if not top[k] % q:
            for r in range(k + 1, n):
                if a[r][k] % q:
                    a[k], a[r] = a[r], top
                    top = a[k]
                    det = q - det  # det is a nonzero residue here
                    break
            else:
                return 0
        pivot = top[k] % q
        det = det * pivot % q
        neg_inv = q - pow(pivot, -1, q)
        for i in range(k + 1, n):
            row = a[i]
            f = row[k] * neg_inv % q
            if f:
                for j in range(k + 1, n):
                    row[j] = (row[j] + f * top[j]) % q
    return det * a[-1][-1] % q
