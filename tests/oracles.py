"""Arithmetic that only the tests' oracles need, on the package's value types
but not part of them."""

from math import prod

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
