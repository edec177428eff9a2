"""Exact integer matrix arithmetic: Smith normal form, fraction-free
determinants, polynomial evaluation at a matrix, and a seeded GL_n(Z)
generator of (B, B^-1) pairs.

One elimination gives the Smith form two ways.  smith_diagonal returns the
diagonal alone, checked against the Bareiss determinant (prod(d) = |det|, or
a trailing 0 when det = 0); it is what invariants read.  snf also mirrors
every step into unimodular transforms P, Q and verifies the certificate
P * M * Q = diag(d); the `snf` command and unimodular_inverse use it.

Everything runs on Python's arbitrary-precision integers; there is no
floating point and no entry-size limit anywhere in this module.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from math import gcd, prod


class MatrixParseError(ValueError):
    """Malformed matrix or polynomial text; carries the offending position."""


class IntMatrix:
    """Dense square matrix of exact integers, immutable after construction.

    Entries must be integers (anything `operator.index` accepts); a float or
    Fraction raises TypeError instead of being truncated.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(map(operator.index, row)) for row in rows)
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must have dimension >= 1")
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, diag) -> "IntMatrix":
        diag = list(diag)
        n = len(diag)
        return cls([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        ot = list(zip(*other.rows))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.rows]
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in r] for r in self.rows])

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def is_strictly_positive(self) -> bool:
        return all(a >= 1 for row in self.rows for a in row)

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for row in self.rows for a in row)

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        return IntMatrix([[self.rows[i][j] for j in col_idx] for i in row_idx])


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients stored constant-first.

    coeffs[k] is the coefficient of x^k; trailing zeros are stripped so the
    leading coefficient is nonzero except for the zero polynomial ().  A
    non-integer coefficient raises TypeError.
    """

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = list(map(operator.index, coeffs))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                xk = "x" if k == 1 else f"x^{k}"
                body = xk if abs(c) == 1 else f"{abs(c)}*{xk}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)


@dataclass(frozen=True)
class SmithDecomposition:
    """Certificate D = P * M * Q with P, Q unimodular and D = diag(d).

    The nonzero diagonal entries come first, each is positive, and each
    divides the next; trailing entries are zero.
    """

    d: tuple
    p_left: IntMatrix
    q_right: IntMatrix

    def diag_matrix(self) -> IntMatrix:
        return IntMatrix.diagonal(self.d)

    def verify(self, m: IntMatrix) -> bool:
        if (self.p_left @ m) @ self.q_right != self.diag_matrix():
            return False
        if not (is_unimodular(self.p_left) and is_unimodular(self.q_right)):
            return False
        return _is_smith_chain(self.d)


def _is_smith_chain(d) -> bool:
    """Nonzero entries first, each positive and dividing the next; then zeros."""
    nonzero = [x for x in d if x != 0]
    if list(d) != nonzero + [0] * (len(d) - len(nonzero)):
        return False
    if any(x < 1 for x in nonzero):
        return False
    return all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def snf(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: returns (d, P, Q) with PMQ = diag(d).

    Runs the elimination and chain fold of smith_diagonal with every row step
    mirrored into P and every column step into Q, then verifies the
    certificate P * M * Q == diag(d).
    """
    n = m.n
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    q = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    d = _diagonalize([list(row) for row in m.rows], p, q)
    _fold_chain(d, p, q)
    result = SmithDecomposition(tuple(d), IntMatrix(p), IntMatrix(q))
    if not result.verify(m):
        raise RuntimeError("Smith form certificate P*M*Q == diag(d) failed to verify")
    return result


def smith_diagonal(m: IntMatrix) -> tuple:
    """Smith diagonal of m, without the transforms P and Q.

    The same elimination and chain fold as snf, with nothing mirrored.  The
    result is checked against an independent Bareiss determinant: the product
    of the diagonal is |det(m)| when det(m) != 0, and the diagonal ends in a
    zero when det(m) == 0.
    """
    d = _diagonalize([list(row) for row in m.rows])
    _fold_chain(d)
    det = determinant(m)
    consistent = prod(d) == abs(det) if det else d[-1] == 0
    if not (consistent and _is_smith_chain(d)):
        raise RuntimeError("Smith diagonal failed the prod(d) == |det(m)| check")
    return tuple(d)


def _diagonalize(a, p=None, q=None) -> list:
    """Reduce the rows a of a square matrix to diagonal form in place.

    Pivoting picks the nonzero entry of least absolute value in the working
    submatrix, which keeps intermediate entries small.  Each row step on a is
    mirrored into p, and each column step into q, when they are given.
    Returns the diagonal: positive entries, then zeros.
    """
    n = len(a)
    for t in range(n):
        while True:
            pivot = None
            best = 0
            for i in range(t, n):
                row = a[i]
                for j in range(t, n):
                    v = row[j]
                    if v:
                        if v < 0:
                            v = -v
                        if best == 0 or v < best:
                            pivot, best = (i, j), v
                if best == 1:
                    break  # no entry is smaller
            if pivot is None:
                return [a[i][i] for i in range(n)]  # remaining block is zero
            # rows above t are zero from column t on, so column steps skip them
            i, j = pivot
            if i != t:
                a[t], a[i] = a[i], a[t]
                if p is not None:
                    p[t], p[i] = p[i], p[t]
            cols = a[t:] if q is None else a[t:] + q
            if j != t:
                for row in cols:
                    row[t], row[j] = row[j], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                if p is not None:
                    p[t] = [-x for x in p[t]]
            pivot_row = a[t]
            lead = pivot_row[t]
            for r in range(t + 1, n):
                if a[r][t] != 0:
                    k = -(a[r][t] // lead)
                    a[r] = [x + k * y for x, y in zip(a[r], pivot_row)]
                    if p is not None:
                        p[r] = [x + k * y for x, y in zip(p[r], p[t])]
            cols = a[t:] if q is None else a[t:] + q
            for c in range(t + 1, n):
                if pivot_row[c] != 0:
                    k = -(pivot_row[c] // lead)
                    for row in cols:
                        row[c] += k * row[t]
            if not any(pivot_row[t + 1:]) and not any(a[r][t] for r in range(t + 1, n)):
                break
    return [a[i][i] for i in range(n)]


def _fold_chain(d, p=None, q=None) -> None:
    """Make the nonzero prefix of d a divisibility chain, in place.

    Each offending adjacent pair (x, y) is folded into (gcd, lcm).  With p and
    q the fold is mirrored by the unimodular 2x2 transforms P2, Q2 with
    P2 * diag(x, y) * Q2 = diag(gcd, lcm).
    """
    rank = sum(1 for x in d if x != 0)
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            x, y = d[i], d[i + 1]
            if y % x != 0:
                changed = True
                g = gcd(x, y)
                d[i], d[i + 1] = g, x // g * y
                if p is not None:
                    # Bezout u*x + v*y = g
                    u, v = _bezout(x, y)
                    _apply_2x2_left(p, i, ((u, v), (-(y // g), x // g)))
                    _apply_2x2_right(q, i, ((1, -(v * y) // g), (1, (u * x) // g)))


def _bezout(x: int, y: int):
    """u, v with u*x + v*y = gcd(x, y)."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _apply_2x2_left(mat, i, m2):
    """Rows i, i + 1 of mat <- m2 * those rows."""
    ri, rj = mat[i], mat[i + 1]
    mat[i] = [m2[0][0] * x + m2[0][1] * y for x, y in zip(ri, rj)]
    mat[i + 1] = [m2[1][0] * x + m2[1][1] * y for x, y in zip(ri, rj)]


def _apply_2x2_right(mat, i, m2):
    """Columns i, i + 1 of mat <- those columns * m2."""
    for row in mat:
        ci, cj = row[i], row[i + 1]
        row[i] = ci * m2[0][0] + cj * m2[1][0]
        row[i + 1] = ci * m2[0][1] + cj * m2[1][1]


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = m.n
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: IntMatrix) -> bool:
    return abs(determinant(m)) == 1


def mat_pow(m: IntMatrix, k: int) -> IntMatrix:
    """Exact m**k for k >= 0 by binary exponentiation; m**0 is the identity."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    result = IntMatrix.identity(m.n)
    base = m
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def mat_poly_eval(p: IntPolynomial, m: IntMatrix) -> IntMatrix:
    """Horner evaluation p(m); the constant term contributes p(0) * I."""
    n = m.n
    if not p.coeffs:
        return IntMatrix.zero(n)
    acc = IntMatrix.diagonal([p.coeffs[-1]] * n)
    for c in reversed(p.coeffs[:-1]):
        acc = acc @ m + IntMatrix.diagonal([c] * n)
    return acc


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix, read off its Smith certificate.

    For |det(m)| = 1 every elementary divisor is 1, so P * m * Q = I and
    m^-1 = Q * P.
    """
    dec = snf(m)
    if any(x != 1 for x in dec.d):
        raise ValueError("matrix is not unimodular")
    inv = dec.q_right @ dec.p_left
    if inv @ m != IntMatrix.identity(m.n):
        raise RuntimeError("Smith inverse failed inv @ m == I")
    return inv


def determinantal_divisors(m: IntMatrix) -> list:
    """gcd of all k x k minors, for k = 1..n (0 where every minor vanishes).

    Independent oracle for snf: with D_0 = 1, the Smith diagonal satisfies
    d_k = D_k / D_{k-1} along the nonzero prefix.  Minor enumeration is
    exponential, so this is for small n only.
    """
    n = m.n
    out = []
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                g = gcd(g, determinant(m.submatrix(rows, cols)))
        out.append(g)
    return out


def random_glnz(n: int, steps: int = 20, seed: int = 0) -> tuple:
    """Seeded (B, B^-1), B a product of `steps` random elementary matrices.

    Row swaps, negations, and additions with |k| <= 3 build B; each row step
    E on B is mirrored by the column step E^-1 on B^-1.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [row[:] for row in b]
    for _ in range(steps):
        op = rng.randrange(3) if n > 1 else 1
        if op == 0:
            i, j = rng.sample(range(n), 2)
            b[i], b[j] = b[j], b[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        elif op == 1:
            i = rng.randrange(n)
            b[i] = [-x for x in b[i]]
            for row in inv:
                row[i] = -row[i]
        else:
            i, j = rng.sample(range(n), 2)
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            b[i] = [x + k * y for x, y in zip(b[i], b[j])]
            for row in inv:
                row[j] -= k * row[i]
    b, inv = IntMatrix(b), IntMatrix(inv)
    if b @ inv != IntMatrix.identity(n):
        raise RuntimeError("replayed inverse failed B @ B^-1 == I")
    return b, inv


# ---------------------------------------------------------------------------
# text formats shared by the CLI and test fixtures:
# matrices as `5,2;2,1`, polynomials constant-first as `-1,1`


def parse_matrix(text: str) -> IntMatrix:
    rows = []
    for i, row_text in enumerate(text.strip().split(";")):
        row = []
        for j, cell in enumerate(row_text.split(",")):
            try:
                row.append(int(cell.strip()))
            except ValueError:
                raise MatrixParseError(
                    f"bad integer {cell.strip()!r} at row {i + 1}, column {j + 1}"
                ) from None
        rows.append(row)
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise MatrixParseError(
                f"row {i + 1} has {len(row)} entries, expected {width}"
            )
    if len(rows) != width:
        raise MatrixParseError(f"matrix is {len(rows)}x{width}, expected square")
    return IntMatrix(rows)


def format_matrix(m: IntMatrix) -> str:
    return ";".join(",".join(str(x) for x in row) for row in m.rows)


def parse_poly(text: str) -> IntPolynomial:
    coeffs = []
    for j, cell in enumerate(text.strip().split(",")):
        try:
            coeffs.append(int(cell.strip()))
        except ValueError:
            raise MatrixParseError(
                f"bad coefficient {cell.strip()!r} at position {j + 1}"
            ) from None
    return IntPolynomial(coeffs)


def format_poly(p: IntPolynomial) -> str:
    if not p.coeffs:
        return "0"
    return ",".join(str(c) for c in p.coeffs)
