"""Exact integer matrix arithmetic: Smith normal form, fraction-free
determinants, polynomial evaluation at a matrix, and a seeded GL_n(Z)
generator of (B, B^-1) pairs for tests; _moves applies its elementary moves,
and the invariance probe conjugates A in place with the same applier.

snf gives the Smith form with its transforms, read off _smith, which serves
it alone (snf's docstring gives how), and verifies the certificate
P * M * Q = diag(d).  The `snf` command and unimodular_inverse use it.

smith_diagonal gives the diagonal alone; it is what invariants read.  One
_bareiss pass gives the rank r of M, its last pivot N (+-an r-minor, det M
when r = n) and g, the gcd of four (n-1)-minors in Bareiss's last 2 x 2
block (Sylvester's identity).  For r = n, d_1 ... d_(n-1) = D_(n-1), the
gcd of the (n-1)-minors, so every d_i with i < n divides h = gcd(g, N),
_smith_mod reads them off M over Z/hZ, where every entry stays below h, and
d_n = |N| / (d_1 ... d_(n-1)); h is 1 for most dense M, which then take no
elimination.  For r < n, d_(r+1..n) = 0 and each other d_i divides D_r,
which divides N, so the first r entries of _smith_mod's chain of
gcd(d_i, |N|) are d_1..d_r.  smith_diagonal, mat_poly_eval and IntMatrix @
wrap _smith_diagonal, _poly_eval_rows and _matmul_rows on plain lists of
rows, which the invariance probe calls directly, so its trials build no records.

d is checked by one rule against the Bareiss determinant of M on every
route: a Smith chain with prod(d) = |det M|, or ending in 0 when det M = 0.
When det M != 0 this proves P and Q unimodular (det P * det M * det Q =
+-det M, so the integers det P, det Q are +-1); only a singular M has them
taken.  The mod-h route sets d_n from N, so that rule cannot see a wrong N;
smith_diagonal also holds det M mod a fixed prime to +-prod(d).  That
residue comes from _det_mod_q, an in-place elimination over F_q that shares
no code with _bareiss or _smith_mod.

trace_power gives tr(M^k) without forming M^k.  The route is read off n:
a 2 x 2 M, every incidence matrix of a continued-fraction period, takes a
Lucas ladder on V_k(tr M, det M), one squaring and one product a bit; every
other n reduces x^k modulo the characteristic polynomial (Cayley-Hamilton),
in O(n^2 log k) big-integer products.  Past _TRACE_BITS_CAP on
k * floor(log2 ||M||), a bound on the bits of the result, it raises
BudgetExceeded before either route.

Record, the frozen base of the package's value types, reads its fields from
the class annotations and generates no code (no dataclasses).  AbelianGroup
is the form of the AF invariant and of a curve's torsion alike, so the curve
modules take it from here.  Value types take their integers through
exact_int or exact_ints, and entry points their integer arguments through
exact_int or exact_int_at_least: one rule for an integer.
A refusal message names a computed integer through int_text, which gives
its bit length where the interpreter's digit limit refuses str().

Everything runs on Python's arbitrary-precision integers; there is no
floating point and no entry-size limit anywhere in this module; trace_power's
is its one work limit.
"""

from __future__ import annotations

import itertools
import operator
import random
from math import gcd, prod


class MatrixParseError(ValueError):
    """Bad matrix, polynomial or integer-list text; names the token and position."""


class BudgetExceeded(ValueError):
    """The input is past the size this library decides exactly."""


class Record:
    """Frozen record whose fields, _fields, are the subclass's annotations.

    The generic __init__ takes them by position or keyword, a class attribute
    of the same name being the default, then calls __post_init__ (which sets
    through object.__setattr__).  ==, hash and repr go by the field values.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__annotations__)  # after any inherited fields

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments")
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name not in kwargs and not hasattr(cls, name):  # no default
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            values[name] = kwargs.pop(name) if name in kwargs else getattr(cls, name)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated {[*kwargs]}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


def exact_int(value) -> int:
    """operator.index(value), the package's one rule for an exact integer: a
    float or Fraction raises TypeError rather than truncate, and so does a
    bool (a JSON true, say) rather than pass as 1 or 0."""
    if type(value) is bool:
        raise TypeError(f"bool {value!r} is not an integer")
    return operator.index(value)


def exact_int_at_least(value, low: int, name: str) -> int:
    """exact_int(value); below `low` it raises ValueError naming the argument."""
    if (value := exact_int(value)) < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


def int_text(n: int) -> str:
    """n as a refusal message names it: str(n) where int-to-str conversion
    takes it, and its sign and bit length past the interpreter's digit limit,
    so that naming a computed integer never raises an error of its own."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


def exact_ints(values) -> tuple:
    """exact_int of each value, as a tuple: one C-level scan of the types
    passes values that are all exactly int; any other set takes exact_int."""
    values = tuple(values)
    if not {int}.issuperset(map(type, values)):
        values = tuple(map(exact_int, values))
    return values


class IntMatrix(Record):
    """Dense square matrix of exact integers, immutable after construction.

    Entries pass exact_int, or raise TypeError.
    """

    rows: tuple
    n: int  # set from rows, not an argument

    def __init__(self, rows):
        rows = tuple(map(exact_ints, rows))
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must have dimension >= 1")
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag) -> "IntMatrix":
        diag = list(diag)
        n = len(diag)
        return cls([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return IntMatrix(_matmul_rows(self.rows, other.rows))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for row in self.rows for a in row)


class IntPolynomial(Record):
    """Integer polynomial, coefficients stored constant-first.

    coeffs[k] is the coefficient of x^k; trailing zeros are stripped so the
    leading coefficient is nonzero except for the zero polynomial ().  Each
    coefficient passes exact_int, or raises TypeError.
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = list(exact_ints(self.coeffs))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

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


class SmithDecomposition(Record):
    """Certificate D = P * M * Q with P, Q unimodular and D = diag(d).

    The nonzero diagonal entries come first, each is positive, and each
    divides the next; trailing entries are zero.
    """

    d: tuple
    p_left: IntMatrix
    q_right: IntMatrix

    def verify(self, m: IntMatrix) -> bool:
        """P * M * Q == diag(d), d passes the determinant rule against det M,
        and, for a singular M only, is_unimodular holds for P and Q."""
        if (self.p_left @ m) @ self.q_right != IntMatrix.diagonal(self.d):
            return False
        det = determinant(m)
        if not _smith_diagonal_matches(self.d, det):
            return False
        return det != 0 or (is_unimodular(self.p_left) and is_unimodular(self.q_right))


def _smith_diagonal_matches(d, det: int) -> bool:
    """d is a Smith chain (positive entries, each dividing the next, then
    zeros) with prod(d) == |det|, or, when det == 0, one that ends in 0."""
    r = len(d)
    while r and d[r - 1] == 0:
        r -= 1
    head = d[:r]  # a zero inside it fails the min
    return (
        min(head, default=1) >= 1
        and all(b % a == 0 for a, b in zip(head, head[1:]))
        and (prod(d) == abs(det) if det else d[-1] == 0)
    )


class AbelianGroup(Record):
    """Normal form of a finitely generated abelian group.

    torsion is the divisibility chain of elementary divisors (each >= 2,
    each dividing the next, factors equal to 1 dropped); free_rank counts
    the Z summands.  Structural equality of (torsion, free_rank) is group
    equality because this form is canonical.  Divisors and rank pass
    exact_int, or raise TypeError.
    """

    torsion: tuple
    free_rank: int = 0

    def __post_init__(self):
        object.__setattr__(self, "free_rank", exact_int(self.free_rank))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", exact_ints(self.torsion))
        for g in self.torsion:
            if g < 2:
                raise ValueError("elementary divisors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("elementary divisors must form a divisibility chain")

    @classmethod
    def from_smith_diagonal(cls, d) -> "AbelianGroup":
        torsion = tuple(x for x in d if x > 1)
        free_rank = sum(1 for x in d if x == 0)
        return cls(torsion, free_rank)

    def order(self):
        """Group order, or None when the group is infinite."""
        if self.free_rank > 0:
            return None
        n = 1
        for g in self.torsion:
            n *= g
        return n

    def exponent(self):
        """Largest elementary divisor (lcm of all, by the chain), 1 if free/trivial."""
        return self.torsion[-1] if self.torsion else 1

    def __str__(self):
        parts = [f"Z_{g}" for g in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "trivial"


def snf(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: returns (d, P, Q) with PMQ = diag(d).

    Reduces the bordered rows [M | I] followed by the n rows of I: row steps
    act on whole rows, so columns n..2n-1 of the top rows end as P, and
    column steps act on every row, so the trailing rows end as Q.  The
    certificate P * M * Q == diag(d) is then verified.
    """
    n = m.n
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    a = [list(row) + e for row, e in zip(m.rows, eye)] + eye
    d = _smith(a, n)
    p_left = IntMatrix(row[n:] for row in a[:n])
    result = SmithDecomposition(tuple(d), p_left, IntMatrix(a[n:]))
    if not result.verify(m):
        raise RuntimeError("Smith form certificate P*M*Q == diag(d) failed to verify")
    return result


def smith_diagonal(m: IntMatrix) -> tuple:
    """Smith diagonal of m, without the transforms P and Q, checked against
    det m; RuntimeError if a check fails.  The module docstring gives the
    route and its two checks."""
    return _smith_diagonal(m.rows)


def _smith_diagonal(rows) -> tuple:
    """smith_diagonal of the square rows, which are read, not changed; the
    invariance probe calls it on plain lists."""
    n = len(rows)
    rank, minor, g = _bareiss(rows)
    det = minor if rank == n else 0
    if det:
        d = _smith_mod(rows, gcd(g, det))[:-1]
        d.append(abs(det) // prod(d))
    else:
        d = _smith_mod(rows, abs(minor))[:rank] + [0] * (n - rank)
    r = prod(d) % _CHECK_PRIME
    if not _smith_diagonal_matches(d, det) or _det_mod_q(rows) not in (r, -r % _CHECK_PRIME):
        raise RuntimeError("Smith diagonal failed the prod(d) == |det(m)| check")
    return tuple(d)


# the largest prime below 2^30: a residue is one digit of a CPython int
_CHECK_PRIME = 2**30 - 35


def _det_mod_q(rows) -> int:
    """det mod q = _CHECK_PRIME of the square rows, by Gaussian elimination
    over F_q, in place on a reduced copy; it shares no code with _bareiss.

    Column k takes as its pivot the first row from k down whose entry there
    is nonzero, swapped up (det -> q - det); det takes the pivot, and each
    row below adds f times the pivot row, f its entry times -1/pivot, so
    every sum is of residues.  The last pivot only multiplies det: n - 1
    inverses in all.
    """
    q = _CHECK_PRIME
    a = [[x % q for x in row] for row in rows]
    n = len(a)
    det = 1
    for k in range(n - 1):
        top = a[k]
        if not top[k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], top
                    top = a[k]
                    det = q - det  # det is a nonzero residue here
                    break
            else:
                return 0
        pivot = top[k]
        det = det * pivot % q
        neg_inv = q - pow(pivot, -1, q)
        for i in range(k + 1, n):
            row = a[i]
            f = row[k] * neg_inv % q
            if f:
                for j in range(k + 1, n):
                    row[j] = (row[j] + f * top[j]) % q
    return det * a[-1][-1] % q


def _eliminate(a, i, j, modulus) -> None:
    """_smith_mod's unit step.  Pop row i and column j of the rows a, whose
    entry there is a unit mod modulus; each other row takes one
    multiply-subtract of the pivot row mod modulus, which clears its column-j
    entry, so a ends as the Schur complement."""
    top = a.pop(i)
    pivot = top.pop(j)
    inv = pow(pivot, -1, modulus)
    for r, row in enumerate(a):
        f = row.pop(j) * inv % modulus
        if f:
            a[r] = [(x - f * y) % modulus for x, y in zip(row, top)]


def _smith_mod(a, modulus) -> list:
    """Smith chain of the n x n rows a over Z/modulus Z, modulus >= 1: the
    chain of gcd(d_i, modulus) for the Smith diagonal d of a over Z.

    Z^n / (a Z^n + modulus Z^n) is the sum of the Z/gcd(d_i, modulus), and
    the steps below keep that quotient.  A unit pivot, an entry 1 when there
    is one (each row's multiplier is then its own entry), adds a 1 to the
    diagonal and leaves its Schur complement (_eliminate); the pivot row
    needs no column steps, since the column below it is clear.  Only when no
    entry is a unit does _bezout_pivot clear a cross by row and column steps.
    Each diagonal entry delta gives Z/gcd(delta, modulus), gcd(0, modulus)
    being modulus; the gcds are folded into a divisibility chain at the end
    by (x, y) -> (gcd, lcm).
    """
    n = len(a)
    if modulus == 1:
        return [1] * n
    a = [[x % modulus for x in row] for row in a]
    d = []
    while a:
        unit = next(((i, row.index(1)) for i, row in enumerate(a) if 1 in row), None)
        unit = unit or next(((i, j) for i, row in enumerate(a)
                             for j, x in enumerate(row) if gcd(x, modulus) == 1), None)
        if unit:
            _eliminate(a, *unit, modulus)
            d.append(1)
            continue
        nonzero = [(x, i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not nonzero:
            d += [modulus] * len(a)
            break
        _, i, j = min(nonzero)
        d.append(gcd(_bezout_pivot(a, i, j, modulus), modulus))
    for i in range(n):
        for j in range(i + 1, n):
            x, y = d[i], d[j]
            if y % x:
                g = gcd(x, y)
                d[i], d[j] = g, x // g * y
    return d


def _bezout_pivot(a, i, j, modulus) -> int:
    """Clear row i and column j of the rows a but for a[i][j], then pop both;
    returns the pivot.  Unimodular 2 x 2 row steps mod modulus clear column
    j; then a is transposed, which keeps its Smith form, and row i is cleared
    the same way, until a pass leaves the other line clear.  A pair (x, y)
    takes (u, v) with u*x + v*y = gcd, or (1, 0) when x | y, which leaves the
    pivot line alone (a tie's swap would refill it forever); otherwise the
    pivot falls to a proper divisor, so the refills end."""
    while True:
        for r, row in enumerate(a):
            if r != i and row[j]:
                x, y = a[i][j], row[j]
                u, v = (1, 0) if y % x == 0 else _bezout(x, y)
                g = u * x + v * y
                top, xg, yg = a[i], x // g, y // g
                a[i] = [(u * s + v * w) % modulus for s, w in zip(top, row)]
                a[r] = [(xg * w - yg * s) % modulus for s, w in zip(top, row)]
        if not any(x for c, x in enumerate(a[i]) if c != j):
            break
        a[:] = [list(col) for col in zip(*a)]
        i, j = j, i
    pivot = a.pop(i)[j]
    for row in a:
        del row[j]
    return pivot


def _smith(a, n) -> list:
    """Reduce the leading n x n block of the rows a to Smith form, in place;
    snf's reduction, which carries its transforms (smith_diagonal takes none).

    Row steps act on whole rows of a, column steps on every row below the
    current pivot (the rows above are zero in the block's remaining
    columns), so any columns past n and any rows past n carry the steps
    along.  Pivoting picks the block entry of least absolute value, which
    keeps intermediate entries small.  The diagonal is then folded into a
    divisibility chain: each offending adjacent pair (x, y) takes the
    unimodular 2x2 transforms P2, Q2 with P2 * diag(x, y) * Q2 =
    diag(gcd, lcm), so the block stays diagonal.  Returns the diagonal:
    positive entries, each dividing the next, then zeros.
    """
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
                break  # remaining block is zero
            i, j = pivot
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a[t:]:
                    row[t], row[j] = row[j], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            pivot_row = a[t]
            lead = pivot_row[t]
            tail = pivot_row[t:]  # pivot_row[:t] is zero
            for row in a[t + 1:n]:
                if row[t] != 0:
                    k = -(row[t] // lead)
                    row[t:] = [x + k * y for x, y in zip(row[t:], tail)]
            below = a[t:]
            for c in range(t + 1, n):
                if pivot_row[c] != 0:
                    k = -(pivot_row[c] // lead)
                    for row in below:
                        row[c] += k * row[t]
            if not any(pivot_row[t + 1:n]) and not any(a[r][t] for r in range(t + 1, n)):
                break
        if pivot is None:
            break
    rank = sum(1 for i in range(n) if a[i][i] != 0)
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if y % x != 0:
                changed = True
                g = gcd(x, y)
                u, v = _bezout(x, y)  # u*x + v*y = g
                xg, yg = x // g, y // g
                ri, rj = a[i], a[i + 1]
                a[i] = [u * s + v * w for s, w in zip(ri, rj)]
                a[i + 1] = [xg * w - yg * s for s, w in zip(ri, rj)]
                for row in a:
                    ci, cj = row[i], row[i + 1]
                    row[i], row[i + 1] = ci + cj, u * xg * cj - v * yg * ci
    return [a[i][i] for i in range(n)]


def _bezout(x: int, y: int):
    """u, v with u*x + v*y = gcd(x, y), for x, y >= 1: Euclid's remainders
    are then nonnegative, so the last nonzero one is the gcd, not its
    negative.  _smith passes its positive diagonal, _bezout_pivot nonzero
    residues."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    return old_s, old_t


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    rank, minor, _ = _bareiss(m.rows)
    return minor if rank == m.n else 0


def _bareiss(rows) -> tuple:
    """(r, N, g) for the square rows of m by fraction-free (Bareiss)
    elimination on a copy: the rank r of m, its last pivot N, and g.

    A column's pivot is its first nonzero entry from the next pivot row k
    down, swapped up; a column with none is skipped.  After pivots in columns
    c_1 < ... < c_k each entry a[i][j] below them is +-the (k+1)-minor of m on
    the pivot rows and row i, columns c_1..c_k and j (Sylvester's identity),
    so each division is exact and N is +-an r-minor, never 0: det m when
    r = n, 1 when r = 0.  For r = n, D_(n-1) divides g, the gcd of the four
    (n-1)-minors in the last 2 x 2 block before the last step; g is 1 for n = 1.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    k, sign, prev, g = 0, 1, 1, 1
    for c in range(n):
        top = a[k]
        if c == n - 2:
            below = a[k + 1]
            g = gcd(top[c], top[c + 1], below[c], below[c + 1])
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


def is_unimodular(m: IntMatrix) -> bool:
    return abs(determinant(m)) == 1


def mat_pow(m: IntMatrix, k: int) -> IntMatrix:
    """Exact m**k for k >= 0 by binary exponentiation; m**0 is the identity."""
    k = exact_int_at_least(k, 0, "exponent")
    result = IntMatrix.identity(m.n)
    base = m
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


# Past this bound on the bits of tr(m^k), k * floor(log2 ||m||) with ||m||
# the largest row sum of |entries|, trace_power refuses before its ladder.
# The operator side refuses first past the same floor at order 1, so every
# call from zeta passes.  Time at the largest admitted k (best of 3, CPython
# 3.11.7, 2 shared vCPUs):
#   m        5,2;2,1  2,1;1,1  1,1;1,0  3x3 ||m||=3  3x3 ||m||=120  6x6 ||m||=2
#   k         524288  1048576  1048576      1048576         174762      1048576
#   s          0.064    0.076    0.024         0.39           0.23         0.66
_TRACE_BITS_CAP = 2**20


def trace_power(m: IntMatrix, k: int) -> int:
    """Exact tr(m**k) for k >= 0; m**k is never formed.

    A 2 x 2 m (n == 2, read off m) takes a Lucas ladder: tr(m^j) is the
    Lucas sequence V_j(t, D) of t = tr m and D = det m, and the ladder
    carries (V_j, V_(j+1), D^j) down the bits of k >> 1 by
    V_2j = V_j^2 - 2 D^j and V_(2j+1) = V_j V_(j+1) - t D^j (Joye-Quisquater
    1996), one squaring and one product a bit, then ends in one of the two,
    so V_(k+1) is never formed.  Every other n takes Cayley-Hamilton: with
    chi(x) = det(xI - m), x^k mod chi = sum r_i x^i by left-to-right
    square-and-shift (n(n+1)/2 big products a squaring), so tr(m^k) =
    sum r_i tr(m^i).  Past k * floor(log2 ||m||) = 2^20, ||m|| the largest
    row sum of |entries|, which bounds the bits of the result, it raises
    BudgetExceeded before either."""
    k = exact_int_at_least(k, 0, "exponent")
    norm = max(sum(map(abs, row)) for row in m.rows)
    if (bits := k * (norm.bit_length() - 1)) > _TRACE_BITS_CAP:
        raise BudgetExceeded(
            f"tr(m^k) at k = {k}: k * floor(log2 ||m||) = {bits} is past 2^20"
        )
    n = m.n
    if n == 2:
        (a, b), (c, d) = m.rows
        t, det = a + d, a * d - b * c
        v, w, q = 2, t, 1  # V_j, V_(j+1), D^j at j = 0
        for bit in bin(k >> 1)[2:]:
            if bit == "1":  # j -> 2j + 1
                v, w, q = v * w - t * q, w * w - 2 * q * det, q * q * det
            else:  # j -> 2j
                v, w, q = v * v - 2 * q, v * w - t * q, q * q
        return v * w - t * q if k & 1 else v * v - 2 * q
    s, power = [n], IntMatrix.identity(n)
    for _ in range(n):
        power = power @ m
        s.append(power.trace())
    e = [1]  # chi's coefficients up to sign, by Newton's identities; // is exact
    for i in range(1, n + 1):
        e.append(sum((-1) ** (j - 1) * e[i - j] * s[j] for j in range(1, i + 1)) // i)
    red = [(-1) ** (n - i + 1) * e[n - i] for i in range(n)]  # x^n mod chi
    r = [1] + [0] * (n - 1)
    for bit in bin(k)[2:]:
        c = [0] * (2 * n - 1)
        for i, a in enumerate(r):
            c[2 * i] += a * a
            for j in range(i + 1, n):
                c[i + j] += (a * r[j]) << 1
        if bit == "1":
            c.insert(0, 0)
        while len(c) > n:  # x^d = x^(d-n) * sum_i red[i] x^i
            t = c.pop()
            for i, q in enumerate(red, len(c) - n):
                c[i] += t * q
        r = c
    return sum(a * b for a, b in zip(r, s))


def mat_poly_eval(p: IntPolynomial, m: IntMatrix) -> IntMatrix:
    """p(m) by Horner's rule (_poly_eval_rows on m's rows): degree d takes
    d - 1 matrix products; the constant term contributes p(0) * I."""
    return IntMatrix(_poly_eval_rows(p.coeffs, m.rows))


def _poly_eval_rows(c, rows) -> list:
    """p(m) as a list of rows, for the coefficients c of p (constant first)
    and the square rows of m: Horner's rule from p_d * m + p_(d-1) * I, each
    later step one product by m and p_k added on the diagonal."""
    n = len(rows)
    if len(c) < 2:
        return [[c[0] if c and i == j else 0 for j in range(n)] for i in range(n)]
    acc = [[c[-1] * x for x in row] for row in rows]
    for i in range(n):
        acc[i][i] += c[-2]
    for coeff in reversed(c[:-2]):
        acc = _matmul_rows(acc, rows)
        for i in range(n):
            acc[i][i] += coeff
    return acc


def _matmul_rows(a, b) -> list:
    """The product of the square rows a and b, as a list of rows."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


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
                minor = IntMatrix([[m.rows[i][j] for j in cols] for i in rows])
                g = gcd(g, determinant(minor))
        out.append(g)
    return out


_MOVE_FACTORS = (-3, -2, -1, 1, 2, 3)  # the k of an add move


def _moves(left: list, right: list, moves) -> None:
    """Elementary GL_n(Z) moves (op, i, j, k), in order and in place: each
    move E takes its row step on the square rows `left` (op 0 swaps rows i,
    j; op 1 negates row i; op 2 adds k * row j to row i), then the column
    step of E^-1 on `right`.  left = B, right = B^-1 keeps the pair inverse;
    left = right = M makes E M E^-1.  The rows of `left` are distinct lists,
    changed in place."""
    cols = range(len(left))
    for op, i, j, k in moves:
        if op == 0:
            left[i], left[j] = left[j], left[i]
            for row in right:
                row[i], row[j] = row[j], row[i]
        elif op == 1:
            row_i = left[i]
            for t in cols:
                row_i[t] = -row_i[t]
            for row in right:
                row[i] = -row[i]
        else:
            row_i, row_j = left[i], left[j]
            for t in cols:
                row_i[t] += k * row_j[t]
            for row in right:
                row[j] -= k * row[i]


def random_glnz(n: int, steps: int = 20, seed: int = 0) -> tuple:
    """Seeded (B, B^-1), B a product of `steps` random elementary matrices.

    Row swaps, negations, and additions with |k| <= 3 build B; each row step
    E on B is mirrored by the column step E^-1 on B^-1 (_moves).
    """
    n = exact_int_at_least(n, 1, "dimension")
    steps = exact_int_at_least(steps, 0, "steps")
    rng = random.Random(exact_int(seed))
    b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [row[:] for row in b]
    moves = []
    for _ in range(steps):
        op = rng.randrange(3) if n > 1 else 1
        i, j = rng.sample(range(n), 2) if op != 1 else (rng.randrange(n), 0)
        moves.append((op, i, j, rng.choice(_MOVE_FACTORS) if op == 2 else 0))
    _moves(b, inv, moves)
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


def parse_int_list(text: str, noun: str) -> list:
    """Comma-separated integers; a bad cell raises MatrixParseError naming
    it as a `noun` with its 1-based position."""
    out = []
    for j, cell in enumerate(text.strip().split(",")):
        try:
            out.append(int(cell.strip()))
        except ValueError:
            raise MatrixParseError(
                f"bad {noun} {cell.strip()!r} at position {j + 1}"
            ) from None
    return out


def parse_poly(text: str) -> IntPolynomial:
    return IntPolynomial(parse_int_list(text, "coefficient"))


def format_poly(p: IntPolynomial) -> str:
    if not p.coeffs:
        return "0"
    return ",".join(str(c) for c in p.coeffs)
