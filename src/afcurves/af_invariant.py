"""Abelianized invariant of a stationary AF-algebra.

Given a nonnegative unimodular incidence matrix A (some power strictly
positive) and an integer polynomial p with p(0) = +-1, the invariant is the
finitely generated abelian group Z^n / p(A) Z^n, an exact_linalg.AbelianGroup
read off the Smith diagonal of p(A) that exact_linalg.smith_diagonal gives
(its route and checks are in exact_linalg's docstring).  The group is
unchanged by GL_n(Z) conjugation of A, which the probe harness checks on
random conjugates made by elementary moves on a copy of A (no B), one 64-bit
draw a move, read off a table of moves built once a probe and applied by
exact_linalg._moves, which random_glnz also builds B with.  A trial stays on
plain lists of rows and builds no record: it compares the Smith diagonal of
p(A'), with every check smith_diagonal makes, as a tuple with the base
diagonal, which is group equality because the Smith form is canonical.
"""

from __future__ import annotations

import random

from .exact_linalg import (
    AbelianGroup,
    BudgetExceeded,
    IntMatrix,
    IntPolynomial,
    Record,
    determinant,
    exact_int,
    exact_int_at_least,
    int_text,
    mat_poly_eval,
    smith_diagonal,
    _MOVE_FACTORS,
    _moves,
    _poly_eval_rows,
    _smith_diagonal,
)

# Conjugates invariance_probe tries at n <= 32 before BudgetExceeded: 5.1-6.9 s
# at n = 32, p = x - 1 (1.3-1.7 ms a trial; CPython 3.11.7, 2 shared vCPUs) on
# bench/common.incidence_text(Random(s), 32, 16), s = 1-3.  One rule holds
# every n to that work: trials * max(n, 32)^3 <= _TRIAL_CAP * 32^3.
_TRIAL_CAP = 4096


class NotUnimodular(ValueError):
    pass


class NegativeEntry(ValueError):
    pass


class NeverStrictlyPositive(ValueError):
    pass


class BadConstantTerm(ValueError):
    pass


BOWEN_FRANKS_POLY = IntPolynomial([-1, 1])  # x - 1


class IncidenceMatrix(Record):
    """Validated incidence matrix: nonnegative, unimodular, primitive.

    positivity_power is the least k >= 1 with every entry of m^k >= 1.
    """

    m: IntMatrix
    positivity_power: int

    @property
    def n(self) -> int:
        return self.m.n


def validate_incidence(m: IntMatrix) -> IncidenceMatrix:
    """Wrap m as an IncidenceMatrix, or reject it.

    Raises NegativeEntry, NotUnimodular, or NeverStrictlyPositive.  Powers
    run on the zero pattern of m (row i of m^k as the set of its nonzero
    columns) up to Wielandt's bound (n - 1)^2 + 1, the power at which every
    primitive n x n matrix is strictly positive.
    """
    if not m.is_nonnegative():
        raise NegativeEntry(f"incidence matrix entries must be nonnegative: {m.rows}")
    det = determinant(m)
    if abs(det) != 1:
        raise NotUnimodular(f"|det| must be 1, got det = {int_text(det)}")
    n = m.n
    successors = [{j for j, x in enumerate(row) if x} for row in m.rows]
    power = successors
    bound = (n - 1) ** 2 + 1
    for k in range(1, bound + 1):
        if all(len(row) == n for row in power):
            return IncidenceMatrix(m, k)
        power = [set().union(*(successors[j] for j in row)) for row in power]
    raise NeverStrictlyPositive(
        f"no power up to {bound} is strictly positive; matrix is not primitive"
    )


def quotient_group(m: IntMatrix, p: IntPolynomial) -> AbelianGroup:
    """Z^n / p(m) Z^n for an arbitrary square integer matrix m.

    Defined for any m (the incidence constraints matter for the AF-algebra
    interpretation, not for the quotient itself); requires p(0) = +-1.
    """
    if p.constant_term not in (1, -1):
        raise BadConstantTerm(
            f"constant term must be +1 or -1, got {p.constant_term}"
        )
    return AbelianGroup.from_smith_diagonal(smith_diagonal(mat_poly_eval(p, m)))


def abelianize(a: IncidenceMatrix, p: IntPolynomial) -> AbelianGroup:
    """The invariant Z^n / p(A) Z^n of the AF-algebra with incidence matrix A."""
    return quotient_group(a.m, p)


def bowen_franks(a: IncidenceMatrix) -> AbelianGroup:
    """Z^n / (A - I) Z^n; its order equals |det(A - I)| when that is nonzero."""
    return abelianize(a, BOWEN_FRANKS_POLY)


class ProbeReport(Record):
    """Outcome of a similarity-invariance probe.

    failures counts trials where the conjugated invariant differed from the
    base one; invariance predicts 0.  The fields are the `probe` command's
    payload.
    """

    matrix: IntMatrix
    polynomial: IntPolynomial
    trials: int
    failures: int
    group: AbelianGroup
    seed: int


def _move_table(n: int) -> tuple:
    """Every move (op, i, j, k) of _moves on n x n rows, at the index whose
    mixed-radix digits, op (3) fastest, then i (n), j (n - 1, shifted past
    i) and k's place in _MOVE_FACTORS (6), name it: 18 n (n - 1) moves.  At
    n = 1 the one move negates."""
    if n == 1:
        return ((1, 0, 0, 0),)
    return tuple(
        (op, i, j + (j >= i), k)
        for k in _MOVE_FACTORS
        for j in range(n - 1)
        for i in range(n)
        for op in range(3)
    )


def _conjugate_rows(rows, rng: random.Random, table: tuple) -> list:
    """B m B^-1 as a new list of rows, for the rows of m and table =
    _move_table(n); B is a product of 20 elementary moves, applied in one
    exact_linalg._moves call.

    Each move is one rng.getrandbits(64), r, read as table[r % len(table)]:
    the digits op, i, j, k of r taken by divmod, so its bias is below
    18 n^2 / 2^64.
    """
    c = [list(row) for row in rows]
    size, draw = len(table), rng.getrandbits
    _moves(c, c, [table[draw(64) % size] for _ in range(20)])
    return c


def invariance_probe(
    a: IncidenceMatrix, p: IntPolynomial, trials: int = 100, seed: int = 0
) -> ProbeReport:
    """Check Z^n/p(A')Z^n = Z^n/p(A)Z^n over random conjugates A' = B A B^-1.

    Each conjugate is a copy of A after 20 random elementary moves, all drawn
    from one seeded stream (_conjugate_rows).  It may have negative entries;
    the quotient group is still defined and must match.  quotient_group(A, p)
    runs first, so a bad p raises before any trial; a trial then compares
    the Smith diagonal of p(A') on plain rows with A's, read back off the
    base group (its ones, its torsion, then a 0 per free Z), and a trial
    whose diagonal differs is a failure.  The cap charges a trial
    max(n, 32)^3: trials * max(n, 32)^3 over _TRIAL_CAP * 32^3 raises
    BudgetExceeded before any work.
    """
    trials, seed = exact_int_at_least(trials, 1, "trials"), exact_int(seed)
    if trials * max(a.n, 32) ** 3 > _TRIAL_CAP * 32**3:
        raise BudgetExceeded(
            f"{trials} trials at n = {a.n} is over the cap: trials * max(n, 32)^3 "
            f"may not exceed {_TRIAL_CAP} * 32^3"
        )
    base = quotient_group(a.m, p)
    ones = a.n - len(base.torsion) - base.free_rank
    want = (1,) * ones + base.torsion + (0,) * base.free_rank
    rows, coeffs, table = a.m.rows, p.coeffs, _move_table(a.n)
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        c = _conjugate_rows(rows, rng, table)
        if _smith_diagonal(_poly_eval_rows(coeffs, c)) != want:
            failures += 1
    return ProbeReport(a.m, p, trials, failures, base, seed)
