"""Abelianized invariant of a stationary AF-algebra.

Given a nonnegative unimodular incidence matrix A (some power strictly
positive) and an integer polynomial p with p(0) = +-1, the invariant is the
finitely generated abelian group Z^n / p(A) Z^n, read off the Smith diagonal
of p(A).  The diagonal comes from exact_linalg.smith_diagonal, which builds no
transforms and checks prod(d) = |det p(A)| instead of a P, Q certificate.  The
group is unchanged by GL_n(Z) conjugation of A, which the probe harness
checks on random conjugates made by elementary moves on a copy of A (no B).
"""

from __future__ import annotations

import operator
import random

from .exact_linalg import (
    BudgetExceeded,
    IntMatrix,
    IntPolynomial,
    Record,
    determinant,
    is_unimodular,
    mat_poly_eval,
    smith_diagonal,
)

# Conjugates invariance_probe tries before BudgetExceeded: 11-14 s at n = 32
# (2.8-3.5 ms a trial) on CPython 3.11, 2 shared vCPUs.  A trial costs about
# n^3, so past n = 32 the cap is on trials * n^3 at that same point.
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


class AbelianGroup(Record):
    """Normal form of a finitely generated abelian group.

    torsion is the divisibility chain of elementary divisors (each >= 2,
    each dividing the next, factors equal to 1 dropped); free_rank counts
    the Z summands.  Structural equality of (torsion, free_rank) is group
    equality because this form is canonical.  Non-integer divisors or rank
    raise TypeError.
    """

    torsion: tuple
    free_rank: int = 0

    def __post_init__(self):
        object.__setattr__(self, "free_rank", operator.index(self.free_rank))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(map(operator.index, self.torsion)))
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
    if not is_unimodular(m):
        raise NotUnimodular(f"|det| must be 1, got det = {determinant(m)}")
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


def _conjugate(m: IntMatrix, rng: random.Random) -> IntMatrix:
    """B m B^-1, B a product of 20 elementary matrices drawn from rng: each
    row step on m (swap rows i, j; negate row i; add k * row j to row i,
    |k| <= 3) is followed by its inverse column step.  1 x 1 only negates."""
    n = m.n
    c = [list(row) for row in m.rows]
    for _ in range(20):
        op = rng.randrange(3) if n > 1 else 1
        i = rng.randrange(n)
        if op == 1:
            c[i] = [-x for x in c[i]]
            for row in c:
                row[i] = -row[i]
            continue
        j = rng.randrange(n - 1)
        j += j >= i
        if op == 0:
            c[i], c[j] = c[j], c[i]
            for row in c:
                row[i], row[j] = row[j], row[i]
        else:
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            c[i] = [x + k * y for x, y in zip(c[i], c[j])]
            for row in c:
                row[j] -= k * row[i]
    return IntMatrix(c)


def invariance_probe(
    a: IncidenceMatrix, p: IntPolynomial, trials: int = 100, seed: int = 0
) -> ProbeReport:
    """Check Z^n/p(A')Z^n = Z^n/p(A)Z^n over random conjugates A' = B A B^-1.

    Each conjugate is a copy of A after 20 random elementary moves, all drawn
    from one seeded stream (_conjugate).  It may have negative entries; the
    quotient group is still defined and must match.  More than _TRIAL_CAP
    trials, or trials * n^3 over _TRIAL_CAP * 32^3, raise BudgetExceeded
    before any work.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > _TRIAL_CAP:
        raise BudgetExceeded(f"{trials} trials is over the cap of {_TRIAL_CAP}")
    if trials * a.n**3 > _TRIAL_CAP * 32**3:
        raise BudgetExceeded(
            f"{trials} trials at n = {a.n} is more work than {_TRIAL_CAP} at n = 32"
        )
    base = quotient_group(a.m, p)
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        if quotient_group(_conjugate(a.m, rng), p) != base:
            failures += 1
    return ProbeReport(a.m, p, trials, failures, base, seed)
