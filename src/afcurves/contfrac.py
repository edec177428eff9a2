"""Exact continued fractions of real quadratic irrationals.

The expansion runs on the classical integer (P, Q) state recurrence for
theta = (P + sqrt(D)) / Q and never touches floating point: each floor is
taken from s = isqrt(D).  By Galois' theorem the complete quotient of a state
is purely periodic exactly when the state is reduced (0 < P <= s and
s - P < Q <= s + P), so the first reduced state ends the preperiod, its
return closes the minimal period, and it is the only state kept.  The period
maps to an incidence matrix as a product of 2x2 blocks [[a, 1], [1, 0]],
squared when the plain product is not yet strictly positive (period length 1).
"""

from __future__ import annotations

import re
from math import isqrt

from .af_invariant import IncidenceMatrix, validate_incidence
from .exact_linalg import BudgetExceeded, IntMatrix, Record, exact_ints

# States expand visits before BudgetExceeded: ~0.2 s on CPython 3.11, 2 vCPUs.
_STATE_CAP = 1 << 18


class NotIrrational(ValueError):
    """The given surd is rational (radicand a perfect square or <= 0)."""


class SurdParseError(ValueError):
    pass


class QuadraticIrrational(Record):
    """Exact surd (p_num + sqrt(d_rad)) / q_den, canonicalized.

    Canonical means q_den divides d_rad - p_num**2, which the constructor
    arranges by scaling all three fields; the value is unchanged.  d_rad
    must be positive and not a perfect square.  The fields pass
    exact_linalg.exact_int, or raise TypeError.
    """

    p_num: int
    d_rad: int
    q_den: int

    def __post_init__(self):
        p, d, q = exact_ints((self.p_num, self.d_rad, self.q_den))
        if q == 0:
            raise ValueError("denominator must be nonzero")
        if d <= 0 or isqrt(d) ** 2 == d:
            raise NotIrrational(f"radicand {d} is not a positive non-square")
        if (d - p * p) % q != 0:
            p, d, q = p * abs(q), d * q * q, q * abs(q)
        object.__setattr__(self, "p_num", p)
        object.__setattr__(self, "d_rad", d)
        object.__setattr__(self, "q_den", q)

    def __str__(self):
        return f"({self.p_num}+sqrt({self.d_rad}))/{self.q_den}"


class PeriodicCF(Record):
    """Eventually periodic partial quotients: preperiod then repeating period.

    The period is the minimal repeating block; every quotient after the
    first is >= 1 (the leading one may be any integer, negative included).
    Quotients pass exact_linalg.exact_int, or raise TypeError.
    """

    preperiod: tuple
    period: tuple

    def __post_init__(self):
        object.__setattr__(self, "preperiod", exact_ints(self.preperiod))
        object.__setattr__(self, "period", exact_ints(self.period))
        if not self.period:
            raise ValueError("period must be nonempty")
        for a in self.preperiod[1:]:
            if a < 1:
                raise ValueError("partial quotients after the first must be >= 1")
        if any(a < 1 for a in self.period):
            raise ValueError("period entries must be >= 1")


def expand(theta: QuadraticIrrational) -> PeriodicCF:
    """Continued fraction of theta, exact, with the minimal period.

    States (P_i, Q_i) follow P_{i+1} = a_i Q_i - P_i and
    Q_{i+1} = (D - P_{i+1}^2) / Q_i (exact division by the canonical
    invariant).  The first reduced state (0 < P <= s and s - P < Q <= s + P,
    s = isqrt(D)) starts the period, by Galois' theorem, and its return closes
    it; that one state is all that is kept, no table of visited states.  Past
    _STATE_CAP states without a repeat it raises BudgetExceeded.
    """
    d = theta.d_rad
    s = isqrt(d)  # sqrt(d) is irrational, so s < sqrt(d) < s + 1
    p, q = theta.p_num, theta.q_den
    start, cycle = 0, None
    quotients: list = []
    while (p, q) != cycle:
        if len(quotients) == _STATE_CAP:
            raise BudgetExceeded(f"{theta} repeats no state in its first {_STATE_CAP}")
        if cycle is None and 0 < p <= s and s - p < q <= s + p:
            start, cycle = len(quotients), (p, q)
        a = (p + s) // q if q > 0 else (-p - s - 1) // -q
        quotients.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return PeriodicCF(tuple(quotients[:start]), tuple(quotients[start:]))


def incidence_from_period(cf: PeriodicCF) -> IncidenceMatrix:
    """Product of blocks [[a, 1], [1, 0]] over the minimal period.

    Each block has determinant -1, so the product is unimodular; when the
    product is not strictly positive (a one-term period) its square is
    returned instead, which is.
    """
    product = IntMatrix.identity(2)
    for a in cf.period:
        product = product @ IntMatrix([[a, 1], [1, 0]])
    if not product.is_strictly_positive():
        product = product @ product
    return validate_incidence(product)


_SURD_FULL = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(-?\d+)$"
)
_SURD_SHORT = re.compile(r"^sqrt\(\s*(\d+)\s*\)$")


def parse_surd(text: str) -> QuadraticIrrational:
    """Parse `(p+sqrt(d))/q` or the shorthand `sqrt(d)`."""
    text = text.strip()
    m = _SURD_SHORT.match(text)
    if m:
        return QuadraticIrrational(0, int(m.group(1)), 1)
    m = _SURD_FULL.match(text)
    if m:
        p, sign, d, q = m.groups()
        if int(q) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        if sign == "-":
            # (p - sqrt(d))/q == (-p + sqrt(d))/(-q)
            return QuadraticIrrational(-int(p), int(d), -int(q))
        return QuadraticIrrational(int(p), int(d), int(q))
    raise SurdParseError(
        f"cannot parse surd {text!r}; expected (p+sqrt(d))/q or sqrt(d)"
    )
