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

import operator
import re
from fractions import Fraction
from math import isqrt

from .af_invariant import IncidenceMatrix, validate_incidence
from .exact_linalg import BudgetExceeded, IntMatrix, Record, to_fraction

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
    must be positive and not a perfect square.  A non-integer field raises
    TypeError.
    """

    p_num: int
    d_rad: int
    q_den: int

    def __post_init__(self):
        p, d, q = map(operator.index, (self.p_num, self.d_rad, self.q_den))
        if q == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        if d <= 0 or isqrt(d) ** 2 == d:
            raise NotIrrational(f"radicand {d} is not a positive non-square")
        if (d - p * p) % q != 0:
            p, d, q = p * abs(q), d * q * q, q * abs(q)
        object.__setattr__(self, "p_num", p)
        object.__setattr__(self, "d_rad", d)
        object.__setattr__(self, "q_den", q)

    def compare_to(self, r: Fraction) -> int:
        """Sign of (self - r), computed exactly: -1, 0 never occurs, or +1."""
        r = to_fraction(r)
        # self - r = ((p*rd - rn*q) + rd*sqrt(d)) / (q*rd)
        u = self.p_num * r.denominator - r.numerator * self.q_den
        v = r.denominator
        denom_sign = 1 if self.q_den * r.denominator > 0 else -1
        return _sign_u_plus_v_sqrt(u, v, self.d_rad) * denom_sign

    def __str__(self):
        return f"({self.p_num}+sqrt({self.d_rad}))/{self.q_den}"


def _sign_u_plus_v_sqrt(u: int, v: int, d: int) -> int:
    """Exact sign of u + v*sqrt(d) for non-square d > 0 (never zero)."""
    if v == 0:
        return -1 if u < 0 else 1
    if u == 0:
        return 1 if v > 0 else -1
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    # opposite signs: compare u^2 against v^2 d
    if v > 0:  # u < 0
        return 1 if v * v * d > u * u else -1
    return 1 if u * u > v * v * d else -1


class PeriodicCF(Record):
    """Eventually periodic partial quotients: preperiod then repeating period.

    The period is the minimal repeating block; every quotient after the
    first is >= 1 (the leading one may be any integer, negative included).
    A non-integer quotient raises TypeError.
    """

    preperiod: tuple
    period: tuple

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(map(operator.index, self.preperiod)))
        object.__setattr__(self, "period", tuple(map(operator.index, self.period)))
        if not self.period:
            raise ValueError("period must be nonempty")
        for a in self.preperiod[1:]:
            if a < 1:
                raise ValueError("partial quotients after the first must be >= 1")
        if any(a < 1 for a in self.period):
            raise ValueError("period entries must be >= 1")

    def quotients(self, depth: int):
        """First `depth` partial quotients, unrolling the period as needed."""
        out = list(self.preperiod[:depth])
        i = 0
        while len(out) < depth:
            out.append(self.period[i % len(self.period)])
            i += 1
        return out


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


def convergent(cf: PeriodicCF, depth: int) -> Fraction:
    """Exact rational convergent from the first `depth` partial quotients."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    h_prev, h = 0, 1
    k_prev, k = 1, 0
    for a in cf.quotients(depth):
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return Fraction(h, k)


def gl2z_equivalent(x: QuadraticIrrational, y: QuadraticIrrational) -> bool:
    """Tail equivalence of the expansions: equal periods up to cyclic rotation.

    Two real quadratic irrationals are related by a fractional-linear map
    with determinant +-1 exactly when their expansions share a tail, i.e.
    when the minimal periods are rotations of each other.
    """
    px = expand(x).period
    py = expand(y).period
    if len(px) != len(py):
        return False
    doubled = px + px
    return any(doubled[i : i + len(py)] == py for i in range(len(px)))


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
        if sign == "-":
            # (p - sqrt(d))/q == (-p + sqrt(d))/(-q)
            return QuadraticIrrational(-int(p), int(d), -int(q))
        return QuadraticIrrational(int(p), int(d), int(q))
    raise SurdParseError(
        f"cannot parse surd {text!r}; expected (p+sqrt(d))/q or sqrt(d)"
    )
