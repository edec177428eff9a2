"""Exact continued fractions of real quadratic irrationals.

The expansion runs on the classical integer (P, Q) state recurrence for
theta = (P + sqrt(D)) / Q and never touches floating point: each floor is
taken from s = isqrt(D).  By Galois' theorem the complete quotient of a state
is purely periodic exactly when the state is reduced (0 < P <= s and
s - P < Q <= s + P), so the first reduced state ends the preperiod, its
return closes the minimal period, and it is the only state kept.  The period's
incidence matrix, the product of its blocks [[a, 1], [1, 0]], is its last two
convergents (a one-term period is taken twice, to be strictly positive).
"""

from __future__ import annotations

import re
from math import isqrt

from .af_invariant import IncidenceMatrix, validate_incidence
from .exact_linalg import BudgetExceeded, IntMatrix, Record, exact_ints, int_text

# expand refuses with BudgetExceeded past min(_STATE_CAP, _STATE_WORK_CAP //
# bits^2) states, bits those of the canonical radicand D: a state multiplies
# and divides numbers of D's size, which costs about bits^2 once they pass a
# few hundred bits, so the limit bounds the work before it starts.
# Time to the refusal, best of 3 (CPython 3.11, 2 shared vCPUs); 42,843 bits
# is the largest radicand the CLI reads (4,300-digit p, d and q):
#   radicand bits      40      532    1,661   7,309   42,843   179,319
#   states        262,144  242,804   24,908   1,286       37         2
#   seconds          0.14     0.22     0.07    0.05     0.05      0.11
_STATE_CAP = 1 << 18
_STATE_WORK_CAP = 1 << 36
# Entry bits incidence_from_period admits, bounded by the sum of (a + 1).bit_length()
# over the period.  At the cap it takes 54 ms for 32,768 quotients 1, 24 ms for
# 3,276 of 10^6 (best of 5, as above); sqrt(100000007) bounds 18,161 bits.
_INCIDENCE_BITS_CAP = 1 << 16


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
    min(_STATE_CAP, _STATE_WORK_CAP // D.bit_length()**2) states without a
    repeat it raises BudgetExceeded, so its work is bounded before it starts.
    """
    d = theta.d_rad
    s = isqrt(d)  # sqrt(d) is irrational, so s < sqrt(d) < s + 1
    p, q = theta.p_num, theta.q_den
    start, cycle = 0, None
    quotients: list = []
    cap = min(_STATE_CAP, _STATE_WORK_CAP // d.bit_length() ** 2)
    while (p, q) != cycle:
        if len(quotients) == cap:
            # str(theta), which itself raises past the digit limit
            text = "({}+sqrt({}))/{}".format(*map(int_text, (theta.p_num, d, theta.q_den)))
            raise BudgetExceeded(f"{text} repeats no state in its first {cap}")
        if cycle is None and 0 < p <= s and s - p < q <= s + p:
            start, cycle = len(quotients), (p, q)
        a = (p + s) // q if q > 0 else (-p - s - 1) // -q
        quotients.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return PeriodicCF(tuple(quotients[:start]), tuple(quotients[start:]))


def incidence_from_period(cf: PeriodicCF) -> IncidenceMatrix:
    """Product of blocks [[a, 1], [1, 0]] over the minimal period, taken twice
    when it has one term (the only product with a zero entry): the convergents
    [[p_k, p_(k-1)], [q_k, q_(k-1)]], unimodular as every block has det -1.
    Past _INCIDENCE_BITS_CAP bits it raises BudgetExceeded before any product.
    """
    period = cf.period * 2 if len(cf.period) == 1 else cf.period
    bits = 0
    for a in period:
        bits += (a + 1).bit_length()  # each entry is below the product of a + 1
        if bits > _INCIDENCE_BITS_CAP:
            raise BudgetExceeded(f"the matrix of a {len(cf.period)}-term period "
                                 f"may have entries over {_INCIDENCE_BITS_CAP} bits")
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for a in period:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return validate_incidence(IntMatrix([[p, p_prev], [q, q_prev]]))


_SURD_FULL = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(-?\d+)$"
)
_SURD_SHORT = re.compile(r"^sqrt\(\s*(\d+)\s*\)$")


def parse_surd(text: str) -> QuadraticIrrational:
    """Parse `(p+sqrt(d))/q` or the shorthand `sqrt(d)`."""
    text = text.strip()
    m = _SURD_SHORT.match(text)
    if m:
        return QuadraticIrrational(0, _surd_int(m.group(1)), 1)
    m = _SURD_FULL.match(text)
    if m:
        p, sign, d, q = m.groups()
        p, d, q = _surd_int(p), _surd_int(d), _surd_int(q)
        if q == 0:
            raise ValueError(f"zero denominator in {text!r}")
        if sign == "-":
            # (p - sqrt(d))/q == (-p + sqrt(d))/(-q)
            return QuadraticIrrational(-p, d, -q)
        return QuadraticIrrational(p, d, q)
    raise SurdParseError(
        f"cannot parse surd {text!r}; expected (p+sqrt(d))/q or sqrt(d)"
    )


def _surd_int(digits: str) -> int:
    """int(digits); past the interpreter's digit limit, a SurdParseError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise SurdParseError(f"bad integer in surd: {exc}") from None
