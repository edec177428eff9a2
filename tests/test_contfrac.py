import functools
import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.ntheory.continued_fraction import (
    continued_fraction_convergents,
    continued_fraction_periodic,
)

from afcurves import contfrac
from afcurves.af_invariant import AbelianGroup, quotient_group
from afcurves.contfrac import (
    NotIrrational,
    PeriodicCF,
    QuadraticIrrational,
    SurdParseError,
    expand,
    incidence_from_period,
    _INCIDENCE_BITS_CAP,
    _STATE_CAP,
    parse_surd,
)
from afcurves.exact_linalg import BudgetExceeded, IntMatrix, IntPolynomial
from oracles import block_product, is_strictly_positive

SQRT2 = QuadraticIrrational(0, 2, 1)
GOLDEN = QuadraticIrrational(1, 5, 2)
SILVER = QuadraticIrrational(1, 2, 1)  # 1 + sqrt(2)


def surds():
    return st.tuples(
        st.integers(-30, 30),
        st.integers(2, 300).filter(lambda d: isqrt(d) ** 2 != d),
        st.integers(-20, 20).filter(bool),
    ).map(lambda t: QuadraticIrrational(*t))


def first_repeat_expand(theta: QuadraticIrrational, cap: int) -> PeriodicCF:
    """The reference expansion: record every visited (P, Q) state until one
    repeats; the first repeated state starts the period.  Past `cap` states
    it refuses with the message expand gives."""
    d, p, q = theta.d_rad, theta.p_num, theta.q_den
    seen, quotients = {}, []
    while (p, q) not in seen:
        if len(quotients) == cap:
            raise BudgetExceeded(f"{theta} repeats no state in its first {cap}")
        seen[(p, q)] = len(quotients)
        s = isqrt(d)
        a = (p + s) // q if q > 0 else (-p - s - 1) // (-q)
        quotients.append(a)
        p = a * q - p
        q = (d - p * p) // q
    start = seen[(p, q)]
    return PeriodicCF(tuple(quotients[:start]), tuple(quotients[start:]))


def gl2z_image(theta, a, b, c, d):
    """(a theta + b)/(c theta + d) for ad - bc = +-1, exactly.  With
    theta = (p + sqrt(D))/q it is (num + a sqrt(D))/(den + c sqrt(D)); times
    the conjugate of the denominator that is (u + q(ad - bc) sqrt(D))/w."""
    assert a * d - b * c in (1, -1)
    p, big_d, q = theta.p_num, theta.d_rad, theta.q_den
    num, den = a * p + b * q, c * p + d * q
    u, w, k = num * den - a * c * big_d, den * den - c * c * big_d, q * (a * d - b * c)
    s = 1 if k > 0 else -1
    return QuadraticIrrational(s * u, k * k * big_d, s * w)


def same_tail(x, y) -> bool:
    """The minimal periods of x and y are rotations of each other."""
    px, py = expand(x).period, expand(y).period
    return len(px) == len(py) and any(px[i:] + px[:i] == py for i in range(len(px)))


def sign_minus(theta, r) -> int:
    """Exact sign of theta - r for rational r: with r = h/k (k > 0),
    theta - r = (t + k sqrt(D)) / (q k), t = p k - h q, never 0."""
    r = Fraction(r)
    h, k = r.numerator, r.denominator
    t = theta.p_num * k - h * theta.q_den
    positive = t >= 0 or k * k * theta.d_rad > t * t
    return (1 if positive else -1) * (1 if theta.q_den > 0 else -1)


def convergents(cf: PeriodicCF, depth: int) -> list:
    """The first `depth` convergents of cf, by sympy."""
    terms = continued_fraction_convergents([*cf.preperiod, list(cf.period)])
    return [Fraction(int(c.p), int(c.q)) for c in itertools.islice(terms, depth)]


def outcome(expansion, theta):
    try:
        return expansion(theta)
    except BudgetExceeded as exc:
        return str(exc)


class TestQuadraticIrrational:
    def test_canonicalization(self):
        theta = QuadraticIrrational(1, 5, 3)  # 3 does not divide 5 - 1
        assert (theta.d_rad - theta.p_num**2) % theta.q_den == 0

    def test_perfect_square_rejected(self):
        with pytest.raises(NotIrrational):
            QuadraticIrrational(0, 4, 1)
        with pytest.raises(NotIrrational):
            QuadraticIrrational(0, -2, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="denominator must be nonzero"):
            QuadraticIrrational(0, 2, 0)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            QuadraticIrrational(1.5, 2.9, 1)


class TestExpand:
    def test_golden_ratio(self):
        cf = expand(GOLDEN)
        assert cf.preperiod == ()
        assert cf.period == (1,)

    def test_sqrt2(self):
        cf = expand(SQRT2)
        assert cf.preperiod == (1,)
        assert cf.period == (2,)

    def test_one_plus_sqrt2_is_purely_periodic(self):
        cf = expand(SILVER)
        assert cf.preperiod == ()
        assert cf.period == (2,)

    def test_negative_value(self):
        cf = expand(QuadraticIrrational(0, 2, -1))
        assert cf.preperiod[0] < 0
        assert all(a >= 1 for a in cf.preperiod[1:])
        assert all(a >= 1 for a in cf.period)

    def test_first_cycle_is_minimal_on_a_grid(self):
        # p in [-10, 10], non-square d <= 60, q in [-6, 6] \ {0}: 13,356 surds
        count = 0
        for d in range(2, 61):
            if isqrt(d) ** 2 == d:
                continue
            for p in range(-10, 11):
                for q in range(-6, 7):
                    if q == 0:
                        continue
                    cf = expand(QuadraticIrrational(p, d, q))
                    period, n = cf.period, len(cf.period)
                    assert not any(
                        n % k == 0 and period == period[:k] * (n // k)
                        for k in range(1, n)
                    ), (p, d, q)
                    assert not cf.preperiod or cf.preperiod[-1] != period[-1], (p, d, q)
                    count += 1
        assert count == 13_356

    @given(surds())
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy_expansion(self, theta):
        oracle = continued_fraction_periodic(theta.p_num, theta.q_den, theta.d_rad)
        cf = expand(theta)
        assert cf.preperiod == tuple(oracle[:-1])
        assert cf.period == tuple(oracle[-1])

    @given(surds())
    @settings(max_examples=60, deadline=None)
    def test_symbolic_reconstruction(self, theta):
        # fold the periodic tail back into its quadratic fixed point and
        # check the resulting surd equals theta exactly
        cf = expand(theta)
        h_prev, h = sp.Integer(0), sp.Integer(1)
        k_prev, k = sp.Integer(1), sp.Integer(0)
        for a in cf.period:
            h_prev, h = h, a * h + h_prev
            k_prev, k = k, a * k + k_prev
        disc = (h - k_prev) ** 2 + 4 * k * h_prev
        tail = (h - k_prev + sp.sqrt(disc)) / (2 * k)
        value = tail
        for a in reversed(cf.preperiod):
            value = a + 1 / value
        target = (sp.Integer(theta.p_num) + sp.sqrt(theta.d_rad)) / theta.q_den
        assert sp.simplify(value - target) == 0

    def test_long_period_under_the_state_cap(self):
        # sqrt(10^10 + 19) has a period of 124,134 terms, under the cap; the
        # expansion keeps one state, where a table of all 124,135 peaked at
        # 26.7 MB
        tracemalloc.start()
        try:
            cf = expand(QuadraticIrrational(0, 10**10 + 19, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cf.period) == 124_134 < _STATE_CAP
        assert cf.preperiod == (100_000,)
        assert peak < 8 * 2**20

    @given(
        st.integers(-10**4, 10**4),
        st.integers(2, 10**4).filter(lambda d: isqrt(d) ** 2 != d),
        st.integers(-300, 300).filter(bool),
        st.integers(1, 60),
    )
    @settings(max_examples=400, deadline=None)
    @example(0, 2, 1, 60)  # sqrt(2): preperiod (1,)
    @example(1, 5, 2, 60)  # golden ratio: purely periodic
    @example(-3, 13, -7, 60)  # (3 - sqrt(13))/7: non-canonical, preperiod -1, 1, 10
    @example(17, 3, -11, 60)  # negative denominator, preperiod -2, 3
    @example(-12, 2, 27, 60)  # preperiod -1, 1, 1, 1, 1, 4
    @example(0, 94, 1, 17)  # preperiod 1 + period 16 fill the cap exactly
    @example(0, 94, 1, 16)  # one state over the cap: refused
    def test_matches_first_repeat_reference(self, p, d, q, cap):
        # the first reduced state is the first state that recurs, so both
        # give the same expansion, or the same refusal, under every cap
        theta = QuadraticIrrational(p, d, q)
        with mock.patch.object(contfrac, "_STATE_CAP", cap):
            got = outcome(expand, theta)
        assert got == outcome(lambda t: first_repeat_expand(t, cap), theta)

    def test_over_the_state_cap_refuses_fast(self, wall_bound):
        # sqrt(10^12 + 39) has a period of 532,572 terms
        with wall_bound(2):
            with pytest.raises(BudgetExceeded, match=f"first {_STATE_CAP}"):
                expand(QuadraticIrrational(0, 10**12 + 39, 1))


class TestIncidenceFromPeriod:
    def test_silver_period_reproduces_standard_matrix(self):
        inc = incidence_from_period(expand(SILVER))
        assert inc.m == IntMatrix([[5, 2], [2, 1]])

    def test_golden_period_squares(self):
        inc = incidence_from_period(PeriodicCF((), (1,)))
        assert inc.m == IntMatrix([[2, 1], [1, 1]])

    def test_periodic_cf_rejects_non_integers(self):
        with pytest.raises(TypeError):
            PeriodicCF((1.7,), (2.2,))

    @pytest.mark.parametrize(
        "preperiod,period,message",
        [
            ((1,), (), "period must be nonempty"),
            ((-3, 2, 0), (1,), "partial quotients after the first must be >= 1"),
            ((-3,), (2, 0), "period entries must be >= 1"),
        ],
        ids=["empty_period", "preperiod_quotient", "period_quotient"],
    )
    def test_periodic_cf_refusals(self, preperiod, period, message):
        with pytest.raises(ValueError) as exc:
            PeriodicCF(preperiod, period)
        assert (type(exc.value), str(exc.value)) == (ValueError, message)

    def test_two_term_period_needs_no_squaring(self):
        inc = incidence_from_period(PeriodicCF((), (2, 1)))
        assert inc.m == IntMatrix([[3, 2], [1, 1]])

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    def test_always_unimodular_and_primitive(self, period):
        inc = incidence_from_period(PeriodicCF((), tuple(period)))
        assert is_strictly_positive(inc.m) or inc.positivity_power > 1

    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=40))
    @example([1])
    @example([10**6])
    def test_matches_the_block_product(self, period):
        # the convergents against one 2 x 2 product a quotient, squared when
        # not strictly positive; every entry within the summed-bits bound
        m = incidence_from_period(PeriodicCF((), tuple(period))).m
        assert m == block_product(period)
        bound = sum((a + 1).bit_length() for a in period * (2 if len(period) == 1 else 1))
        assert max(abs(x).bit_length() for row in m.rows for x in row) <= bound

    @pytest.mark.parametrize("period,bits", [((1,), 4), ((1, 2, 3), 7), ((7, 8), 8)])
    def test_bits_cap_is_exact(self, period, bits):
        # a one-term period counts twice; (a + 1).bit_length() for each a
        cf = PeriodicCF((), period)
        with mock.patch.object(contfrac, "_INCIDENCE_BITS_CAP", bits):
            assert incidence_from_period(cf).m == block_product(period)
        with mock.patch.object(contfrac, "_INCIDENCE_BITS_CAP", bits - 1):
            with pytest.raises(BudgetExceeded, match=f"over {bits - 1} bits"):
                incidence_from_period(cf)

    def test_over_the_bits_cap_refuses_before_any_product(self):
        cf = PeriodicCF((), (10**6,) * 10**5)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=f"over {_INCIDENCE_BITS_CAP} bits"):
            incidence_from_period(cf)
        assert time.perf_counter() - start < 0.01

    def test_the_bits_cap_admits_sqrt_100000007(self):
        # 6,524 quotients whose summed bits bound is 18,161; its matrix prints
        inc = incidence_from_period(expand(QuadraticIrrational(0, 100000007, 1)))
        assert max(abs(x) for row in inc.m.rows for x in row).bit_length() == 11072


class TestConvergent:
    """The convergents of expand's quotients (by sympy) approach theta."""

    def test_sqrt2_depth4(self):
        pell = [1, Fraction(3, 2), Fraction(7, 5), Fraction(17, 12)]
        assert convergents(expand(SQRT2), 4) == pell

    def test_depth1_is_leading_quotient(self):
        assert convergents(expand(SQRT2), 1) == [1]

    def test_golden_fibonacci(self):
        fibonacci = [1, 2, Fraction(3, 2), Fraction(5, 3), Fraction(8, 5)]
        assert convergents(expand(GOLDEN), 5) == fibonacci

    @given(surds())
    @settings(max_examples=80)
    def test_alternation_and_monotone_convergence(self, theta):
        cs = convergents(expand(theta), 12)
        signs = [sign_minus(theta, c) for c in cs]
        # successive convergents straddle theta
        assert all(a == -b for a, b in zip(signs, signs[1:]))
        # and |theta - c| strictly decreases: theta lies on the far side of
        # the midpoint of consecutive convergents (exact, no floats)
        for c1, c2 in zip(cs, cs[1:]):
            midpoint = (c1 + c2) / 2
            assert sign_minus(theta, midpoint) == (1 if c2 > midpoint else -1)


class TestGl2zEquivalence:
    """Pairs come from the action theta -> (a theta + b)/(c theta + d),
    ad - bc = +-1 (gl2z_image); by Serret's theorem their expansions share a
    tail, so expand must give periods that are rotations of each other."""

    def test_sqrt2_equivalent_to_silver(self):
        assert gl2z_image(SQRT2, 1, 1, 0, 1) == SILVER
        assert same_tail(SQRT2, SILVER)

    def test_sqrt2_not_equivalent_to_golden(self):
        # the action keeps the field: Q(sqrt 2) and Q(sqrt 5) share no tail
        assert not same_tail(SQRT2, GOLDEN)

    def test_rotated_periods_are_equivalent(self):
        # [2,1] and [1,2] tails come from equivalent numbers
        x = QuadraticIrrational(0, 3, 1)  # sqrt(3) = [1; 1,2,...]
        assert expand(x).period in ((1, 2), (2, 1))
        y = gl2z_image(x, 1, 1, 0, 1)
        assert y == QuadraticIrrational(1, 3, 1)  # 1 + sqrt(3), purely periodic [2,1]
        assert expand(y).period == (2, 1)
        assert same_tail(x, y)

    @given(surds())
    @settings(max_examples=40)
    def test_equivalent_numbers_share_invariants(self, theta):
        # the tail of an expansion is GL(2,Z)-equivalent to the number, and
        # the incidence matrices of rotated periods stay similar, so every
        # abelianized invariant agrees
        cf = expand(theta)
        rotated = PeriodicCF((), cf.period[1:] + cf.period[:1])
        a = incidence_from_period(PeriodicCF((), cf.period))
        b = incidence_from_period(rotated)
        for coeffs in ((-1, 1), (1, 1), (-1, -1, 1)):
            p = IntPolynomial(coeffs)
            assert quotient_group(a.m, p) == quotient_group(b.m, p)

    def test_pinned_equivalent_pair_gives_equal_groups(self):
        x, y = parse_surd("sqrt(7)"), parse_surd("(2+sqrt(7))/3")
        assert gl2z_image(x, 0, 1, 1, -2) == y  # 1/(sqrt(7) - 2)
        assert same_tail(x, y)
        for theta in (x, y):
            m = incidence_from_period(expand(theta)).m
            assert quotient_group(m, IntPolynomial([-1, 1])) == AbelianGroup((14,))

    def test_equivalent_surds_give_equal_groups(self):
        # each small surd (p + sqrt(d))/q against its images under three
        # seeded GL(2,Z) elements: the tails agree, and so does the
        # invariant at each polynomial
        polys = [IntPolynomial(c) for c in ((-1, 1), (1, 1), (-1, -1, 1), (1, -2, 0, 1))]
        thetas = {
            QuadraticIrrational(p, d, q)
            for d in range(2, 16)
            if isqrt(d) ** 2 != d
            for p, q in itertools.product(range(-3, 4), (-3, -2, -1, 1, 2, 3))
        }
        elements = [
            (a, b, c, d)
            for a, b, c, d in itertools.product(range(-3, 4), repeat=4)
            if a * d - b * c in (1, -1)
        ]
        rng = random.Random(17)

        @functools.cache
        def groups(theta):
            m = incidence_from_period(expand(theta)).m
            return [quotient_group(m, p) for p in polys]

        pairs = 0
        for x in sorted(thetas, key=str):
            for g in rng.sample(elements, 3):
                y = gl2z_image(x, *g)
                assert same_tail(x, y), (x, g)
                assert groups(x) == groups(y), (x, g)
                pairs += 1
        assert pairs > 1000


class TestSurdParsing:
    def test_full_form(self):
        theta = parse_surd("(1+sqrt(2))/1")
        assert (theta.p_num, theta.d_rad, theta.q_den) == (1, 2, 1)

    def test_shorthand(self):
        theta = parse_surd("sqrt(2)")
        assert (theta.p_num, theta.d_rad, theta.q_den) == (0, 2, 1)

    def test_minus_branch(self):
        theta = parse_surd("(1-sqrt(2))/1")  # = (-1+sqrt(2))/(-1)
        assert (theta.p_num, theta.d_rad, theta.q_den) == (-1, 2, -1)
        assert sign_minus(theta, 0) == -1

    def test_negative_denominator(self):
        theta = parse_surd("(0+sqrt(2))/-1")
        assert sign_minus(theta, 0) == -1
        assert expand(theta).preperiod[0] == -2

    def test_perfect_square(self):
        with pytest.raises(NotIrrational):
            parse_surd("sqrt(4)")

    def test_garbage(self):
        with pytest.raises(SurdParseError):
            parse_surd("one plus root two")
