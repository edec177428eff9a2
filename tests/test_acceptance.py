"""Acceptance suite: one test per release criterion, each printed as a
pass/fail line with its runtime.  Everything is exact arithmetic; the only
tolerances are the per-criterion runtime budgets."""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import sympy as sp
from sympy.ntheory.continued_fraction import continued_fraction_convergents

from afcurves.af_invariant import (
    AbelianGroup,
    bowen_franks,
    invariance_probe,
    validate_incidence,
)
from afcurves.cli import main
from afcurves.contfrac import (
    PeriodicCF,
    QuadraticIrrational,
    expand,
    incidence_from_period,
)
from afcurves.elliptic import (
    CurveQ,
    MAZUR_ADMISSIBLE,
    j_from_lambda,
    lambda_orbit,
    rational_lambdas_from_j,
    torsion_subgroup,
)
from afcurves.exact_linalg import (
    IntMatrix,
    IntPolynomial,
    determinant,
    determinantal_divisors,
    mat_pow,
    snf,
)
from afcurves.zeta import (
    compare_local,
    curve_local_zeta,
    is_bad_prime,
    is_prime,
    operator_local_zeta_counts,
    trace_frobenius,
)

BUNDLED_CORPUS = str(Path(__file__).resolve().parent.parent / "data" / "cm_corpus.json")
E_CM = CurveQ(-1, 0)
A_STD = IntMatrix([[5, 2], [2, 1]])


@contextmanager
def criterion(label: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"{label}: {elapsed:.2f}s exceeded the {budget_seconds}s budget"
    )
    print(f"[acceptance] {label}: PASS ({elapsed:.2f}s < {budget_seconds}s)")


def random_incidence_matrices(count: int, seed: int):
    """Valid incidence matrices from random continued-fraction periods."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        period = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        out.append(incidence_from_period(PeriodicCF((), period)))
    return out


def test_criterion_01_corpus_table_reproduction(capsys):
    with criterion("01 corpus table reproduction", 1.0):
        code = main(["conjecture", BUNDLED_CORPUS, "--format", "json"])
        (report,) = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["lambda"] == "-1"
        assert report["j"] == "1728"
        assert report["computed_torsion"] == {"torsion": [2, 2], "free_rank": 0}
        assert report["incidence"] == "5,2;2,1"
        assert report["invariants"][0] == {
            "polynomial": "-1,1",
            "group": {"torsion": [2, 2], "free_rank": 0},
            "verdict": "match",
        }
        # the invariant really is SNF diag(2, 2) of A - I = [[4, 2], [2, 0]]
        assert snf(IntMatrix([[4, 2], [2, 0]])).d == (2, 2)


def test_criterion_02_invariance_suite():
    matrices = ([[5, 2], [2, 1]], [[2, 1], [1, 1]], [[3, 2], [1, 1]])
    polynomials = ((-1, 1), (1, 1), (-1, -1, 1), (1, -2, 0, 1))
    with criterion("02 similarity invariance, 200 conjugations each", 10.0):
        for rows in matrices:
            a = validate_incidence(IntMatrix(rows))
            for coeffs in polynomials:
                report = invariance_probe(
                    a, IntPolynomial(coeffs), trials=200, seed=1729
                )
                assert report.failures == 0


def test_criterion_03_snf_oracle_equivalence():
    with criterion("03 SNF vs determinantal-divisor oracle, 500 matrices", 10.0):
        rng = random.Random(314159)
        for _ in range(500):
            n = rng.randint(1, 4)
            m = IntMatrix(
                [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            )
            dec = snf(m)
            assert dec.verify(m)  # P*M*Q = D, unimodular transforms, chain
            oracle = determinantal_divisors(m)
            prefix = 1
            for k, dk in enumerate(dec.d):
                if dk == 0:
                    assert oracle[k] == 0
                    break
                prefix *= dk
                assert oracle[k] == prefix


def test_criterion_04_bowen_franks_cardinality():
    with criterion("04 Bowen-Franks order = |det(A - I)|, 200 matrices", 5.0):
        checked = 0
        for a in random_incidence_matrices(400, seed=271828):
            det = determinant(a.m - IntMatrix.identity(a.n))
            if det == 0:
                continue
            assert bowen_franks(a).order() == abs(det)
            checked += 1
            if checked == 200:
                break
        assert checked == 200


def test_criterion_05_continued_fraction_pipeline():
    with criterion("05 continued fraction pipeline", 1.0):
        silver = expand(QuadraticIrrational(1, 2, 1))
        assert silver.preperiod == () and silver.period == (2,)
        assert incidence_from_period(silver).m == A_STD
        golden = expand(QuadraticIrrational(1, 5, 2))
        assert golden.preperiod == () and golden.period == (1,)

        # convergents, and their exact signs against theta, come from sympy
        def convergents(cf):
            terms = continued_fraction_convergents([*cf.preperiod, list(cf.period)])
            return list(itertools.islice(terms, 12))

        sqrt2 = expand(QuadraticIrrational(0, 2, 1))
        assert convergents(sqrt2)[3] == sp.Rational(17, 12)
        for theta in (
            QuadraticIrrational(1, 2, 1),
            QuadraticIrrational(1, 5, 2),
            QuadraticIrrational(0, 2, 1),
            QuadraticIrrational(3, 19, 2),
        ):
            value = (theta.p_num + sp.sqrt(theta.d_rad)) / theta.q_den
            signs = [sp.sign(value - c) for c in convergents(expand(theta))]
            assert all(s in (-1, 1) for s in signs)
            assert all(a == -b for a, b in zip(signs, signs[1:]))


def test_criterion_06_lambda_orbit_and_j_map():
    with criterion("06 lambda orbit and j map", 1.0):
        assert lambda_orbit(Fraction(-1)) == {
            Fraction(-1),
            Fraction(2),
            Fraction(1, 2),
        }
        for lam in (Fraction(-1), Fraction(3), Fraction(-5, 7), Fraction(10, 3)):
            j = j_from_lambda(lam)
            assert all(j_from_lambda(mu) == j for mu in lambda_orbit(lam))
        assert rational_lambdas_from_j(1728) == [
            Fraction(-1),
            Fraction(1, 2),
            Fraction(2),
        ]


def test_criterion_07_curve_side_zeta_properties():
    with criterion("07 curve-side zeta properties", 30.0):
        good_primes = [
            p
            for p in range(3, 200, 2)
            if is_prime(p) and E_CM.disc % p != 0
        ]
        for p in good_primes:
            a_p = trace_frobenius(E_CM, p)
            assert a_p * a_p <= 4 * p  # Hasse bound
            if p % 4 == 3:
                assert a_p == 0  # supersingular for CM by Z[i]
        assert trace_frobenius(E_CM, 5) == -2  # brute count gives 8 points
        for p in (3, 5, 13):
            series = curve_local_zeta(E_CM, p, 8)
            assert series.exp_coefficients == series.closed_coefficients


def test_criterion_08_operator_side_consistency():
    a_std = validate_incidence(A_STD)
    with criterion("08 operator-side zeta internal consistency", 1.0):
        for p in (3, 5, 7):
            # the paper's L_p, with tr(A^p) from mat_pow
            lp = IntMatrix([[mat_pow(A_STD, p).trace(), p], [-1, 0]])
            assert determinant(lp) == p
            counts = operator_local_zeta_counts(a_std, p, 6)
            for n in range(1, 7):
                direct = determinant(IntMatrix.identity(2) - mat_pow(lp, n))
                assert counts[n - 1] == abs(direct)
        # tr(A)^2 - 4 = 32: the degenerate branch fires exactly at p = 2
        bad = [p for p in range(2, 100) if is_prime(p) and is_bad_prime(a_std, p)]
        assert bad == [2]


def test_criterion_09_conjectured_identity_not_asserted():
    a_std = validate_incidence(A_STD)
    with criterion("09 local comparison is a finding, not an assertion", 1.0):
        report = compare_local(E_CM, a_std, 5, 1)
        assert report.curve_counts == (8,)
        assert report.operator_counts == (6720,)
        assert report.match_flags == (False,)
        # the suite stays green with the mismatch on record


def test_criterion_10_torsion_sanity_battery():
    with criterion("10 torsion sanity battery", 5.0):
        battery = [
            (CurveQ(-1, 0), AbelianGroup((2, 2))),
            (CurveQ(-4, 0), AbelianGroup((2, 2))),
            (CurveQ(4, 0), AbelianGroup((4,))),
        ]
        for curve, expected in battery:
            group, _ = torsion_subgroup(curve)
            assert group == expected
            assert group in MAZUR_ADMISSIBLE
