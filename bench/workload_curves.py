"""`curves` workload: elliptic and zeta; the only linear algebra is 2x2 mat_pow.

Jobs, in one seeded order:
- torsion_subgroup on (a, b) curves whose |disc| is stratified log-uniform
  over [1e2, 1e12] (one curve per 1/3 decade), on the Mazur curves
  a=-43,b=166 (Z_7), a=-219,b=1654 (Z_9), a=-2,b=1 (Z_4), a=-1,b=0
  (Z_2 + Z_2), on a=-1000,b=0 (|disc| ~ 6.4e10, a baseline row) and on
  small-height Legendre models;
- compare_local(E, A, p, order=3), half with p in {37, 41, 43} (the
  field-table enumeration route for n = 2) and half with p log-stratified
  over [2e4, 3e4] (residue count plus the trace recurrence);
- curve_local_zeta, rational_lambdas_from_j, count_points(E, 11, 3) (the
  enumeration baseline) and count_points(E, p, 1) at p ~ 1e6.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import afcurves
from afcurves.elliptic import parse_curve_spec
from afcurves.exact_linalg import parse_matrix

from common import IN_PROCESS, Job, call, curve_disc, is_prime, matrix_text, small_lambda
from oracles import (
    check_compare_local,
    check_count,
    check_lambdas,
    check_torsion,
    check_zeta_series,
    j_of_lambda,
    require,
)

WARMUP_KIND = "torsion baseline a=-1000,b=0"
CHILD_PROCESSES = False
REFERENCE = IN_PROCESS
run = run_in_process = call

TORSION_STRATA = 30  # over log10 |disc| in [2, 12]
LEGENDRE_JOBS = 4
LEGENDRE_MAX_DISC = 10**10
# compare_local jobs per route.  The enumeration jobs (p^2 <= 1e4 < p^3,
# about 20 ms each) are the middle band of job sizes: fewer jobs are cheaper
# than they are, and fewer dearer, so job_ms.p50 falls on them.  The
# recurrence jobs (about 40-50 ms) sit above that band.  job_ms.p90 falls
# among them, and their narrow range of sizes keeps it steady between seeds.
# Primes are spread evenly rather than drawn, so every seed has the same bands.
COMPARE_JOBS = 30
ENUMERATED_PRIMES = (37, 41, 43)
RECURRENCE_PRIMES = (20_000, 30_000)
ZETA_JOBS = 4
LAMBDA_JOBS = 4
LARGE_P_JOBS = 2
INCIDENCE_2X2 = ([[2, 1], [1, 1]], [[3, 2], [1, 1]], [[1, 1], [1, 2]], [[2, 3], [1, 2]])
MAZUR = {
    "a=-43,b=166": (7,),
    "a=-219,b=1654": (9,),
    "a=-2,b=1": (4,),
    "a=-1,b=0": (2, 2),
}


def _curve_near(rng, target):
    """Random (a, b) with |disc| within 2% of target; small discriminants are
    sparse, so the window doubles after each thousand misses."""
    width = 1.02
    while True:
        hi = target * width
        a_max = max(1, int((hi / 64) ** (1 / 3)))
        b_max = max(1, int((hi / 432) ** 0.5))
        for _ in range(1000):
            a, b = rng.randint(-a_max, a_max), rng.randint(-b_max, b_max)
            if target / width <= abs(curve_disc(a, b)) < hi:
                return a, b
        width *= 2


def _good_prime(rng, lo, hi, bad):
    """Random prime in [lo, hi) dividing none of `bad`."""
    while True:
        p = rng.randrange(lo, hi)
        if p > 2 and is_prime(p) and all(x % p for x in bad):
            return p


def generate(seed: int) -> dict:
    rng = random.Random(f"curves-{seed}")
    jobs = []
    for k in range(TORSION_STRATA):
        lo = 10 ** (2 + 10 * k / TORSION_STRATA)
        hi = 10 ** (2 + 10 * (k + 1) / TORSION_STRATA)
        a, b = _curve_near(rng, 10 ** rng.uniform(math.log10(lo), math.log10(hi)))
        jobs.append({"kind": "torsion", "curve": f"a={a},b={b}"})
    for spec in MAZUR:
        jobs.append({"kind": "torsion mazur", "curve": spec})
    jobs.append({"kind": "torsion baseline", "curve": "a=-1000,b=0"})
    # candidates; prepare keeps the first LEGENDRE_JOBS with a small discriminant
    jobs.append({"kind": "torsion legendre",
                 "lambdas": [str(small_lambda(rng, 9, 4)) for _ in range(10 * LEGENDRE_JOBS)]})

    lo, hi = RECURRENCE_PRIMES
    span = math.log(hi / lo) / COMPARE_JOBS
    strata = [(int(lo * math.exp(k * span)), int(lo * math.exp((k + 1) * span)))
              for k in range(COMPARE_JOBS)]
    strata += [(p, p + 1) for p in ENUMERATED_PRIMES] * (COMPARE_JOBS // len(ENUMERATED_PRIMES))
    for lo, hi in strata:
        while True:  # a small curve and a matrix; p must be good for both
            ca, cb = rng.randint(-30, 30), rng.randint(-30, 30)
            matrix = rng.choice(INCIDENCE_2X2)
            trace = matrix[0][0] + matrix[1][1]
            bad = (curve_disc(ca, cb), trace * trace - 4)
            if bad[0] and (hi - lo > 1 or all(x % lo for x in bad)):
                break
        jobs.append({"kind": "compare", "curve": f"a={ca},b={cb}", "matrix": matrix_text(matrix),
                     "p": _good_prime(rng, lo, hi, bad), "order": 3})
    a, b = _curve_near(rng, 10 ** rng.uniform(2, 4))
    bad = (curve_disc(a, b),)
    for _ in range(ZETA_JOBS):
        jobs.append({"kind": "zeta", "curve": f"a={a},b={b}",
                     "p": _good_prime(rng, 1000, 1100, bad), "order": 8})
    for _ in range(LAMBDA_JOBS):
        lam = small_lambda(rng, 9, 4)
        jobs.append({"kind": "lambdas", "lambda": str(lam), "j": str(j_of_lambda(lam))})
    jobs.append({"kind": "count enumerated", "curve": f"a={a},b={b}",
                 "p": 11 if bad[0] % 11 else 13, "n": 3})
    for _ in range(LARGE_P_JOBS):
        jobs.append({"kind": "count large p", "curve": f"a={a},b={b}",
                     "p": _good_prime(rng, 10**6, 10**6 + 10**4, bad), "n": 1})
    rng.shuffle(jobs)
    return {"workload": "curves", "seed": seed, "jobs": jobs}


def prepare(spec: dict, work) -> list:
    """Parse curves and matrices and build Legendre models through the library."""
    jobs = []
    for item in spec["jobs"]:
        kind = item["kind"]
        if kind == "torsion legendre":
            kept = 0
            for text in item["lambdas"]:
                model = afcurves.legendre_model(Fraction(text))
                if kept < LEGENDRE_JOBS and abs(model.curve.disc) <= LEGENDRE_MAX_DISC:
                    jobs.append(Job(f"{kind} |disc|<=1e10", _torsion(model.curve),
                                    _legendre_check(model.curve)))
                    kept += 1
            require(kept == LEGENDRE_JOBS, "too few small Legendre models")
            continue
        if kind == "lambdas":
            lam, j = Fraction(item["lambda"]), Fraction(item["j"])
            jobs.append(Job(kind, _lambdas(j), lambda out, lam=lam: check_lambdas(out, lam)))
            continue
        curve, _model = parse_curve_spec(item["curve"])
        if kind.startswith("torsion"):
            label = f"{kind} {item['curve']}"
            if kind == "torsion":
                label = f"torsion |disc|~1e{int(math.log10(abs(curve.disc)))}"
            expected = MAZUR.get(item["curve"]) if kind == "torsion mazur" else None
            jobs.append(Job(label, _torsion(curve), _torsion_check(curve, expected)))
        elif kind == "compare":
            a = afcurves.validate_incidence(parse_matrix(item["matrix"]))
            p, order = item["p"], item["order"]
            route = "enumerated" if p**2 <= 10**4 else "recurrence"
            jobs.append(Job(f"compare_local p {route}", _compare(curve, a, p, order),
                            _compare_check(curve, a, p, order)))
        elif kind == "zeta":
            p, order = item["p"], item["order"]
            jobs.append(Job(kind, _zeta(curve, p, order), _zeta_check(curve, p, order)))
        else:
            p, n = item["p"], item["n"]
            jobs.append(Job(f"{kind} p^n={p}^{n}", _count(curve, p, n),
                            _count_check(curve, p, n)))
    return jobs


# Calls resolve the library function at call time, so a traced run sees them.

def _torsion(curve):
    return lambda: afcurves.torsion_subgroup(curve)


def _compare(curve, a, p, order):
    return lambda: afcurves.compare_local(curve, a, p, order)


def _zeta(curve, p, order):
    return lambda: afcurves.curve_local_zeta(curve, p, order)


def _lambdas(j):
    return lambda: afcurves.rational_lambdas_from_j(j)


def _count(curve, p, n):
    return lambda: afcurves.count_points(curve, p, n)


def _torsion_check(curve, expected):
    group = None if expected is None else afcurves.AbelianGroup(expected)
    return lambda out: check_torsion(out, curve.a, curve.b, group)


def _legendre_check(curve):
    def check(out):
        check_torsion(out, curve.a, curve.b)
        require(out[0].torsion[:1] == (2,) and len(out[0].torsion) == 2,
                f"Legendre curve without full 2-torsion: {out[0]}")
    return check


def _compare_check(curve, a, p, order):
    rows = [list(r) for r in a.m.rows]
    return lambda out: check_compare_local(out, curve.a, curve.b, rows, p, order)


def _zeta_check(curve, p, order):
    return lambda out: check_zeta_series(out, curve.a, curve.b, p, order)


def _count_check(curve, p, n):
    return lambda out: check_count(out, curve.a, curve.b, p, n)
