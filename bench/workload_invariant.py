"""`invariant` workload: exact_linalg and af_invariant only.

Jobs, in one seeded order:
- quotient_group(M, p) on dense random M with entries in [-50, 50], for
  n in {4, 8, 12, 16, 24, 32} and p in {x - 1, x + 1, x^2 - x - 1};
- abelianize(A, p) on nonnegative primitive unimodular incidence matrices
  built as products of I + e_ij, n <= 16;
- invariance_probe on incidence matrices with n in {2, 3, 4, 6}, plus the
  fixed 2x2 probe of the baseline table (5,2;2,1, x - 1, 200 trials).
"""

from __future__ import annotations

import random

import afcurves
from afcurves.exact_linalg import parse_matrix, parse_poly

from common import IN_PROCESS, Job, call, incidence_text, matrix_text
from oracles import check_group, require

POLYS = {"x-1": "-1,1", "x+1": "1,1", "x^2-x-1": "-1,-1,1"}

# Matrices per pass for each (n, polynomial).  The counts put the median
# inside the n = 8 block and the 90th percentile inside the block of probes
# and n = 24 quotients, so neither lands on a gap between job sizes.
QUOTIENT_COUNTS = {
    (4, "x-1"): 16, (4, "x+1"): 16, (4, "x^2-x-1"): 16,
    (8, "x-1"): 40, (8, "x+1"): 40, (8, "x^2-x-1"): 8,
    (12, "x-1"): 6, (12, "x+1"): 6, (12, "x^2-x-1"): 4,
    (16, "x-1"): 4, (16, "x+1"): 4, (16, "x^2-x-1"): 6,
    (24, "x-1"): 3, (24, "x+1"): 3, (24, "x^2-x-1"): 4,
    (32, "x-1"): 3, (32, "x+1"): 3, (32, "x^2-x-1"): 2,
}
ABELIANIZE_DIMS = (2, 3, 4, 6, 8, 12, 16, 2, 3, 4, 6, 8) * 2
# trials per probe, sized so that each probe costs about the same
PROBE_TRIALS = {2: 300, 3: 160, 4: 70, 6: 30}
PROBES_PER_DIM = 4

WARMUP_KIND = "probe n=2 x-1 trials=200"
CHILD_PROCESSES = False
REFERENCE = IN_PROCESS
run = run_in_process = call


def generate(seed: int) -> dict:
    rng = random.Random(f"invariant-{seed}")
    quotient = [
        {"n": n, "poly": name, "matrix": matrix_text(
            [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)])}
        for (n, name), count in QUOTIENT_COUNTS.items()
        for _ in range(count)
    ]
    abelianize = [
        {"n": n, "poly": name, "matrix": incidence_text(rng, n, n // 2)}
        for n, name in zip(ABELIANIZE_DIMS, list(POLYS) * len(ABELIANIZE_DIMS))
    ]
    probes = [
        {"n": n, "poly": "x-1", "trials": trials, "seed": rng.randrange(2**32),
         "matrix": incidence_text(rng, n, 1)}
        for n, trials in PROBE_TRIALS.items()
        for _ in range(PROBES_PER_DIM)
    ]
    probes.append({"n": 2, "poly": "x-1", "trials": 200, "seed": 0, "matrix": "5,2;2,1"})
    jobs = (
        [("quotient", spec) for spec in quotient]
        + [("abelianize", spec) for spec in abelianize]
        + [("probe", spec) for spec in probes]
    )
    rng.shuffle(jobs)
    return {"workload": "invariant", "seed": seed, "jobs": jobs}


def prepare(spec: dict, work) -> list:
    """Parse and validate the generated inputs through the library."""
    jobs = []
    for kind, item in spec["jobs"]:
        m = parse_matrix(item["matrix"])
        p = parse_poly(POLYS[item["poly"]])
        label = f"{kind} n={item['n']} {item['poly']}"
        if kind == "quotient":
            jobs.append(Job(label, _quotient(m, p), _group_check(p, m)))
        elif kind == "abelianize":
            a = afcurves.validate_incidence(m)
            jobs.append(Job(label, _abelianize(a, p), _group_check(p, m)))
        else:
            a = afcurves.validate_incidence(m)
            jobs.append(Job(
                f"{label} trials={item['trials']}",
                _probe(a, p, item["trials"], item["seed"]),
                _probe_check(p, m, item["trials"]),
            ))
    return jobs


# Calls resolve the library function at call time, so a traced run sees them.

def _quotient(m, p):
    return lambda: afcurves.quotient_group(m, p)


def _abelianize(a, p):
    return lambda: afcurves.abelianize(a, p)


def _probe(a, p, trials, seed):
    return lambda: afcurves.invariance_probe(a, p, trials=trials, seed=seed)


def _group_check(p, m):
    return lambda group: check_group(group, list(p.coeffs), [list(r) for r in m.rows])


def _probe_check(p, m, trials):
    def check(report):
        require(report.trials == trials, f"{report.trials} trials, asked {trials}")
        require(report.failures == 0, f"{report.failures} probe failures")
        check_group(report.group, list(p.coeffs), [list(r) for r in m.rows])
    return check
