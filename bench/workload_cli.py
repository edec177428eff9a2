"""`cli` workload: one `python -m afcurves <cmd> --format json` process at a time.

The mix covers all nine subcommands on small inputs: snf on n = 3..8 (the
certificate path, which prints P and Q), abelianize, bowen-franks, probe
with 50 trials, cf --matrix on sqrt(d) with long periods, torsion with
|disc| <= 1e8, jmap both ways, zeta, and conjecture on a seeded synthetic
curves x thetas corpus.  The corpus is for timing only and claims nothing
about the paper's table.  A traced run calls cli.main in this interpreter
instead, so the per-layer spans are visible.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import afcurves
from afcurves import cli, contfrac, corpus, elliptic
from afcurves.exact_linalg import parse_matrix

from common import (
    SPAWNED,
    Job,
    child_env,
    curve_disc,
    incidence_text,
    matrix_text,
    small_lambda,
)
from oracles import (
    CheckFailed,
    check_compare_local,
    check_group,
    check_lambdas,
    check_torsion,
    j_of_lambda,
    lambda_orbit,
    mat_mul,
    require,
)

ROOT = Path(__file__).resolve().parent.parent
WARMUP_KIND = "jmap lambda=-1"
CHILD_PROCESSES = True
REFERENCE = SPAWNED  # each job is a fresh interpreter

SNF_DIMS = (3, 4, 5, 6, 7, 8)
CF_JOBS = 4
TORSION_JOBS = 4
CORPUS_CURVES = 4  # Legendre curves, plus the Mazur curves with expected groups
CORPUS_THETAS = 3
CORPUS_MAX_DISC = 10**8
# The conjecture calls are the dearest block of jobs but one zeta call, so
# job_ms.p90 falls inside that block.
CONJECTURE_JOBS = 5
ZETA_JOBS = 1
MAZUR = {(-43, 166): [7], (-2, 1): [4]}
# primes of every zeta call: two on the enumeration route for n = 2
# (p^2 <= 1e4) and one on the recurrence; fixed, so every seed's calls cost the same
ZETA_PRIMES = (31, 61, 151)


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def run(job) -> CliResult:
    """Run the job as its own `python -m afcurves` process."""
    proc = subprocess.run([sys.executable, "-m", "afcurves", *job.argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def run_in_process(job) -> CliResult:
    """Run the job through cli.main in this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(job.argv))
    return CliResult(code, out.getvalue(), err.getvalue())


# --- inputs -------------------------------------------------------------------


def generate(seed: int) -> dict:
    rng = random.Random(f"cli-{seed}")
    jobs = [{"kind": f"snf n={n}", "matrix": matrix_text(
        [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])} for n in SNF_DIMS]
    for n, poly in ((2, "-1,1"), (3, "1,1"), (4, "-1,-1,1")):
        jobs.append({"kind": "abelianize", "matrix": incidence_text(rng, n, n), "poly": poly})
    for n in (2, 3, 4):
        jobs.append({"kind": "bowen-franks", "matrix": incidence_text(rng, n, n)})
    for n in (2, 3):
        jobs.append({"kind": "probe", "matrix": incidence_text(rng, n, 1),
                     "seed": rng.randrange(2**31)})
    for _ in range(CF_JOBS):
        while True:
            d = rng.randrange(10**4, 3 * 10**5)
            if math.isqrt(d) ** 2 != d:
                break
        jobs.append({"kind": "cf", "d": d})
    for _ in range(TORSION_JOBS):
        while True:
            a, b = rng.randint(-300, 300), rng.randint(-2000, 2000)
            if 0 < abs(curve_disc(a, b)) <= 10**8:
                break
        jobs.append({"kind": "torsion", "curve": f"a={a},b={b}"})
    jobs.append({"kind": "jmap lambda=-1", "lambda": "-1"})
    for _ in range(2):
        lam = small_lambda(rng, 6, 3)
        jobs.append({"kind": "jmap lambda", "lambda": str(lam)})
        jobs.append({"kind": "jmap j", "lambda": str(lam), "j": str(j_of_lambda(lam))})
    for _ in range(ZETA_JOBS):
        while True:  # a curve and a matrix with good reduction at ZETA_PRIMES
            a, b = rng.randint(-9, 9), rng.randint(1, 9)
            matrix = incidence_text(rng, 2, 1)
            rows = [[int(x) for x in row.split(",")] for row in matrix.split(";")]
            bad = (curve_disc(a, b), (rows[0][0] + rows[1][1]) ** 2 - 4)
            if all(x % p for x in bad for p in ZETA_PRIMES):
                break
        jobs.append({"kind": "zeta", "curve": f"a={a},b={b}", "matrix": matrix,
                     "primes": list(ZETA_PRIMES)})
    corpus_spec = {
        "lambdas": [str(small_lambda(rng, 6, 3)) for _ in range(10 * CORPUS_CURVES)],
        "thetas": [f"({rng.randint(-5, 5)}+sqrt({d}))/1"
                   for d in rng.sample([d for d in range(2, 200) if math.isqrt(d) ** 2 != d],
                                       CORPUS_THETAS)],
    }
    jobs += [{"kind": "conjecture"}] * CONJECTURE_JOBS
    rng.shuffle(jobs)
    return {"workload": "cli", "seed": seed, "jobs": jobs, "corpus": corpus_spec}


def write_corpus(spec: dict, work: Path) -> Path:
    """Curves x thetas corpus: Legendre curves with |disc| <= 1e8 (through
    legendre_model) and two Mazur curves with their expected groups."""
    curves = []
    for text in spec["corpus"]["lambdas"]:
        if len(curves) < CORPUS_CURVES:
            if abs(afcurves.legendre_model(Fraction(text)).curve.disc) <= CORPUS_MAX_DISC:
                curves.append({"lambda": text})
    require(len(curves) == CORPUS_CURVES, "too few small Legendre curves for the corpus")
    curves += [{"a": a, "b": b, "expected_torsion": {"torsion": t, "free_rank": 0}}
               for (a, b), t in MAZUR.items()]
    entries = [
        {"label": f"c{i}-t{k}", **curve, "theta": theta, "polynomials": ["-1,1", "1,1"]}
        for i, curve in enumerate(curves)
        for k, theta in enumerate(spec["corpus"]["thetas"])
    ]
    path = work / f"cli-corpus-seed{spec['seed']}.json"
    path.write_text(json.dumps(entries, indent=1))
    return path


def prepare(spec: dict, work: Path) -> list:
    """Write and load the corpus, parse and validate every input through the
    library, and build each job's argv and output check."""
    corpus_path = write_corpus(spec, work)
    loaded = corpus.load_corpus(str(corpus_path))
    require(all(isinstance(e, corpus.CorpusEntry) for e in loaded),
            "synthetic corpus has invalid entries")
    jobs = []
    for item in spec["jobs"]:
        kind = item["kind"]
        if kind.startswith("snf"):
            argv = ("snf", "--format", "json", "--", item["matrix"])
            check = _snf_check(parse_matrix(item["matrix"]))
        elif kind == "abelianize":
            m = afcurves.validate_incidence(parse_matrix(item["matrix"]))
            argv = ("abelianize", "--format", "json", "--poly", item["poly"], item["matrix"])
            check = _group_check(m.m, item["poly"])
        elif kind == "bowen-franks":
            m = afcurves.validate_incidence(parse_matrix(item["matrix"]))
            argv = ("bowen-franks", "--format", "json", item["matrix"])
            check = _bowen_franks_check(m.m)
        elif kind == "probe":
            m = afcurves.validate_incidence(parse_matrix(item["matrix"]))
            argv = ("probe", "--format", "json", "--poly", "-1,1", "--trials", "50",
                    "--seed", str(item["seed"]), item["matrix"])
            check = _probe_check(m.m)
        elif kind == "cf":
            theta = contfrac.parse_surd(f"sqrt({item['d']})")
            argv = ("cf", "--format", "json", "--matrix", f"sqrt({theta.d_rad})")
            check = _cf_check(item["d"])
        elif kind == "torsion":
            curve, _ = elliptic.parse_curve_spec(item["curve"])
            argv = ("torsion", "--format", "json", item["curve"])
            check = _torsion_check(curve)
        elif kind == "jmap j":
            argv = ("jmap", "--format", "json", f"j={item['j']}")
            check = _jmap_j_check(Fraction(item["lambda"]))
        elif kind.startswith("jmap lambda"):
            argv = ("jmap", "--format", "json", f"lambda={item['lambda']}")
            check = _jmap_lambda_check(Fraction(item["lambda"]))
        elif kind == "zeta":
            curve, _ = elliptic.parse_curve_spec(item["curve"])
            m = afcurves.validate_incidence(parse_matrix(item["matrix"]))
            argv = ("zeta", "--format", "json", item["curve"], item["matrix"],
                    "--primes", ",".join(map(str, item["primes"])), "--order", "3")
            check = _zeta_check(curve, m.m)
        else:
            argv = ("conjecture", "--format", "json", str(corpus_path))
            check = _conjecture_check(len(loaded))
        jobs.append(Job(kind, None, _cli_check(check), argv))
    return jobs


# --- checks: exit status 0, JSON on stdout, then the same oracles as in-process ---


def _cli_check(check):
    def cli_check(result):
        require(result.returncode == 0,
                f"exit status {result.returncode}: {result.stderr.strip()[-300:]}")
        try:
            payload = json.loads(result.stdout)
        except ValueError as exc:
            raise CheckFailed(f"stdout is not JSON: {exc}") from None
        check(payload)
    return cli_check


def _rows(text):
    return [[int(x) for x in row.split(",")] for row in text.split(";")]


def _group(d):
    return afcurves.AbelianGroup(tuple(d["torsion"]), d["free_rank"])


def _snf_check(m):
    rows = [list(r) for r in m.rows]

    def check(payload):
        d = payload["diagonal"]
        p, q = _rows(payload["p_left"]), _rows(payload["q_right"])
        n = len(rows)
        require(_rows(payload["matrix"]) == rows, "echoed matrix differs")
        require(mat_mul(mat_mul(p, rows), q) == [[d[i] if i == j else 0 for j in range(n)]
                                                 for i in range(n)], "P*M*Q != diag(d)")
        for t in (p, q):
            require(abs(afcurves.determinant(afcurves.IntMatrix(t))) == 1, "P or Q not unimodular")
        nonzero = [x for x in d if x]
        require(all(x > 0 for x in nonzero) and d == nonzero + [0] * (n - len(nonzero)),
                "diagonal not in normal form")
        require(all(b % a == 0 for a, b in zip(nonzero, nonzero[1:])), "divisibility chain broken")
        require(payload["verified"] is True, "snf did not report verified")
    return check


def _group_check(m, poly):
    coeffs = [int(c) for c in poly.split(",")]
    rows = [list(r) for r in m.rows]
    return lambda payload: check_group(_group(payload["group"]), coeffs, rows)


def _bowen_franks_check(m):
    group_check = _group_check(m, "-1,1")

    def check(payload):
        group_check(payload)
        det = payload["det_a_minus_i"]
        if det:
            require(payload["order"] == abs(det), "order != |det(A - I)|")
    return check


def _probe_check(m):
    group_check = _group_check(m, "-1,1")

    def check(payload):
        require(payload["trials"] == 50 and payload["failures"] == 0,
                f"probe: {payload['failures']} failures in {payload['trials']} trials")
        group_check(payload)
    return check


def _sqrt_period(d):
    """Period of the continued fraction of sqrt(d), by the classical recurrence."""
    a0 = math.isqrt(d)
    m, q, a, period = 0, 1, a0, []
    while a != 2 * a0:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        period.append(a)
    return period


def _cf_check(d):
    period = _sqrt_period(d)
    product = [[1, 0], [0, 1]]
    for a in period:
        product = mat_mul(product, [[a, 1], [1, 0]])
    if min(min(row) for row in product) < 1:
        product = mat_mul(product, product)

    def check(payload):
        require(payload["period"] == period, f"period of sqrt({d}) differs")
        require(payload["preperiod"] == [math.isqrt(d)], "preperiod differs")
        require(_rows(payload["matrix"]) == product, "incidence matrix differs")
        require(payload["positivity_power"] == 1, "product is not strictly positive")
    return check


def _points(payload):
    return [afcurves.INFINITY] + [afcurves.Point(Fraction(x), Fraction(y))
                                  for x, y in payload["points"]]


def _torsion_check(curve):
    def check(payload):
        require(payload["curve"] == f"a={curve.a},b={curve.b}", "echoed curve differs")
        check_torsion((_group(payload["group"]), _points(payload)), curve.a, curve.b)
    return check


def _jmap_lambda_check(lam):
    def check(payload):
        require(Fraction(payload["j"]) == j_of_lambda(lam), "j differs")
        require(sorted(Fraction(x) for x in payload["orbit"]) == sorted(lambda_orbit(lam)),
                "lambda orbit differs")
    return check


def _jmap_j_check(lam):
    return lambda payload: check_lambdas([Fraction(x) for x in payload["lambdas"]], lam)


def _zeta_check(curve, m):
    rows = [list(r) for r in m.rows]

    def check(payload):
        for entry in payload:
            require("error" not in entry, f"zeta error at p = {entry['prime']}")
            report = SimpleNamespace(**entry)
            report.operator_params = SimpleNamespace(**entry["operator_params"])
            check_compare_local(report, curve.a, curve.b, rows, entry["prime"], 3)
    return check


def _conjecture_check(n_entries):
    def check(payload):
        require(len(payload) == n_entries, "conjecture dropped entries")
        for entry in payload:
            require("error" not in entry, f"{entry['label']}: {entry.get('error')}")
            torsion = _group(entry["computed_torsion"])
            require(torsion in afcurves.MAZUR_ADMISSIBLE, f"{torsion} is not in Mazur's list")
            if "expected_torsion" in entry:
                require(entry["expected_match"] is True, f"{entry['label']}: unexpected torsion")
            rows = _rows(entry["incidence"])
            for inv in entry["invariants"]:
                group = _group(inv["group"])
                check_group(group, [int(c) for c in inv["polynomial"].split(",")], rows)
                if inv["polynomial"] == "-1,1":
                    want = "match" if group == torsion else "mismatch"
                else:
                    want = "not_computed"
                require(inv["verdict"] == want, f"{entry['label']}: verdict {inv['verdict']}")
    return check
