"""Pieces shared by the workload modules."""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
# bytecode caches go here, not next to the sources
PYCACHE = Path(__file__).resolve().parent / ".work" / "pycache"


@dataclass(frozen=True)
class Job:
    """One timed call and the check of its output.

    `kind` groups jobs for the per-kind summary lines; `call` takes no
    arguments and looks the library function up when it runs; `check`
    raises oracles.CheckFailed when the output is wrong.  CLI jobs carry
    their `argv` instead of a call.
    """

    kind: str
    call: Callable[[], object] | None
    check: Callable[[object], None]
    argv: tuple = ()


def matrix_text(rows) -> str:
    """The `r,r;r,r` matrix text that afcurves' parse_matrix reads."""
    return ";".join(",".join(str(x) for x in row) for row in rows)


def curve_disc(a, b) -> int:
    """Discriminant of y^2 = x^3 + a x + b."""
    return -16 * (4 * a**3 + 27 * b * b)


def is_prime(m) -> bool:
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


def small_lambda(rng, height, den) -> Fraction:
    """Random Legendre parameter p/q with |p| <= height, 1 <= q <= den, not 0 or 1."""
    while True:
        lam = Fraction(rng.randint(-height, height), rng.randint(1, den))
        if lam not in (0, 1):
            return lam


def incidence_text(rng, n, extra) -> str:
    """Product of I + e_ij over a random n-cycle and `extra` random edges.

    Every factor has a unit diagonal, so the product dominates each factor:
    the cycle makes it irreducible and the diagonal makes it primitive.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[k], order[(k + 1) % n]) for k in range(n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
    rng.shuffle(edges)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        # m <- m (I + e_ij): column j gains column i
        for row in m:
            row[j] += row[i]
    return matrix_text(m)


def call(job: Job):
    """Run a job in this interpreter."""
    return job.call()


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src/ first on the
    path, and bytecode caching on whatever the caller's environment says, so
    that a CLI call costs what it costs an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# --- the reference kernel -------------------------------------------------------

# Usual times of the two reference kernels on the machine of bench/README.md.
# Timed metrics are scaled by the usual time over the kernel's time in the
# same run, so they read as time on that machine at its usual speed.
REFERENCE_MS = 16.0
SPAWN_REFERENCE_MS = 54.0

_REF_RNG = random.Random("reference")
_REF_ROWS = [[_REF_RNG.randint(-50, 50) for _ in range(14)] for _ in range(14)]


def _bareiss(rows) -> int:
    a = [row[:] for row in rows]
    n, prev, sign = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _reference_kernel():
    """Interpreter-bound work like the workloads', in no afcurves code: exact
    Bareiss determinants, Euler's criterion mod a prime, and dict updates."""
    for _ in range(4):
        _bareiss(_REF_ROWS)
    half = (10007 - 1) // 2
    squares = sum(pow((x * x * x + 3 * x + 7) % 10007, half, 10007) == 1 for x in range(10007))
    counts: dict = {}
    for i in range(20000):
        key = i * 7919 % 10007
        counts[key] = counts.get(key, 0) + 1
    return squares, len(counts)


def reference_ms() -> float:
    """Wall time, in ms, of the in-process reference kernel."""
    t0 = time.perf_counter()
    _reference_kernel()
    return (time.perf_counter() - t0) * 1e3


def spawn_reference_ms() -> float:
    """Wall time, in ms, of a fresh interpreter that runs `pass`: the
    reference for work done in child interpreters."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, env=child_env())
    return (time.perf_counter() - t0) * 1e3


IN_PROCESS = (reference_ms, REFERENCE_MS)
SPAWNED = (spawn_reference_ms, SPAWN_REFERENCE_MS)
