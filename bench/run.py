#!/usr/bin/env python3
"""afcurves benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload invariant --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  bench/README.md lists every
metric.  The program under test is imported from `src/` of the checkout the
script sits in; nothing is installed and nothing under `src/` is touched.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.pycache_prefix = str(Path(__file__).resolve().parent / ".work" / "pycache")
import common  # noqa: E402  (after the cache prefix is set)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
WORKLOADS = ("invariant", "curves", "cli")
SETUP_REPEATS = 9  # fresh interpreters per run for setup_s
SPAWN_REPEATS = 9  # fresh interpreters per run for cli.interp_ms and cli.import_ms
REF_EVERY_S = 0.4  # job time between two samples of the reference kernel


def die(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import afcurves from this checkout's src/, or exit non-zero."""
    if sys.flags.optimize:
        die("refusing to run under python -O: the SNF self-check is an assert, "
            "so an optimized run measures a different program")
    init = SRC / "afcurves" / "__init__.py"
    if not init.is_file():
        die(f"no afcurves sources at {init}")
    sys.path.insert(0, str(SRC))
    import afcurves
    import afcurves.cli  # noqa: F401  (every module the tracer may wrap)

    if Path(afcurves.__file__).resolve() != init.resolve():
        die(f"afcurves was imported from {afcurves.__file__}, not from {SRC}")


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# --- inputs -------------------------------------------------------------------


def set_up(name: str, seed: int):
    """Generate the seeded inputs, write them, read them back through the
    library's parsers and validators, and run the warm-up job."""
    module = importlib.import_module(f"workload_{name}")
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{name}-seed{seed}.json"
    path.write_text(json.dumps(module.generate(seed), indent=1))
    spec = json.loads(path.read_text())
    jobs = module.prepare(spec, WORK)
    warmup = next(job for job in jobs if job.kind == module.WARMUP_KIND)
    warmup.check(module.run(warmup))
    return module, jobs, spec


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters running set_up(), each scaled
    by a bare interpreter timed just before it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", name, "--seed", str(seed)]
    kernel, usual_ms = common.SPAWNED
    samples = []
    for _ in range(SETUP_REPEATS):
        scale = usual_ms / statistics.median(kernel() for _ in range(3))
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, env=common.child_env(),
                       stdout=subprocess.DEVNULL)
        samples.append((time.perf_counter() - t0) * scale)
    return statistics.median(samples)


def spawn_ms(code: str) -> float:
    """Median wall time, in ms, of a fresh interpreter running `code`."""
    samples = []
    for _ in range(SPAWN_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       env=common.child_env())
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


# --- the closed loop ----------------------------------------------------------


@dataclass(frozen=True)
class JobError:
    error: str


@dataclass
class Loop:
    job_times: list  # seconds, scaled by the reference kernel
    raw_times: list  # seconds as measured
    pass_times: list
    reference_ms: list  # every sample of the reference kernel


class Checker:
    """Checks the outputs of each pass as soon as it ends, so that no pass
    keeps the outputs of earlier ones alive.  An output equal to one already
    checked for the same job reuses its verdict.  Prints each failure to
    stderr."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.verdicts = [[] for _ in jobs]  # per job: (output, ok)
        self.failed = 0

    def __call__(self, outputs):
        from oracles import CheckFailed

        for job, verdicts, out in zip(self.jobs, self.verdicts, outputs):
            ok = next((v for prev, v in verdicts if prev == out), None)
            if ok is None:
                try:
                    if isinstance(out, JobError):
                        raise CheckFailed(out.error)
                    job.check(out)
                    ok = True
                except CheckFailed as exc:
                    print(f"bench: FAILED {job.kind}: {exc}", file=sys.stderr)
                    ok = False
                verdicts.append((out, ok))
            self.failed += not ok


def timed_passes(jobs, seconds, run, reference, check, before_pass=None,
                 after_pass=None) -> Loop:
    """Run whole passes over the job list, in order, for about `seconds`.

    Every pass holds the same job mix.  Another pass starts only while it
    is expected to end within `seconds`; the first always runs.  Between
    jobs, after every REF_EVERY_S of job time, the `reference` kernel is
    timed; each job time is scaled by the kernel's usual time over its
    median time in the pass, so a slow stretch of a shared machine, which
    slows the kernel as much as the jobs, does not read as a slower
    program.  `check` gets each pass's outputs.  It, the hooks and the
    kernel run outside the timed region.
    """
    kernel, usual_ms = reference
    loop = Loop([], [], [], [])
    clock = time.perf_counter
    elapsed = 0.0
    while not loop.pass_times or elapsed * (1 + 1 / len(loop.pass_times)) <= seconds:
        if before_pass:
            before_pass()
        outputs, raw, refs, since = [], [], [kernel()], 0.0
        t_pass = clock()
        for job in jobs:
            t0 = clock()
            try:
                out = run(job)
            except Exception as exc:  # a failed job is counted, not fatal
                out = JobError(f"{type(exc).__name__}: {exc}")
            raw.append(clock() - t0)
            outputs.append(out)
            since += raw[-1]
            if since >= REF_EVERY_S:
                refs.append(kernel())
                since = 0.0
        refs.append(kernel())
        dt = clock() - t_pass
        scale = usual_ms / statistics.median(refs)
        loop.job_times += [t * scale for t in raw]
        loop.raw_times += raw
        loop.reference_ms += refs
        elapsed += dt
        loop.pass_times.append(dt)
        if after_pass:
            after_pass()
        check(outputs)  # after the hook, so a traced pass's spans leave the checks out
        del outputs
    return loop


def jobs_per_s(times, n_jobs) -> float:
    """Jobs per second from each job's median time over the passes, so a
    slow stretch of the machine during one pass does not set the figure."""
    per_job = [statistics.median(times[i::n_jobs]) for i in range(n_jobs)]
    return n_jobs / sum(per_job)


def reference_note(loop, reference) -> str:
    ref = statistics.median(loop.reference_ms)
    return (f"{reference[0].__name__} median {ref:.3f} ms over "
            f"{len(loop.reference_ms)} samples; times scaled by {reference[1] / ref:.4f}")


def quantiles_ms(times):
    q = statistics.quantiles(times, n=10, method="inclusive")
    return q[4] * 1e3, q[8] * 1e3


def kind_summary(jobs, loop):
    per_kind = {}
    n = len(jobs)
    for k, t in enumerate(loop.job_times):
        per_kind.setdefault(jobs[k % n].kind, []).append(t * 1e3)
    return {kind: (statistics.median(ts), len(ts)) for kind, ts in sorted(per_kind.items())}


# --- the two kinds of run ---------------------------------------------------------


def run_end_to_end(args, module, jobs, spec):
    checker = Checker(jobs)
    loop = timed_passes(jobs, args.seconds, module.run, module.REFERENCE, checker)
    if module.CHILD_PROCESSES:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = checker.failed
    setup_s = measure_setup(args.workload, args.seed)
    p50, p90 = quantiles_ms(loop.job_times)
    attempted = len(loop.job_times)
    metrics = {
        "jobs_per_s": (jobs_per_s(loop.job_times, len(jobs)), "1/s"),
        "job_ms.p50": (p50, "ms"),
        "job_ms.p90": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    notes = {
        "jobs per pass": len(jobs),
        "passes": len(loop.pass_times),
        "reference kernel": reference_note(loop, module.REFERENCE),
        "unscaled jobs_per_s, job_ms.p50, job_ms.p90": "%.4f, %.4f, %.4f" % (
            jobs_per_s(loop.raw_times, len(jobs)), *quantiles_ms(loop.raw_times)),
        "latency samples": attempted,
        "failed_frac": f"{failed / attempted:.4f} ({failed} of {attempted})",
    }
    return metrics, attempted, failed, notes, kind_summary(jobs, loop)


def run_traced(args, module, jobs, spec):
    from tracer import Tracer

    run = module.run_in_process
    half = args.seconds / 2
    checker = Checker(jobs)
    untraced = timed_passes(jobs, half, run, common.IN_PROCESS, checker)
    tracer = Tracer()
    per_pass = []
    with tracer:
        module.prepare(spec, WORK)  # the input building that setup_s covers
        in_setup = tracer.metrics()
        traced = timed_passes(jobs, half, run, common.IN_PROCESS, checker, tracer.reset,
                              lambda: per_pass.append(tracer.metrics()))
    loops = [untraced, traced]
    # median_low picks one pass's value, so counts stay whole numbers
    layer = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    for prefix in SETUP_SPANS:
        layer[f"{prefix}.setup_self_ms"] = in_setup[f"{prefix}.self_ms"]
    if module.CHILD_PROCESSES:
        calls = timed_passes(jobs, 0, module.run, module.REFERENCE, checker)
        loops.append(calls)
        layer["cli.call_ms"] = statistics.median(calls.raw_times) * 1e3
    else:
        layer["cli.call_ms"] = 0.0
    interp = spawn_ms("pass")
    layer["cli.interp_ms"] = interp
    layer["cli.import_ms"] = spawn_ms("import afcurves.cli") - interp
    layer["bench.trace_overhead_frac"] = (
        jobs_per_s(untraced.job_times, len(jobs)) / jobs_per_s(traced.job_times, len(jobs)) - 1
    )
    failed = checker.failed
    attempted = sum(len(loop.job_times) for loop in loops)
    units = {"calls": "count", "self_ms": "ms", "total_ms": "ms", "setup_self_ms": "ms"}
    metrics = {
        name: (value, units.get(name.rsplit(".", 1)[1], LAYER_UNITS.get(name, "count")))
        for name, value in layer.items()
    }
    notes = {
        "untraced passes": len(untraced.pass_times),
        "traced passes": len(traced.pass_times),
        "per-layer numbers": "median over traced passes of each pass's total",
        "failed": f"{failed} of {attempted}",
    }
    return metrics, attempted, failed, notes, kind_summary(jobs, traced)


# layers that build the inputs; their set-up self time is reported too
SETUP_SPANS = ("af_invariant.validate_incidence", "elliptic.legendre_model",
               "corpus.load_corpus")

LAYER_UNITS = {
    "exact_linalg.snf.pq_max_bits": "bits",
    "contfrac.incidence.max_bits": "bits",
    "contfrac.expand.period_len_max": "terms",
    "exact_linalg.verify.share_of_snf": "ratio",
    "elliptic.torsion.points_per_add": "ratio",
    "zeta.route.enumerated_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
    "cli.call_ms": "ms",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
}


def run_one(args):
    load_library()
    module, jobs, spec = set_up(args.workload, args.seed)
    if args.setup_only:
        return None
    runner = run_traced if args.trace else run_end_to_end
    metrics, attempted, failed, notes, kinds = runner(args, module, jobs, spec)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")
    for name, value in notes.items():
        print(f"  {name}: {value}")
    for kind, (median_ms, count) in kinds.items():
        print(f"    {kind:<40} median {median_ms:10.2f} ms  n={count}")
    record = {"env": env, "notes": notes, "kinds": kinds,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own interpreter; metrics prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            die(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args)
    if result is not None:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
