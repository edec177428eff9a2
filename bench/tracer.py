"""Span tracer that wraps afcurves' public functions from outside the package.

`Tracer.install()` replaces each traced function under every name that binds
it: the defining module, every afcurves module that re-imported it (for
example `af_invariant.snf` or `cli.snf`), the package namespace, and the two
traced methods on their classes.  `uninstall()` puts every original back and
checks that it did.  Nothing under `src/` is edited.

Self time is a span's duration minus the duration of the traced spans nested
in it.  Counters derived from return values are computed after the span
closes and charged to no span.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs traced by name; metric prefix is `<module>.<function>`
FUNCTIONS = (
    ("exact_linalg", "snf"),
    ("exact_linalg", "determinant"),
    ("exact_linalg", "is_unimodular"),
    ("exact_linalg", "mat_pow"),
    ("exact_linalg", "mat_poly_eval"),
    ("exact_linalg", "unimodular_inverse"),
    ("exact_linalg", "random_glnz"),
    ("af_invariant", "validate_incidence"),
    ("af_invariant", "quotient_group"),
    ("af_invariant", "invariance_probe"),
    ("contfrac", "expand"),
    ("contfrac", "incidence_from_period"),
    ("elliptic", "torsion_subgroup"),
    ("elliptic", "add_points"),
    ("elliptic", "legendre_model"),
    ("elliptic", "rational_lambdas_from_j"),
    ("zeta", "count_points"),
    ("zeta", "count_points_enumerated"),
    ("zeta", "trace_frobenius"),
    ("zeta", "is_prime"),
    ("zeta", "compare_local"),
    ("zeta", "curve_local_zeta"),
    ("zeta", "operator_local_zeta_counts"),
    ("corpus", "load_corpus"),
    ("corpus", "run_entry"),
    ("cli", "main"),
)

# (module, class, attribute, metric name) for traced methods
METHODS = (
    ("exact_linalg", "IntMatrix", "__matmul__", "matmul"),
    ("exact_linalg", "SmithDecomposition", "verify", "verify"),
)

# spans whose inclusive time is reported too, so verify's share of snf shows
INCLUSIVE = ("exact_linalg.snf", "exact_linalg.verify")


def _max_entry_bits(*matrices) -> int:
    return max(abs(x).bit_length() for m in matrices for row in m.rows for x in row)


def _extension_degree(args, kwargs) -> int:
    return args[2] if len(args) > 2 else kwargs.get("n", 1)


class Tracer:
    """Per-function call counts, self and inclusive time, plus counters."""

    def __init__(self):
        self._installed = []  # (owner, attribute, original)
        self._stack = []  # child-time accumulators of the open spans
        self.reset()

    def reset(self):
        self.stats = {}  # prefix -> [calls, self_s, total_s]
        self.counters = {}

    def _count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def _max(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    # -- counters taken from arguments and results at the layer boundary --

    def _before(self, prefix, args, kwargs):
        if prefix == "zeta.count_points" and _extension_degree(args, kwargs) > 1:
            self._count("route.counts_n_gt_1")
        elif prefix == "zeta.count_points_enumerated" and _extension_degree(args, kwargs) > 1:
            self._count("route.enumerated_n_gt_1")

    def _after(self, prefix, result):
        if prefix == "exact_linalg.snf":
            self._max("snf.pq_max_bits", _max_entry_bits(result.p_left, result.q_right))
        elif prefix == "af_invariant.invariance_probe":
            self._count("probe.trials", result.trials)
            self._count("probe.failures", result.failures)
        elif prefix == "contfrac.expand":
            self._max("expand.period_len_max", len(result.period))
        elif prefix == "contfrac.incidence_from_period":
            self._max("incidence.max_bits", _max_entry_bits(result.m))
        elif prefix == "elliptic.torsion_subgroup":
            self._count("torsion.points", len(result[1]))
        elif prefix == "corpus.run_entry" and result.error is not None:
            self._count("run_entry.errors")

    # -- wrapping --

    def _wrap(self, prefix, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stat = tracer.stats.get(prefix)
            if stat is None:
                stat = tracer.stats[prefix] = [0, 0.0, 0.0]
            tracer._before(prefix, args, kwargs)
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += (t1 - t0) - children[0]
                stat[2] += t1 - t0
                if stack:
                    stack[-1][0] += t1 - t0
            t2 = clock()
            tracer._after(prefix, result)
            if stack:
                # counter work after the span is hidden from the parent too
                stack[-1][0] += clock() - t2
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", prefix)
        return traced

    def install(self):
        if self._installed:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "afcurves" or name.startswith("afcurves."))
        ]
        try:
            for mod_name, fn_name in FUNCTIONS:
                original = getattr(sys.modules[f"afcurves.{mod_name}"], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                bound = 0
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._installed.append((module, attr, original))
                            setattr(module, attr, wrapper)
                            bound += 1
                if bound == 0:
                    raise RuntimeError(f"{mod_name}.{fn_name} is bound nowhere")
            for mod_name, cls_name, attr, metric in METHODS:
                cls = getattr(sys.modules[f"afcurves.{mod_name}"], cls_name)
                original = cls.__dict__[attr]
                self._installed.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{mod_name}.{metric}", original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        installed, self._installed = self._installed, []
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
        for owner, attr, original in installed:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self) -> dict:
        """Per-layer numbers for everything recorded since the last reset."""
        out = {}
        for mod_name, fn_name in FUNCTIONS:
            self._emit(out, f"{mod_name}.{fn_name}")
        for mod_name, _cls, _attr, metric in METHODS:
            self._emit(out, f"{mod_name}.{metric}")
        c = self.counters
        out["exact_linalg.snf.pq_max_bits"] = c.get("snf.pq_max_bits", 0)
        snf_total = self.stats.get("exact_linalg.snf", [0, 0.0, 0.0])[2]
        verify_total = self.stats.get("exact_linalg.verify", [0, 0.0, 0.0])[2]
        out["exact_linalg.verify.share_of_snf"] = (
            verify_total / snf_total if snf_total else 0.0
        )
        out["af_invariant.probe.trials"] = c.get("probe.trials", 0)
        out["af_invariant.probe.failures"] = c.get("probe.failures", 0)
        out["contfrac.expand.period_len_max"] = c.get("expand.period_len_max", 0)
        out["contfrac.incidence.max_bits"] = c.get("incidence.max_bits", 0)
        adds = out["elliptic.add_points.calls"]
        out["elliptic.torsion.points_per_add"] = (
            c.get("torsion.points", 0) / adds if adds else 0.0
        )
        n_gt_1 = c.get("route.counts_n_gt_1", 0)
        out["zeta.route.enumerated_frac"] = (
            c.get("route.enumerated_n_gt_1", 0) / n_gt_1 if n_gt_1 else 0.0
        )
        out["corpus.run_entry.errors"] = c.get("run_entry.errors", 0)
        return out

    def _emit(self, out, prefix):
        calls, self_s, total_s = self.stats.get(prefix, (0, 0.0, 0.0))
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.self_ms"] = self_s * 1e3
        if prefix in INCLUSIVE:
            out[f"{prefix}.total_ms"] = total_s * 1e3
