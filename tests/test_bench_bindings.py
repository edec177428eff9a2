"""The benchmark tracer binds library functions by name; a rename must fail here."""

import importlib.util
from pathlib import Path

import afcurves.cli  # noqa: F401  (loads every module the tracer binds)
from afcurves import exact_linalg, zeta

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("afcurves_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (
        exact_linalg.unimodular_inverse,
        zeta.count_points_enumerated,
        exact_linalg.SmithDecomposition.verify,
    )
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert exact_linalg.unimodular_inverse is not originals[0]
    finally:
        tracer.uninstall()
    assert (
        exact_linalg.unimodular_inverse,
        zeta.count_points_enumerated,
        exact_linalg.SmithDecomposition.verify,
    ) == originals
