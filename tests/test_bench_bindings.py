"""The benchmark tracer binds library functions by name; a rename must fail here."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import afcurves.cli  # noqa: F401  (loads every module the tracer binds)
from afcurves import exact_linalg, zeta

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


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


def test_importing_the_cli_loads_every_module_the_tracer_binds():
    # bench/run.py imports afcurves and afcurves.cli and nothing else of the
    # package before a traced run installs the tracer; in a fresh interpreter
    # no other test has loaded a module for it
    code = (
        "import afcurves, afcurves.cli, sys\n"
        f"sys.path.insert(0, {str(TRACER.parent)!r})\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
