"""A CLI call loads only the modules its command runs, and `import afcurves`
loads none: the package namespace resolves each export on first access.
`import afcurves.cli` still loads them all.  The curve modules import no AF
code: AbelianGroup, which a curve's torsion is given as, is an exact_linalg
value type.

Each case runs in a fresh interpreter and compares sys.modules before and
after inside the child, so whatever the interpreter loads at startup (a site
.pth file, say) does not count.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import afcurves

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = str(ROOT / "data" / "cm_corpus.json")
LIBRARY = {f"afcurves.{m}" for m in ("contfrac", "elliptic", "zeta", "corpus")}
RATIONALS = {"fractions", "decimal"}


def modules_added(statement: str) -> set:
    """The modules `statement` adds to sys.modules in a fresh interpreter."""
    code = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "before = set(sys.modules)\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    {statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        check=True,
    )
    return set(json.loads(done.stdout))


def call_loads(*argv) -> set:
    """The modules `afcurves.shell.main(argv)`, what `python -m afcurves`
    runs, adds, its own import included."""
    return modules_added(f"__import__('afcurves.shell').shell.main({list(argv)!r})")


SHELL_ONLY = LIBRARY | RATIONALS | {"csv"}
NO_CORPUS = {"afcurves.corpus", "csv"}
NO_AF_LAYER = NO_CORPUS | {"afcurves.af_invariant"}
CALLS = [
    (["snf", "4,2;2,0"], SHELL_ONLY),
    (["abelianize", "2,1;1,1", "--poly=-1,1"], SHELL_ONLY),
    (["bowen-franks", "2,1;1,1"], SHELL_ONLY),
    (["probe", "2,1;1,1", "--poly=-1,-1,1", "--trials", "3"], RATIONALS),
    (["cf", "sqrt(7)", "--matrix"], RATIONALS),
    (["torsion", "a=-1,b=0"], NO_AF_LAYER),
    (["jmap", "j=1728"], NO_AF_LAYER),
    (["zeta", "a=-1,b=0", "2,1;1,1", "--primes", "5"], NO_CORPUS),
]


@pytest.mark.parametrize(
    "argv,absent", [pytest.param(argv, absent, id=argv[0]) for argv, absent in CALLS]
)
def test_a_call_loads_only_what_its_command_runs(argv, absent):
    loaded = call_loads(*argv)
    assert "afcurves.shell" in loaded
    assert loaded & (absent | {"afcurves.cli"}) == set()


def test_conjecture_loads_the_corpus_reader_and_what_it_runs():
    loaded = call_loads("conjecture", CORPUS)
    expected = {f"afcurves.{m}" for m in ("af_invariant", "contfrac", "elliptic", "corpus")}
    assert expected | {"csv", "fractions"} <= loaded


def test_importing_the_cli_loads_every_module():
    library = {"af_invariant", "contfrac", "corpus", "elliptic", "exact_linalg", "shell", "zeta"}
    assert {f"afcurves.{m}" for m in library} <= modules_added("import afcurves.cli")


@pytest.mark.parametrize("module", ["elliptic", "zeta"])
def test_a_curve_module_imports_no_af_code(module):
    loaded = modules_added(f"import afcurves.{module}")
    assert f"afcurves.{module}" in loaded
    assert "afcurves.af_invariant" not in loaded


def test_abelian_group_is_one_class_under_every_name():
    from afcurves import af_invariant, exact_linalg
    assert afcurves.AbelianGroup is af_invariant.AbelianGroup is exact_linalg.AbelianGroup


def test_importing_the_package_loads_no_submodule():
    assert {m for m in modules_added("import afcurves") if m.startswith("afcurves.")} == set()


@pytest.mark.parametrize("name", sorted(afcurves._EXPORTS))
def test_each_export_is_its_module_attribute(name):
    module = importlib.import_module(f"afcurves.{afcurves._EXPORTS[name]}")
    assert getattr(afcurves, name) is getattr(module, name)


def test_dir_and_star_import_hold_the_export_table():
    assert set(afcurves._EXPORTS) <= set(dir(afcurves))
    namespace: dict = {}
    exec("from afcurves import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(afcurves._EXPORTS)


def test_a_resolved_export_is_a_plain_global():
    afcurves.snf  # noqa: B018  (resolves it)
    assert vars(afcurves)["snf"] is afcurves.exact_linalg.snf


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        afcurves.nonexistent  # noqa: B018
    assert not hasattr(afcurves, "to_fraction")
