"""The command line with the whole package loaded: `main` is afcurves.shell.main.

`python -m afcurves` and the `afcurves` script run afcurves.shell, which
imports only what a command runs.  Importing this module loads every
afcurves module as well, for code that runs commands in process and works on
the modules themselves: the benchmark loads the modules its tracer wraps
through this import, before any command runs.
"""

from . import af_invariant, contfrac, corpus, elliptic, exact_linalg, zeta  # noqa: F401
from .shell import main  # noqa: F401
