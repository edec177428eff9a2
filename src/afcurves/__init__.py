"""Exact computation of abelianized AF-algebra invariants and their
elliptic-curve counterparts: Smith normal forms with certificates,
continued fractions of quadratic irrationals, Legendre-curve torsion, and
local zeta data on the curve and operator sides.

`import afcurves` loads no submodule.  Each exported name is imported from
its module on first access (PEP 562) and then kept in this namespace, so a
later `afcurves.<name>` is a plain lookup.
"""

import importlib

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "af_invariant": "IncidenceMatrix ProbeReport abelianize bowen_franks "
        "invariance_probe quotient_group validate_incidence",
        "contfrac": "PeriodicCF QuadraticIrrational expand incidence_from_period",
        "elliptic": "CurveQ INFINITY LegendreModel MAZUR_ADMISSIBLE Point add_points "
        "j_from_lambda lambda_orbit legendre_model mul_point "
        "rational_lambdas_from_j torsion_subgroup",
        "exact_linalg": "AbelianGroup IntMatrix IntPolynomial SmithDecomposition "
        "determinant is_unimodular mat_poly_eval smith_diagonal snf",
        "zeta": "LocalZetaReport compare_local count_points curve_local_zeta "
        "operator_local_zeta_counts trace_frobenius",
    }.items()
    for name in names.split()
}
__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
