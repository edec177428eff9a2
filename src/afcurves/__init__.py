"""Exact computation of abelianized AF-algebra invariants and their
elliptic-curve counterparts: Smith normal forms with certificates,
continued fractions of quadratic irrationals, Legendre-curve torsion, and
local zeta data on the curve and operator sides."""

from .af_invariant import (
    AbelianGroup,
    IncidenceMatrix,
    ProbeReport,
    abelianize,
    bowen_franks,
    invariance_probe,
    quotient_group,
    validate_incidence,
)
from .contfrac import (
    PeriodicCF,
    QuadraticIrrational,
    expand,
    incidence_from_period,
)
from .elliptic import (
    CurveQ,
    INFINITY,
    LegendreModel,
    MAZUR_ADMISSIBLE,
    Point,
    add_points,
    j_from_lambda,
    lambda_orbit,
    legendre_model,
    mul_point,
    rational_lambdas_from_j,
    torsion_subgroup,
)
from .exact_linalg import (
    IntMatrix,
    IntPolynomial,
    SmithDecomposition,
    determinant,
    is_unimodular,
    mat_poly_eval,
    smith_diagonal,
    snf,
)
from .zeta import (
    LocalZetaReport,
    compare_local,
    count_points,
    curve_local_zeta,
    operator_local_zeta_counts,
    trace_frobenius,
)

__version__ = "0.1.0"
