"""Numerical toolkit for fixed-degree submanifold geometry in graded manifolds.

The package computes degrees of immersed submanifolds, degree-d area
functionals, admissibility systems for degree-preserving variations, strong
regularity tests and first-variation / mean-curvature quantities, with a
catalog of built-in structures (Heisenberg products, the roto-translational
group, Engel-type structures) used as a regression suite.
"""

from .exprs import Expr, EvaluationError, ExprError, ParseError, derive, parse
from .multivec import (
    GrowthVector,
    d_max,
    degree_of_index,
    dim_gt,
    dim_leq,
)
from .manifold import (
    AdaptedFrame,
    Manifold,
    MetricField,
    carnot_flag,
    verify_filtration,
)
from .immersion import Immersion, degree_scan, tangent_flag, uniform_grid
from .area import (
    QuadratureGrid,
    area_degree,
    area_singular_set,
    riemannian_area,
    scaling_limit_probe,
)
from .admissibility import (
    VariationField,
    is_strongly_regular,
    metric_change_check,
    residual,
    system_shape,
)
from .variation import (
    first_variation,
    mean_curvature,
)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "EvaluationError",
    "parse",
    "derive",
    "GrowthVector",
    "degree_of_index",
    "d_max",
    "dim_leq",
    "dim_gt",
    "AdaptedFrame",
    "MetricField",
    "Manifold",
    "verify_filtration",
    "carnot_flag",
    "Immersion",
    "uniform_grid",
    "degree_scan",
    "tangent_flag",
    "QuadratureGrid",
    "area_degree",
    "riemannian_area",
    "scaling_limit_probe",
    "area_singular_set",
    "system_shape",
    "residual",
    "is_strongly_regular",
    "metric_change_check",
    "VariationField",
    "first_variation",
    "mean_curvature",
    "catalog",
]
