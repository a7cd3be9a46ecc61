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
    lie_bracket_at,
    verify_filtration,
)
from .immersion import Immersion, degree_scan, tangent_flag, uniform_grid
from .area import (
    QuadratureGrid,
    area_degree,
    area_singular_set,
    density_theta,
    riemannian_area,
    scaling_limit_probe,
)
from .admissibility import (
    VariationField,
    assemble_adapted,
    assemble_normal,
    is_strongly_regular,
    metric_change_check,
    residual,
    split_tangent_normal,
    system_shape,
)
from .variation import (
    critical_residuals,
    div_degree_d,
    f_linear,
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
    "lie_bracket_at",
    "verify_filtration",
    "carnot_flag",
    "Immersion",
    "uniform_grid",
    "degree_scan",
    "tangent_flag",
    "QuadratureGrid",
    "density_theta",
    "area_degree",
    "riemannian_area",
    "scaling_limit_probe",
    "area_singular_set",
    "system_shape",
    "assemble_adapted",
    "assemble_normal",
    "residual",
    "is_strongly_regular",
    "split_tangent_normal",
    "metric_change_check",
    "VariationField",
    "div_degree_d",
    "f_linear",
    "first_variation",
    "mean_curvature",
    "critical_residuals",
    "catalog",
]
