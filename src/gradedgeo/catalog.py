"""Built-in graded manifolds and immersions used as the regression suite.

Entries
-------
``h1xh1``
    Product of two three-dimensional Heisenberg structures on R^6,
    coordinates (x, y, z, xp, yp, zp), growth (4, 6).  The metric makes the
    four horizontal fields orthonormal and gives the two vertical fields
    squared lengths ``lam`` and ``mu``.
``rototrans``
    Contact structure on R^2 x S^1: X = cos(t) dx + sin(t) dy, Y = d/dt,
    growth (2, 3).  Hypersurfaces away from singular points have degree 3.
``engel-structure``
    R^2 x S^1 x R with X1 = cos(t) dx + sin(t) dy + k dt, X2 = d/dk,
    growth (2, 3, 4).  Ruled graphs satisfying the ruling condition
    kappa = X1(theta) have pure degree 4.
``engel-group``
    Polynomial Engel structure on R^4; hosts the rigid plane of degree 3.

Immersions: ``h1xh1-surface`` (s, t) -> (s, 0, u(s), 0, t, u(s)),
``rt-graph`` theta = u(x, y), ``engel-graph`` (theta, kappa)-graph with
kappa derived from theta so the ruling condition holds exactly, and
``isolated-plane`` (v, w) -> (v, 0, w, 0).
"""

from __future__ import annotations

import numpy as np

from .exprs import Expr, add_all, call, const, dot, evaluate_at, parse, var
from .manifold import AdaptedFrame, Manifold, MetricField
from .multivec import GrowthVector
from .immersion import Immersion

__all__ = [
    "manifold",
    "immersion",
    "engel_graph_kappa",
    "isolated_plane_probe",
    "contact_area_density",
    "contact_mean_curvature_exprs",
    "engel_el_residual_exprs",
    "engel_theta_gradient_expr",
    "engel_family_field",
    "engel_admissible_normal_field",
]


# ---------------------------------------------------------------------------
# Manifolds
# ---------------------------------------------------------------------------

def _h1xh1_frame() -> AdaptedFrame:
    coords = ("x", "y", "z", "xp", "yp", "zp")
    zero = const(0.0)
    x, y, xp, yp = (var(c) for c in ("x", "y", "xp", "yp"))
    half = const(0.5)
    fields = [
        (const(1.0), zero, -half * y, zero, zero, zero),  # X
        (zero, const(1.0), half * x, zero, zero, zero),  # Y
        (zero, zero, zero, const(1.0), zero, -half * yp),  # X'
        (zero, zero, zero, zero, const(1.0), half * xp),  # Y'
        (zero, zero, const(1.0), zero, zero, zero),  # Z
        (zero, zero, zero, zero, zero, const(1.0)),  # Z'
    ]
    return AdaptedFrame(coords, fields, GrowthVector((4, 6)))


def _rototrans_frame() -> AdaptedFrame:
    coords = ("x", "y", "theta")
    zero = const(0.0)
    th = var("theta")
    fields = [
        (call("cos", th), call("sin", th), zero),  # X
        (zero, zero, const(1.0)),  # Y
        (call("sin", th), -call("cos", th), zero),  # T = [X, Y]
    ]
    return AdaptedFrame(coords, fields, GrowthVector((2, 3)))


def _engel_structure_frame() -> AdaptedFrame:
    coords = ("x", "y", "theta", "k")
    zero = const(0.0)
    th, k = var("theta"), var("k")
    fields = [
        (call("cos", th), call("sin", th), k, zero),  # X1
        (zero, zero, zero, const(1.0)),  # X2
        (zero, zero, -const(1.0), zero),  # X3 = [X1, X2]
        (-call("sin", th), call("cos", th), zero, zero),  # X4 = [X1, X3]
    ]
    return AdaptedFrame(coords, fields, GrowthVector((2, 3, 4)))


def _engel_group_frame() -> AdaptedFrame:
    coords = ("x1", "x2", "x3", "x4")
    zero = const(0.0)
    one = const(1.0)
    x1, x3 = var("x1"), var("x3")
    fields = [
        (one, zero, zero, zero),  # X1
        (zero, one, x1, x3),  # X2
        (zero, zero, one, zero),  # X3
        (zero, zero, zero, one),  # X4
    ]
    return AdaptedFrame(coords, fields, GrowthVector((2, 3, 4)))


def manifold(name: str, metric: str = "default", lam: float = 1.0, mu: float = 1.0) -> Manifold:
    """Instantiate a catalog manifold, optionally overriding the metric.

    ``metric`` is one of "default", "frame-orthonormal", "euclidean".
    ``lam``/``mu`` are the vertical squared lengths for ``h1xh1``.
    """
    if name == "h1xh1":
        frame = _h1xh1_frame()
        if metric in ("default", "frame-diagonal"):
            mf = MetricField.frame_diagonal((1.0, 1.0, 1.0, 1.0, lam, mu))
        elif metric == "frame-orthonormal":
            mf = MetricField.frame_orthonormal()
        elif metric == "euclidean":
            mf = MetricField.euclidean(6)
        else:
            raise ValueError(f"unsupported metric {metric!r} for h1xh1")
    elif name in ("rototrans", "engel-structure", "engel-group"):
        frame = {
            "rototrans": _rototrans_frame,
            "engel-structure": _engel_structure_frame,
            "engel-group": _engel_group_frame,
        }[name]()
        if metric in ("default", "frame-orthonormal"):
            mf = MetricField.frame_orthonormal()
        elif metric == "euclidean":
            mf = MetricField.euclidean(frame.n)
        else:
            raise ValueError(f"unsupported metric {metric!r} for {name}")
    else:
        raise KeyError(f"unknown catalog manifold {name!r}")
    return Manifold(frame, mf, name=name)


# ---------------------------------------------------------------------------
# Immersions
# ---------------------------------------------------------------------------

def _as_expr(value, names) -> Expr:
    if isinstance(value, Expr):
        return value
    return parse(str(value), names)


def engel_graph_kappa(theta: Expr) -> Expr:
    """kappa = X1(theta) = cos(theta) theta_x + sin(theta) theta_y."""
    return call("cos", theta) * theta.diff("x") + call("sin", theta) * theta.diff("y")


# Parameters each catalog immersion takes, besides ``domain`` and ``metric``.
_IMMERSION_PARAMS = {
    "h1xh1-surface": ("u", "lam", "mu"),
    "rt-graph": ("u",),
    "engel-graph": ("theta",),
    "isolated-plane": (),
}


def immersion(name: str, domain=None, metric: str = "default", **params) -> Immersion:
    """Instantiate a catalog immersion.

    ``engel-graph`` takes ``theta`` (expression in x, y); the second graph
    function is always derived as kappa = X1(theta) so the ruling condition
    holds exactly.  ``rt-graph`` takes ``u`` in (x, y); ``h1xh1-surface``
    takes ``u`` in (s,) (the surface construction needs u independent of t)
    and the vertical squared lengths ``lam``, ``mu`` (default 1, each finite
    and > 0: ``MetricField`` refuses any other).  Any other
    parameter is refused with a ValueError.
    """
    if name not in _IMMERSION_PARAMS:
        raise KeyError(f"unknown catalog immersion {name!r}")
    accepted = (*_IMMERSION_PARAMS[name], "metric")
    for key in params:
        if key not in accepted:
            raise ValueError(
                f"catalog entry {name!r} has no parameter {key!r} "
                f"(accepted: {', '.join(accepted)})"
            )
    if name == "engel-graph":
        theta = _as_expr(params.pop("theta", "0.2*x + 0.3*y"), ("x", "y"))
        kappa = engel_graph_kappa(theta)
        mani = manifold("engel-structure", metric=metric)
        dom = domain or ((0.0, 1.0), (0.0, 1.0))
        return Immersion(
            mani,
            ("x", "y"),
            (var("x"), var("y"), theta, kappa),
            dom,
            base_coords=(0, 1),
            name="engel-graph",
        )
    if name == "rt-graph":
        u = _as_expr(params.pop("u", "x"), ("x", "y"))
        mani = manifold("rototrans", metric=metric)
        dom = domain or ((0.0, 1.0), (0.0, 1.0))
        return Immersion(
            mani,
            ("x", "y"),
            (var("x"), var("y"), u),
            dom,
            base_coords=(0, 1),
            name="rt-graph",
        )
    if name == "h1xh1-surface":
        u = _as_expr(params.pop("u", "s"), ("s", "t"))
        if "t" in u.variables():
            raise ValueError("h1xh1-surface needs u = u(s); see the catalog docs")
        lam = float(params.pop("lam", 1.0))
        mu = float(params.pop("mu", 1.0))
        mani = manifold("h1xh1", metric=metric, lam=lam, mu=mu)
        dom = domain or ((-1.0, 1.0), (-1.0, 1.0))
        return Immersion(
            mani,
            ("s", "t"),
            (var("s"), const(0.0), u, const(0.0), var("t"), u),
            dom,
            base_coords=(0, 4),
            name="h1xh1-surface",
        )
    mani = manifold("engel-group", metric=metric)
    dom = domain or ((-1.0, 1.0), (-1.0, 1.0))
    return Immersion(
        mani,
        ("v", "w"),
        (var("v"), const(0.0), var("w"), const(0.0)),
        dom,
        base_coords=(0, 2),
        name="isolated-plane",
    )


# ---------------------------------------------------------------------------
# Structure-specific checks
# ---------------------------------------------------------------------------

def isolated_plane_probe(phi: Expr, psi: Expr, grid_points: np.ndarray) -> dict:
    """Residuals of the degree-3 constraint system for plane perturbations.

    A compactly supported perturbation (v, w) -> (v, phi, w, psi) keeps
    degree 3 only if {psi_w + w phi_w, phi_v psi_w - psi_v phi_w,
    v (phi_v psi_w - psi_v phi_w) - (psi_v + w phi_v)} all vanish; for any
    nonzero pair some constraint fails somewhere, which is how the plane's
    rigidity shows up numerically.  A constraint value that is not finite
    is refused, naming its grid point (``evaluate_at``).
    """
    v, w = var("v"), var("w")
    phi_v, phi_w = phi.diff("v"), phi.diff("w")
    psi_v, psi_w = psi.diff("v"), psi.diff("w")
    cross = phi_v * psi_w - psi_v * phi_w
    constraints = (
        psi_w + w * phi_w,
        cross,
        v * cross - (psi_v + w * phi_v),
    )
    vals = evaluate_at(constraints, ("v", "w"), grid_points)
    res = [float(np.max(np.abs(val))) for val in vals]
    return {
        "max_residual": max(res),
        "per_constraint": res,
        "trivial": max(res) == 0.0,
    }


def contact_area_density(u: Expr) -> Expr:
    """Closed-form degree-3 area integrand for rt-graphs: sqrt(1 + X(u)^2)."""
    xu = call("cos", u) * u.diff("x") + call("sin", u) * u.diff("y")
    return call("sqrt", const(1.0) + xu * xu)


def contact_mean_curvature_exprs(imm: Immersion):
    """Contact-side curvature of an rt-graph: -div^h_Sigma(nu_h) + <[nu_h, T], T>.

    ``nu_h`` is the normalized horizontal projection of the unit normal
    built from the graph function; the divergence runs over the horizontal
    tangent frame fields only.  Returns (H expression in (x, y), coordinate
    components of the unit graph normal); the scalar is the curvature along
    the normal opposite to the gradient of u - theta.
    """
    from .admissibility import frames_for
    from .manifold import lie_bracket_exprs

    if imm.name != "rt-graph":
        raise ValueError("contact curvature is defined for rt-graph immersions")
    frames = frames_for(imm)
    u = imm.components[2]
    xu = call("cos", u) * u.diff("x") + call("sin", u) * u.diff("y")
    tu = call("sin", u) * u.diff("x") - call("cos", u) * u.diff("y")
    norm_grad = call("sqrt", const(1.0) + xu * xu + tu * tu)
    # unit normal in ortho frame comps (X, Y, T): (X(u), -1, T(u)) / |...|
    n_comps = [xu / norm_grad, -const(1.0) / norm_grad, tu / norm_grad]
    nh_norm = call("sqrt", xu * xu + const(1.0)) / norm_grad
    nu_h = [xu / (norm_grad * nh_norm), -const(1.0) / (norm_grad * nh_norm), const(0.0)]
    nu_coord = frames.coord_comps(nu_h)
    horizontal = [row[: frames.flag_dims[0]] for row in frames.E_param]
    table = frames.nabla_table(horizontal, nu_coord)
    div_h = add_all([dot(dnu, e) for dnu, e in zip(table, frames.E_cols)])
    # bracket term via the graph extension (frame components held constant)
    nu_ext = frames.graph_extend_field(nu_h)
    t_field = [list(f) for f in imm.manifold.frame.fields][2]
    lie = lie_bracket_exprs(nu_ext, t_field, imm.manifold.coords)
    lie_on_m = frames.to_ortho_comps([imm.compose(c) for c in lie])
    bracket_term = lie_on_m[2]  # <[nu_h, T], T> with T the third ortho field
    return -div_h + bracket_term, n_comps


def engel_family_field(imm: Immersion, psi: Expr):
    """Variation field of the ruled-graph family theta -> theta + t psi.

    V = -psi X3 + (X1bar(psi) + X4bar(theta) psi) X2, in the adapted frame;
    the family keeps kappa = X1(theta), so V is admissible for degree 4.
    """
    from .admissibility import VariationField

    if imm.name != "engel-graph":
        raise ValueError("the theta family is specific to engel-graph")
    theta = imm.components[2]
    cos_t, sin_t = call("cos", theta), call("sin", theta)
    x1bar_psi = cos_t * psi.diff("x") + sin_t * psi.diff("y")
    x4bar_theta = -sin_t * theta.diff("x") + cos_t * theta.diff("y")
    return VariationField(
        "adapted", (const(0.0), x1bar_psi + x4bar_theta * psi, -psi, const(0.0))
    )


def engel_admissible_normal_field(imm: Immersion, psi: Expr):
    """Admissible normal field with free component psi on an Engel graph.

    Solves the one-row degree-4 normal system A a + B psi + sum_j C_j
    E_j(psi) = 0 for the control component a.
    """
    from .admissibility import VariationField, _residual_from_system, frames_for

    if imm.name != "engel-graph":
        raise ValueError("the one-row normal system is specific to engel-graph")
    fr = frames_for(imm)
    sym = fr.normal_system(4)
    (rest,) = _residual_from_system(fr, sym, [const(0.0), psi])  # control set to 0
    psi_ctrl = -rest / sym.A[0][0]
    return VariationField("normal", (psi_ctrl, psi))


def engel_el_residual_exprs(imm: Immersion):
    """Third-order stationarity residual for Engel graphs.

    Returns (residual, control_density) where ``residual`` pairs with the
    free normal component against the induced measure: for admissible
    normal fields built from a free function psi the first variation equals
    the integral of residual * psi * sqrt(det mu).  ``control_density`` is
    the coefficient a of the control component in the normalized first-order
    admissibility equation (positive on ruled graphs).
    """
    from .variation import critical_residual_exprs

    if imm.name != "engel-graph":
        raise ValueError("the third-order residual is specific to engel-graph")
    res = critical_residual_exprs(imm, 4)
    if res.iota or len(res.vert) != 1:  # k = ell = 1: no free control, one free component
        raise RuntimeError("unexpected normal splitting for engel-graph")
    return res.vert[0], res.control_scale


def engel_theta_gradient_expr(imm: Immersion):
    """Pairing density for graph perturbations theta -> theta + t psi.

    d/dt A_4 = integral of (gradient * psi) over the parameter box, so one
    explicit descent step uses theta - tau * gradient (cut off near the
    boundary).  Derived from the curvature pairing with the variation field
    V = -psi X3 + (X1bar(psi) + X4bar(theta) psi) X2 and integration by
    parts in the plane.
    """
    from .admissibility import frames_for
    from .variation import mean_curvature_field_exprs

    if imm.name != "engel-graph":
        raise ValueError("theta gradient is specific to engel-graph")
    frames = frames_for(imm)
    comps = mean_curvature_field_exprs(imm, 4)  # ortho-frame comps of H
    theta = imm.components[2]
    cos_t, sin_t = call("cos", theta), call("sin", theta)
    omega = frames.sqrt_detmu
    h_x2 = comps[1]
    h_x3 = comps[2]
    # gradient = -omega <H, X3> - X1bar(omega <H, X2>)
    g = omega * h_x2
    x1bar_g = cos_t * g.diff("x") + sin_t * g.diff("y")
    return -omega * h_x3 - x1bar_g
