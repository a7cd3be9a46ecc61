"""First variation, mean curvature, and stationarity residuals.

The first variation of the degree-d area along a compactly supported field
V is the integral of (div_d V + f(V)) / Theta against the induced measure,
where div_d is the degree-d divergence and f the curvature pairing with the
degree-d simple m-vectors.  Integrating by parts turns this into the
pairing with a normal mean-curvature field H_d, computed here from three
summand groups built on symbolic tangent/normal frames (the normal frame is
differentiated exactly, not numerically).  For strongly regular immersions
the controls can be eliminated from the admissibility system, leaving the
stationarity residuals; for the Engel-type ruled graphs the remaining
residual is a third-order operator in the graph function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admissibility import VariationField, frames_for
from .area import QuadratureGrid
from .exprs import Expr, const, dot
from .immersion import Immersion
from .multivec import ACTIVE_REL_TOL, SUPPORT_TOL, THETA_FLOOR
from .symmat import einverse, emat_mul, ematvec, etranspose

__all__ = [
    "MeanCurvatureAtPoint",
    "CriticalResidualExprs",
    "first_variation",
    "mean_curvature",
    "mean_curvature_field_exprs",
    "duality_integral",
    "critical_residual_exprs",
]

def _support_check(imm: Immersion, comps):
    """Refuse a field that does not vanish, or is not finite, on the domain boundary."""
    pts = []
    for axis in range(imm.m):
        for end in (0, 1):
            for t in np.linspace(0.0, 1.0, 33):
                p = [lo + t * (hi - lo) for lo, hi in imm.domain]
                p[axis] = imm.domain[axis][end]
                pts.append(p)
    peak = float(np.max(np.abs(imm.values_at(comps, pts))))
    if peak > SUPPORT_TOL:
        raise ValueError(
            f"variation field does not vanish on the domain boundary (max {peak:.2e})"
        )


def first_variation(imm: Immersion, field: VariationField, grid: QuadratureGrid,
                    d: int) -> float:
    """First variation of the degree-d area along a compactly supported field."""
    roots = frames_for(imm).first_variation_roots(field, d)
    _support_check(imm, roots[2:])
    integrand_vals, theta_vals, *comp_vals = imm.values_at(roots, grid.points)
    vnorm = np.zeros(len(grid))
    for v in comp_vals:
        vnorm = np.maximum(vnorm, np.abs(v))
    active = vnorm > ACTIVE_REL_TOL * max(vnorm.max(), 1e-300)
    if np.any(active) and float(np.min(theta_vals[active])) < THETA_FLOOR:
        raise ValueError("degree-d density vanishes inside the support of the field")
    return grid.integrate_values(integrand_vals)


@dataclass
class MeanCurvatureAtPoint:
    """Mean curvature of degree d at one point, on the orthonormal normal frame.

    ``components[j]`` pairs with the j-th normal frame field (controls
    first); ``parts`` carries the three summand groups whose sum is the
    component.  The (vert, hat, iota) split follows the control-column
    pivots used by the stationarity residuals.
    """

    point: tuple
    components: np.ndarray  # length n - m
    parts: np.ndarray  # (n - m, 3)
    hat_columns: tuple[int, ...]
    vert: np.ndarray
    hat: np.ndarray
    iota: np.ndarray
    normal_frame: np.ndarray  # ortho comps, n x (n - m)


def mean_curvature(imm: Immersion, points, d: int) -> list[MeanCurvatureAtPoint]:
    """Mean curvature of degree d at parameter points (N, m).

    One result per point, from one evaluation of the summands and the
    normal frame.
    """
    frames = frames_for(imm)
    triples = frames.mean_curvature_exprs(d)
    hat_cols = frames.control_columns(d) or ()
    n, q, k = frames.n, len(triples), frames.k
    flat = [e for tri in triples for e in tri] + [e for row in frames.normal_amb for e in row]
    vals = imm.values_at(flat, points)
    N = vals.shape[1]
    parts = vals[: 3 * q].T.reshape(N, q, 3)
    normal = vals[3 * q :].T.reshape(N, n, q)
    comps = parts.sum(axis=2)
    iota_cols = [j for j in range(k) if j not in hat_cols]
    rows = zip(np.asarray(points), comps, parts, comps[:, k:],
               comps[:, list(hat_cols)], comps[:, iota_cols], normal)
    return [
        MeanCurvatureAtPoint(tuple(p), c, pp, hat_cols, vert, hat, iota, nf)
        for p, c, pp, vert, hat, iota, nf in rows
    ]


def mean_curvature_field_exprs(imm: Immersion, d: int) -> list[Expr]:
    """Ortho-frame components of H_d as expressions over the parameters."""
    frames = frames_for(imm)
    H = [h1 + h2 + h3 for h1, h2, h3 in frames.mean_curvature_exprs(d)]
    return ematvec(frames.normal_amb, H)


def duality_integral(imm: Immersion, field: VariationField, grid: QuadratureGrid, d: int) -> float:
    """Integral of <V, H_d> against the induced measure."""
    frames = frames_for(imm)
    triples = frames.mean_curvature_exprs(d)
    comps = frames.ambient_field_from_variation(field)
    H = [h1 + h2 + h3 for h1, h2, h3 in triples]
    total = dot(H, [dot(comps, ncol) for ncol in frames.N_cols])
    (values,) = imm.values_at([total * frames.sqrt_detmu], grid.points)
    return grid.integrate_values(values)


@dataclass
class CriticalResidualExprs:
    """Stationarity residuals as expressions over the parameters."""

    iota: list[Expr]
    vert: list[Expr]
    hat_columns: tuple[int, ...]
    control_scale: Expr


def critical_residual_exprs(imm: Immersion, d: int, columns=None) -> CriticalResidualExprs:
    """Eliminate the controls from the curvature pairing (strongly regular case).

    The vert residual pairs with the free normal components against the
    induced measure: for an admissible normal field with free part Psi the
    first variation equals integral(vert . Psi) d mu, plus the iota pairing
    when the control block is wider than the number of constraints.
    """
    frames = frames_for(imm)
    sym = frames.normal_system(d)
    shape = sym.shape
    ell, k = shape.ell, shape.k
    n, m = frames.n, frames.m
    triples = frames.mean_curvature_exprs(d)
    H = [h1 + h2 + h3 for (h1, h2, h3) in triples]
    if columns is not None:
        if len(columns) != ell:
            raise ValueError(f"need exactly {ell} control columns")
        hat_cols = tuple(int(c) for c in columns)
    else:
        hat_cols = frames.control_columns(d)
        if hat_cols is None:
            raise ValueError("no invertible control block: immersion is not strongly regular")
    if ell == 0:
        return CriticalResidualExprs(list(H[:k]), list(H[k:]), (), const(1.0))
    iota_cols = [j for j in range(k) if j not in hat_cols]
    Ahat = [[sym.A[i][c] for c in hat_cols] for i in range(ell)]
    Ahat_inv = einverse(Ahat)
    Hhat = [H[c] for c in hat_cols]
    (w,) = emat_mul([Hhat], Ahat_inv)  # the row vector H^hat (A^hat)^{-1}
    iota_res = []
    for pos, c in enumerate(iota_cols):
        acc = H[c]
        for q in range(ell):
            acc = acc - w[q] * sym.A[q][c]
        iota_res.append(acc)
    nfree = n - m - k
    vert_res = []
    for r in range(nfree):
        acc = H[k + r]
        for q in range(ell):
            acc = acc - w[q] * sym.B[q][r]
        for Cj, param_col in zip(sym.C, etranspose(sym.tangent_param)):
            u = dot(w, [Cj[q][r] for q in range(ell)])
            div_e = frames.div_tangent(param_col)
            acc = acc - (-frames.tangent_derivative(param_col, u) - div_e * u)
        vert_res.append(acc)
    scale = Ahat[0][0] if ell == 1 else const(1.0)
    return CriticalResidualExprs(iota_res, vert_res, hat_cols, scale)
