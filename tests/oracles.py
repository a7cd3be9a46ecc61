"""Independent cross-check routes that no command runs, kept as test references.

Two routes live here:

* the numeric Levi-Civita path of a manifold: the metric, the Christoffel
  symbols and covariant derivatives of orthonormal frame fields and of
  simple m-vectors, evaluated at one ambient point from the manifold's
  symbolic metric and frame, with the connection contracted numerically;
* the bracket form of the degree-d mean curvature, built from Lie brackets
  of frame fields extended off the surface through a graph chart, against
  which the three-summand form the commands use is compared.
"""

from __future__ import annotations

import math

import numpy as np

from gradedgeo.admissibility import frames_for
from gradedgeo.exprs import add_all, const, dot, evaluate_many
from gradedgeo.manifold import lie_bracket_exprs
from gradedgeo.multivec import minors
from gradedgeo.symmat import eval_matrix

# -- the numeric Levi-Civita path -------------------------------------------------


def frame_matrix_at(frame, point) -> np.ndarray:
    """The raw frame matrix (coordinates as rows, frame fields as columns) at a point."""
    return eval_matrix(frame.matrix_exprs, frame.env(point))


def ortho_matrix_at(mani, point) -> np.ndarray:
    """Coordinate components of the orthonormal adapted frame (columns) at a point."""
    return eval_matrix(mani.ortho_matrix_exprs, mani.frame.env(point))


def ortho_coframe_at(mani, point) -> np.ndarray:
    return eval_matrix(mani.ortho_coframe_exprs, mani.frame.env(point))


def expand_in_ortho(mani, vec, point) -> np.ndarray:
    """Components of a coordinate vector on the orthonormal adapted frame."""
    return ortho_coframe_at(mani, point) @ np.asarray(vec, dtype=float)


def metric_at(mani, point) -> np.ndarray:
    return eval_matrix(mani.metric_exprs, mani.frame.env(point))


def christoffel_at(mani, point) -> np.ndarray:
    """Gamma[k, i, j] of the Levi-Civita connection in coordinates."""
    pts = np.asarray(point, dtype=float)[None, :]
    env = {name: pts[:, i] for i, name in enumerate(mani.coords)}
    n = mani.n
    flat = [e for plane in mani.metric_derivative_exprs for row in plane for e in row]
    vals = evaluate_many(flat, env)
    dG = np.stack(vals, axis=-1).reshape(1, n, n, n)
    gvals = evaluate_many([mani.metric_exprs[i][j] for i in range(n) for j in range(n)], env)
    G = np.stack(gvals, axis=-1).reshape(1, n, n)
    Ginv = np.linalg.inv(G)
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij); dG[p,a,i,j] = d_a g_ij
    gamma = np.einsum("pkl,pijl->pkij", Ginv, dG)
    gamma += np.einsum("pkl,pjil->pkij", Ginv, dG)
    gamma -= np.einsum("pkl,plij->pkij", Ginv, dG)
    return 0.5 * gamma[0]


def covariant_derivative_field(mani, v_coords, field_index: int, point) -> np.ndarray:
    """Coordinate components of nabla_v X_j for an orthonormal frame field."""
    env = mani.frame.env(point)
    n = mani.n
    gamma = christoffel_at(mani, point)
    X = ortho_matrix_at(mani, point)[:, field_index]
    dX = np.array(
        [
            evaluate_many(
                [mani.ortho_frame_derivative_exprs[a][c][field_index] for c in range(n)],
                env,
            )
            for a in range(n)
        ],
        dtype=float,
    )  # dX[a][c]
    v = np.asarray(v_coords, dtype=float)
    out = v @ dX  # sum_a v^a d_a X^c
    out = out + np.einsum("kab,a,b->k", gamma, v, X)
    return out


def cov_derivative_simple_mvector(mani, v_coords, J, point) -> np.ndarray:
    """Leibniz expansion of nabla_v (X_{j1} ^ ... ^ X_{jm}) in the orthonormal frame.

    The result is the dense m-vector row, (C(n, m),) in ``all_multi_indices`` order.
    """
    m = len(J)
    n = mani.n
    coframe = ortho_coframe_at(mani, point)
    result = np.zeros(math.comb(n, m))
    for slot in range(m):
        deriv = covariant_derivative_field(mani, v_coords, J[slot] - 1, point)
        comps = coframe @ deriv
        cols = np.zeros((n, m))
        for a, j in enumerate(J):
            if a == slot:
                cols[:, a] = comps
            else:
                cols[j - 1, a] = 1.0
        result = result + minors(cols[None])[0]
    return result


# -- the bracket-form curvature ---------------------------------------------------


def mean_curvature_bracket_exprs(frames, d: int):
    """Bracket form of the curvature components (needs a graph extension)."""
    n, m = frames.n, frames.m
    theta = frames.theta(d)
    xi = frames._xi(d)
    coords = frames.mani.coords
    E_ext = [frames.graph_extend_field(col) for col in frames.E_cols]
    N_ext = [frames.graph_extend_field(col) for col in frames.N_cols]
    theta_ext = frames.graph_extend(theta)
    out = []
    for j, ncol in enumerate(frames.N_cols):
        # div_M(theta N_j - sum_i xi_ij E_i): tangential part is intrinsic,
        # normal part via sum_i <nabla_{E_i} (theta N_j), E_i>.
        tangential = [
            add_all([-xi[i][j] * frames.E_param[a][i] for i in range(m)])
            for a in range(m)
        ]
        div_term = frames.div_tangent(tangential)
        ncoord = frames.coord_comps(ncol)
        theta_ncoord = [theta * c for c in ncoord]
        for dW, e in zip(frames.nabla_table(frames.E_param, theta_ncoord), frames.E_cols):
            div_term = div_term + dot(dW, e)
        # N_j(theta) through the graph extension
        njtheta = frames.imm.compose(
            add_all([N_ext[j][c] * theta_ext.diff(coords[c]) for c in range(n)])
        )
        bracket_term = const(0.0)
        for i in range(m):
            lie = lie_bracket_exprs(E_ext[i], N_ext[j], coords)
            lie_on_m = frames.to_ortho_comps([frames.imm.compose(c) for c in lie])
            for kk, nk in enumerate(frames.N_cols):
                bracket_term = bracket_term + xi[i][kk] * dot(lie_on_m, nk)
        out.append(div_term + njtheta + bracket_term)
    return out


def mean_curvature_bracket_at(imm, pbar, d: int) -> np.ndarray:
    """Bracket-form curvature components at a point (needs a graph chart)."""
    return imm.values_at(mean_curvature_bracket_exprs(frames_for(imm), d), pbar)[:, 0]
