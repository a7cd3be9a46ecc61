"""Parametrized immersions into a graded manifold.

The central object expresses an immersion by n component expressions over m
parameters, bound to a manifold.  Pointwise operations expand the tangent
space in the orthonormal adapted frame; the tangent m-vector coefficients
are the m x m minors of that coefficient matrix, normalized by the induced
volume so they refer to an orthonormal tangent basis.

The degree-adapted tangent basis used by the admissibility machinery is the
column-echelon basis with one pivot row per tangent-flag layer: each basis
vector carries coefficient 1 at its pivot row and 0 at the other pivots,
which pins the basis uniquely once the pivot rows are chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exprs import evaluate_many
from .manifold import Manifold, numeric_rank
from .multivec import (
    DEGREE_EPS,
    RANK_TOL,
    DegenerateInputError,
    MVector,
    index_degrees,
    max_degrees,
    minors,
    wedge,
)

__all__ = [
    "Immersion",
    "TangentFrameAtPoint",
    "DegreeScanReport",
    "uniform_grid",
    "degree_scan",
    "tangent_flag",
]


def uniform_grid(domain, shape):
    """Uniform grid strictly inside the box (cell midpoints), shape (N, m)."""
    axes = []
    for (lo, hi), count in zip(domain, shape):
        step = (hi - lo) / count
        axes.append(lo + step * (np.arange(count) + 0.5))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1), tuple(int(c) for c in shape)


@dataclass
class TangentFrameAtPoint:
    point: tuple
    coord_tangents: np.ndarray  # n x m, columns dPhi(d/d param_a)
    ortho_comps: np.ndarray  # n x m in the orthonormal adapted frame
    induced: np.ndarray  # m x m induced metric
    sqrt_det: float
    tangent_mvector: MVector  # coefficients of the unit tangent m-vector
    raw_mvector: MVector  # minors of ortho_comps, before normalization


class Immersion:
    """Smooth map from a parameter box into a manifold."""

    def __init__(self, manifold: Manifold, params, components, domain, base_coords=None, name=""):
        self.manifold = manifold
        self.params = tuple(params)
        self.components = tuple(components)
        if len(self.components) != manifold.n:
            raise ValueError("one component expression per ambient coordinate required")
        self.domain = tuple((float(lo), float(hi)) for lo, hi in domain)
        if len(self.domain) != len(self.params):
            raise ValueError("domain box must match the parameter count")
        # Indices of ambient coordinates that restrict to the parameters on the
        # image (graph immersions); enables extending fields off the surface.
        self.base_coords = tuple(base_coords) if base_coords is not None else None
        self.name = name

    @property
    def m(self) -> int:
        return len(self.params)

    @property
    def n(self) -> int:
        return self.manifold.n

    def with_metric(self, metric) -> "Immersion":
        return Immersion(
            self.manifold.with_metric(metric),
            self.params,
            self.components,
            self.domain,
            self.base_coords,
            self.name,
        )

    def param_env(self, pbar) -> dict:
        return dict(zip(self.params, np.asarray(pbar, dtype=float)))

    def grid_env(self, points: np.ndarray) -> dict:
        pts = np.asarray(points, dtype=float)
        return {name: pts[:, i] for i, name in enumerate(self.params)}

    @cached_property
    def jacobian_exprs(self):
        """J[c][a] = d components_c / d param_a."""
        return [
            [comp.diff(name) for name in self.params] for comp in self.components
        ]

    def phi_at(self, pbar) -> np.ndarray:
        return np.array(evaluate_many(self.components, self.param_env(pbar)), dtype=float)

    def phi_grid(self, points: np.ndarray) -> np.ndarray:
        return _grid_values(self.components, self.grid_env(points), points.shape[0])

    def midpoint(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.domain])

    def sample_points(self, count: int, seed: int = 0, margin: float = 0.05) -> np.ndarray:
        rng = np.random.default_rng(seed)
        lo = np.array([a for a, _ in self.domain])
        hi = np.array([b for _, b in self.domain])
        span = hi - lo
        return lo + span * (margin + (1 - 2 * margin) * rng.random((count, self.m)))

    # -- batched tangent data -------------------------------------------------

    def _tangent_grids(self, points: np.ndarray):
        """dPhi over many points, (N, n, m): in coordinates and in the orthonormal adapted frame."""
        pts = np.asarray(points, dtype=float)
        N = pts.shape[0]
        n, m = self.n, self.m
        phi = self.phi_grid(pts)
        ambient_env = {name: phi[:, i] for i, name in enumerate(self.manifold.coords)}
        cof_flat = [e for row in self.manifold.ortho_coframe_exprs for e in row]
        cof = _grid_values(cof_flat, ambient_env, N).reshape(N, n, n)
        jac_flat = [e for row in self.jacobian_exprs for e in row]
        jac = _grid_values(jac_flat, self.grid_env(pts), N).reshape(N, n, m)
        return jac, np.einsum("pij,pjm->pim", cof, jac)

    def ortho_tangent_grid(self, points: np.ndarray) -> np.ndarray:
        """Orthonormal-adapted-frame components of dPhi over many points, (N, n, m)."""
        return self._tangent_grids(points)[1]

    def minors_grid(self, tau: np.ndarray) -> np.ndarray:
        """All m x m minors over the grid, (N, C(n, m)) in ``all_multi_indices`` order."""
        return minors(tau)

    # -- pointwise operations (the batched path on one point) -------------------

    def tangent_data(self, pbar) -> TangentFrameAtPoint:
        jac, tau = (a[0] for a in self._tangent_grids(np.asarray(pbar, dtype=float)[None, :]))
        if numeric_rank(jac) < self.m:
            raise DegenerateInputError(
                f"immersion Jacobian is rank deficient at {tuple(pbar)}"
            )
        mu = tau.T @ tau
        det = float(np.linalg.det(mu))
        sqrt_det = float(np.sqrt(max(det, 0.0)))
        raw = wedge(tau)
        normalized = raw.scaled(1.0 / sqrt_det)
        return TangentFrameAtPoint(tuple(pbar), jac, tau, mu, sqrt_det, normalized, raw)

    def tangent_mvector(self, pbar) -> MVector:
        return self.tangent_data(pbar).tangent_mvector

    def pointwise_degree(self, pbar) -> int:
        return self.tangent_data(pbar).raw_mvector.degree(self.manifold.weights)

    def induced_metric(self, pbar) -> np.ndarray:
        return self.tangent_data(pbar).induced

    def tangent_flag_dims(self, pbar) -> tuple[int, ...]:
        tau = self.tangent_data(pbar).ortho_comps
        growth = self.manifold.growth
        dims = []
        for j in range(1, growth.step + 1):
            nj = growth.dims[j - 1]
            upper = tau[nj:, :]
            if upper.size == 0:
                dims.append(self.m)
            else:
                dims.append(self.m - numeric_rank(upper))
        return tuple(dims)

    def adapted_tangent_pivots(self, pbar) -> tuple[int, ...]:
        """Pivot rows (1-based) of the degree-adapted echelon tangent basis.

        Layer-j pivots are chosen so the pivot rows resolve the flag
        subspace T cap H^j itself (rank tested against a null-space basis of
        the higher-layer block), which makes the pivot submatrix invertible
        and each echelon vector land in its flag layer.
        """
        tau = self.tangent_data(pbar).ortho_comps
        growth = self.manifold.growth
        dims = self.tangent_flag_dims(pbar)
        pivots: list[int] = []
        for j in range(1, growth.step + 1):
            target = dims[j - 1]
            if target == len(pivots):
                continue
            nj = growth.dims[j - 1]
            upper = tau[nj:, :]
            if upper.size:
                _, svals, vt = np.linalg.svd(upper)
                rank = int(np.sum(svals > RANK_TOL * max(svals[0], 1e-300)))
                subspace = vt[rank:, :].T  # columns span T cap H^j in params
            else:
                subspace = np.eye(self.m)
            lo, hi = growth.layer_slice(j)
            for r in range(lo, hi):
                if len(pivots) == target:
                    break
                candidate = pivots + [r]
                if numeric_rank(tau[candidate, :] @ subspace) == len(candidate):
                    pivots.append(r)
            if len(pivots) != target:
                raise DegenerateInputError(
                    f"could not complete adapted pivots in layer {j} at {tuple(pbar)}"
                )
        return tuple(p + 1 for p in pivots)

    def adapted_tangent_at(self, pbar, pivots=None):
        """Echelon tangent basis: (ambient ortho comps n x m, parameter comps m x m)."""
        data = self.tangent_data(pbar)
        tau = data.ortho_comps
        if pivots is None:
            pivots = self.adapted_tangent_pivots(pbar)
        P = tau[[p - 1 for p in pivots], :]
        try:
            Pinv = np.linalg.inv(P)
        except np.linalg.LinAlgError:
            raise DegenerateInputError(
                f"adapted pivot rows {pivots} degenerate at {tuple(pbar)}"
            ) from None
        return tau @ Pinv, Pinv


def _grid_values(exprs, env, N: int) -> np.ndarray:
    """Values of the expressions over N points, (N, len(exprs))."""
    out = np.empty((N, len(exprs)))
    for k, v in enumerate(evaluate_many(exprs, env)):
        out[:, k] = v
    return out


def tangent_flag(imm: Immersion, pbar):
    """Flag dimensions and the homogeneous (Gromov) degree they induce."""
    dims = imm.tangent_flag_dims(pbar)
    prev = 0
    degree = 0
    for j, d in enumerate(dims, start=1):
        degree += j * (d - prev)
        prev = d
    return dims, degree


@dataclass
class DegreeScanReport:
    shape: tuple[int, ...]
    points: np.ndarray
    degrees: np.ndarray  # flattened, len N
    degree: int  # max over the grid = deg(M) certificate
    mask: np.ndarray  # True where pointwise degree < degree
    lsc_ok: bool
    lsc_violations: list

    @property
    def singular_count(self) -> int:
        return int(np.sum(self.mask))


def degree_scan(imm: Immersion, grid_shape, eps: float = DEGREE_EPS) -> DegreeScanReport:
    """Grid certificate of the degree map and the singular mask."""
    points, shape = uniform_grid(imm.domain, grid_shape)
    tau = imm.ortho_tangent_grid(points)
    # reject rank-deficient tangent maps anywhere on the grid
    svals = np.linalg.svd(tau, compute_uv=False)
    bad = svals[:, -1] <= RANK_TOL * np.maximum(svals[:, 0], 1e-300)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise DegenerateInputError(
            f"immersion is rank deficient at grid point {tuple(points[idx])}"
        )
    degrees = max_degrees(
        imm.minors_grid(tau), index_degrees(imm.n, imm.m, imm.manifold.weights), eps
    )
    deg_max = int(degrees.max())
    mask = degrees < deg_max
    lsc_violations = []
    grid = degrees.reshape(shape)
    for idx in np.ndindex(*shape):
        center = grid[idx]
        best = -1
        for axis in range(len(shape)):
            for delta in (-1, 1):
                nb = list(idx)
                nb[axis] += delta
                if 0 <= nb[axis] < shape[axis]:
                    best = max(best, int(grid[tuple(nb)]))
        if best >= 0 and center > best:
            lsc_violations.append(tuple(idx))
    return DegreeScanReport(
        shape, points, degrees, deg_max, mask, not lsc_violations, lsc_violations
    )
