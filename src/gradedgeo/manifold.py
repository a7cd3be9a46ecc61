"""Graded manifolds: adapted frames, Lie brackets, filtrations, metrics.

An adapted frame is an ordered list of vector fields (coordinate components
as expressions) whose first n_i members span the i-th layer of the flag.
A manifold bundles a frame with a Riemannian metric and lazily builds the
symbolic machinery shared by the rest of the toolkit: the co-frame, the
orthonormal adapted frame respecting the orthogonal layer splitting, metric
derivatives, and Christoffel symbols.

Filtration and bracket-generation checks are sample based: a pass is a
certificate at the tested points only, not a symbolic proof.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exprs import Expr, const, div, evaluate_many, parse
from .multivec import RANK_TOL, GrowthVector, MVector, wedge
from .symmat import (
    edet,
    eadjugate,
    eidentity,
    emat_mul,
    etranspose,
    eval_matrix,
    gram_schmidt_from_gram,
    upper_triangular_inverse,
)

__all__ = [
    "AdaptedFrame",
    "MetricField",
    "Manifold",
    "OrthoAdaptedFrame",
    "DilatedMetric",
    "DegenerateFrameError",
    "FiltrationReport",
    "CarnotFlagResult",
    "lie_bracket_exprs",
    "lie_bracket_at",
    "verify_filtration",
    "carnot_flag",
    "orthonormalize",
    "dilated_metric",
    "numeric_rank",
]

class DegenerateFrameError(ValueError):
    pass


def numeric_rank(mat: np.ndarray, tol: float = RANK_TOL) -> int:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > tol * svals[0]))


class AdaptedFrame:
    """Ordered vector fields with degrees matching a growth vector."""

    def __init__(self, coords, fields, growth: GrowthVector):
        self.coords = tuple(coords)
        n = len(self.coords)
        if growth.n != n:
            raise ValueError("growth vector inconsistent with coordinate count")
        if len(fields) != n:
            raise ValueError(f"expected {n} frame fields, got {len(fields)}")
        self.fields = tuple(tuple(comps) for comps in fields)
        for comps in self.fields:
            if len(comps) != n:
                raise ValueError("every frame field needs one component per coordinate")
        self.growth = growth
        self.weights = growth.weights()

    @property
    def n(self) -> int:
        return len(self.coords)

    def env(self, point) -> dict:
        return dict(zip(self.coords, np.asarray(point, dtype=float)))

    @cached_property
    def matrix_exprs(self) -> list[list[Expr]]:
        """Frame matrix F with columns the frame fields (coordinates as rows)."""
        n = self.n
        return [[self.fields[j][i] for j in range(n)] for i in range(n)]

    @cached_property
    def det_expr(self) -> Expr:
        return edet(self.matrix_exprs)

    @cached_property
    def coframe_exprs(self) -> list[list[Expr]]:
        """Symbolic inverse of the frame matrix (adjugate over determinant)."""
        adj = eadjugate(self.matrix_exprs)
        d = self.det_expr
        n = self.n
        return [[div(adj[i][j], d) for j in range(n)] for i in range(n)]

    def matrix_at(self, point) -> np.ndarray:
        return eval_matrix(self.matrix_exprs, self.env(point))

    def coframe_at(self, point) -> np.ndarray:
        mat = self.matrix_at(point)
        try:
            return np.linalg.inv(mat)
        except np.linalg.LinAlgError:
            raise DegenerateFrameError("frame matrix is singular at the point") from None

    @classmethod
    def from_json(cls, text: str) -> "AdaptedFrame":
        data = json.loads(text) if isinstance(text, str) else text
        coords = data["coordinates"]
        entries = data["frame"]
        degrees = [int(e["degree"]) for e in entries]
        if degrees != sorted(degrees):
            raise ValueError("frame fields must be listed with nondecreasing degree")
        dims = []
        for layer in range(1, max(degrees) + 1):
            dims.append(sum(1 for d in degrees if d <= layer))
        growth = GrowthVector(tuple(dims))
        fields = [
            tuple(parse(src, coords) for src in e["components"]) for e in entries
        ]
        return cls(coords, fields, growth)


class MetricField:
    """Riemannian metric: frame-orthonormal, frame-diagonal or a coordinate matrix."""

    def __init__(self, kind: str, matrix=None, diagonal=None):
        if kind not in ("frame-orthonormal", "frame-diagonal", "coordinate"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.kind = kind
        self.matrix = matrix
        self.diagonal = tuple(float(d) for d in diagonal) if diagonal is not None else None
        if kind == "frame-diagonal" and self.diagonal is None:
            raise ValueError("frame-diagonal metric needs the diagonal values")
        if kind == "coordinate" and matrix is None:
            raise ValueError("coordinate metric needs the matrix of expressions")

    @classmethod
    def frame_orthonormal(cls) -> "MetricField":
        return cls("frame-orthonormal")

    @classmethod
    def frame_diagonal(cls, values) -> "MetricField":
        return cls("frame-diagonal", diagonal=values)

    @classmethod
    def coordinate(cls, matrix) -> "MetricField":
        return cls("coordinate", matrix=[list(row) for row in matrix])

    @classmethod
    def euclidean(cls, n: int) -> "MetricField":
        return cls.coordinate(eidentity(n))

    @classmethod
    def from_json(cls, text, coords=None) -> "MetricField":
        data = json.loads(text) if isinstance(text, str) else text
        if data == "frame-orthonormal":
            return cls.frame_orthonormal()
        if data == "euclidean":
            return cls.euclidean(len(coords))
        mat = [[parse(src, coords) for src in row] for row in data["matrix"]]
        return cls.coordinate(mat)

    def frame_gram_exprs(self, frame: AdaptedFrame) -> list[list[Expr]]:
        """g(X_i, X_j) as expressions."""
        n = frame.n
        if self.kind == "frame-orthonormal":
            return eidentity(n)
        if self.kind == "frame-diagonal":
            return [
                [const(self.diagonal[i]) if i == j else const(0.0) for j in range(n)]
                for i in range(n)
            ]
        F = frame.matrix_exprs
        return emat_mul(etranspose(F), emat_mul(self.matrix, F))

    def coordinate_exprs(self, frame: AdaptedFrame) -> list[list[Expr]]:
        """Metric matrix in coordinates (builds C^T D C for frame kinds)."""
        if self.kind == "coordinate":
            return self.matrix
        C = frame.coframe_exprs
        if self.kind == "frame-orthonormal":
            return emat_mul(etranspose(C), C)
        D = [
            [const(self.diagonal[i]) if i == j else const(0.0) for j in range(frame.n)]
            for i in range(frame.n)
        ]
        return emat_mul(etranspose(C), emat_mul(D, C))

    def inverse_coordinate_exprs(self, frame: AdaptedFrame) -> list[list[Expr]]:
        if self.kind == "coordinate":
            from .symmat import einverse

            return einverse(self.matrix)
        F = frame.matrix_exprs
        if self.kind == "frame-orthonormal":
            return emat_mul(F, etranspose(F))
        Dinv = [
            [const(1.0 / self.diagonal[i]) if i == j else const(0.0) for j in range(frame.n)]
            for i in range(frame.n)
        ]
        return emat_mul(F, emat_mul(Dinv, etranspose(F)))


def lie_bracket_exprs(x_comps, y_comps, coords) -> list[Expr]:
    """Commutator [X, Y]^k = sum_j X^j d_j Y^k - Y^j d_j X^k, symbolically."""
    n = len(coords)
    out = []
    for k in range(n):
        total = const(0.0)
        for j, name in enumerate(coords):
            total = total + x_comps[j] * y_comps[k].diff(name)
            total = total - y_comps[j] * x_comps[k].diff(name)
        out.append(total)
    return out


def lie_bracket_at(x_comps, y_comps, coords, point) -> np.ndarray:
    env = dict(zip(coords, np.asarray(point, dtype=float)))
    vals = evaluate_many(lie_bracket_exprs(x_comps, y_comps, coords), env)
    return np.array(vals, dtype=float)


@dataclass
class FiltrationViolation:
    point: tuple
    layer_i: int
    layer_j: int
    field_a: int
    field_b: int
    residual: float


@dataclass
class FiltrationReport:
    ok: bool
    max_residual: float
    violations: list[FiltrationViolation] = field(default_factory=list)
    tolerance: float = 1e-8


def verify_filtration(frame: AdaptedFrame, samples, tolerance: float = 1e-8) -> FiltrationReport:
    """Check [H^i, H^j] in H^{i+j} at the sample points (least-squares residual)."""
    growth = frame.growth
    s = growth.step
    coords = frame.coords
    brackets = {}
    for a in range(frame.n):
        for b in range(a + 1, frame.n):
            brackets[(a, b)] = lie_bracket_exprs(frame.fields[a], frame.fields[b], coords)
    violations = []
    max_res = 0.0
    for point in samples:
        env = frame.env(point)
        F = eval_matrix(frame.matrix_exprs, env)
        for (a, b), expr in brackets.items():
            la = growth.layer_of(a + 1)
            lb = growth.layer_of(b + 1)
            target = min(la + lb, s)
            span_cols = F[:, : growth.dims[target - 1]]
            vec = np.array(evaluate_many(expr, env), dtype=float)
            sol, *_ = np.linalg.lstsq(span_cols, vec, rcond=None)
            res = float(np.linalg.norm(span_cols @ sol - vec))
            scale = max(1.0, float(np.linalg.norm(vec)))
            rel = res / scale
            max_res = max(max_res, rel)
            if rel > tolerance:
                violations.append(
                    FiltrationViolation(tuple(point), la, lb, a + 1, b + 1, rel)
                )
    return FiltrationReport(not violations, max_res, violations, tolerance)


@dataclass
class CarnotFlagResult:
    growth: tuple[int, ...]
    hormander: bool
    steps_used: int


def carnot_flag(horizontal_fields, coords, point, max_step: int = 8) -> CarnotFlagResult:
    """Iterate H^{i+1} = H^i + [H, H^i] and report the flag dimensions at a point."""
    n = len(coords)
    env = dict(zip(coords, np.asarray(point, dtype=float)))

    def dim_of(fields) -> int:
        vals = np.array(
            [evaluate_many(list(f), env) for f in fields], dtype=float
        ).T  # columns = fields
        return numeric_rank(vals)

    levels = [list(horizontal_fields)]
    dims = [dim_of(levels[0])]
    all_fields = list(levels[0])
    for step in range(1, max_step):
        new_level = []
        for h in horizontal_fields:
            for f in levels[-1]:
                new_level.append(lie_bracket_exprs(h, f, coords))
        all_fields.extend(new_level)
        levels.append(new_level)
        d = dim_of(all_fields)
        dims.append(d)
        if d == n:
            return CarnotFlagResult(tuple(dims), True, step + 1)
        if d == dims[-2]:
            return CarnotFlagResult(tuple(dims), False, step + 1)
    return CarnotFlagResult(tuple(dims), dims[-1] == n, max_step)


class OrthoAdaptedFrame:
    """Block-triangular change from a raw adapted frame to a g-orthonormal one."""

    def __init__(self, manifold: "Manifold", change_exprs):
        self.manifold = manifold
        self.change_exprs = change_exprs  # upper-triangular U: new_j = sum_i U[i][j] X_i

    def change_at(self, point) -> np.ndarray:
        return eval_matrix(self.change_exprs, self.manifold.frame.env(point))

    def frame_at(self, point) -> np.ndarray:
        """Coordinate components of the orthonormal adapted frame (columns)."""
        return self.manifold.frame.matrix_at(point) @ self.change_at(point)

    def layer_slices(self):
        growth = self.manifold.frame.growth
        return [growth.layer_slice(i) for i in range(1, growth.step + 1)]


class Manifold:
    """An adapted frame bound to a metric, with shared symbolic caches."""

    def __init__(self, frame: AdaptedFrame, metric: MetricField, name: str = ""):
        self.frame = frame
        self.metric = metric
        self.name = name

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def coords(self):
        return self.frame.coords

    @property
    def weights(self):
        return self.frame.weights

    @property
    def growth(self) -> GrowthVector:
        return self.frame.growth

    def with_metric(self, metric: MetricField) -> "Manifold":
        return Manifold(self.frame, metric, self.name)

    def env(self, point) -> dict:
        return self.frame.env(point)

    # -- orthonormal adapted frame ------------------------------------------

    @cached_property
    def ortho(self) -> OrthoAdaptedFrame:
        gram = self.metric.frame_gram_exprs(self.frame)
        if self.metric.kind == "frame-orthonormal":
            change = eidentity(self.n)
        else:
            change = gram_schmidt_from_gram(gram)
        return OrthoAdaptedFrame(self, change)

    @cached_property
    def ortho_matrix_exprs(self) -> list[list[Expr]]:
        """Coordinate components of the orthonormal adapted frame (columns)."""
        if self.metric.kind == "frame-orthonormal":
            return self.frame.matrix_exprs
        return emat_mul(self.frame.matrix_exprs, self.ortho.change_exprs)

    @cached_property
    def ortho_coframe_exprs(self) -> list[list[Expr]]:
        if self.metric.kind == "frame-orthonormal":
            return self.frame.coframe_exprs
        Uinv = upper_triangular_inverse(self.ortho.change_exprs)
        return emat_mul(Uinv, self.frame.coframe_exprs)

    def ortho_matrix_at(self, point) -> np.ndarray:
        return eval_matrix(self.ortho_matrix_exprs, self.env(point))

    def ortho_coframe_at(self, point) -> np.ndarray:
        return eval_matrix(self.ortho_coframe_exprs, self.env(point))

    def expand_in_ortho(self, vec, point) -> np.ndarray:
        """Components of a coordinate vector on the orthonormal adapted frame."""
        return self.ortho_coframe_at(point) @ np.asarray(vec, dtype=float)

    # -- metric data --------------------------------------------------------

    @cached_property
    def metric_exprs(self) -> list[list[Expr]]:
        return self.metric.coordinate_exprs(self.frame)

    @cached_property
    def metric_inverse_exprs(self) -> list[list[Expr]]:
        return self.metric.inverse_coordinate_exprs(self.frame)

    @cached_property
    def metric_derivative_exprs(self):
        """dG[a][i][j] = d g_ij / d coord_a."""
        G = self.metric_exprs
        return [
            [[G[i][j].diff(name) for j in range(self.n)] for i in range(self.n)]
            for name in self.coords
        ]

    def metric_at(self, point) -> np.ndarray:
        return eval_matrix(self.metric_exprs, self.env(point))

    def christoffel_at(self, point) -> np.ndarray:
        """Gamma[k, i, j] of the Levi-Civita connection in coordinates."""
        pts = np.asarray(point, dtype=float)[None, :]
        env = {name: pts[:, i] for i, name in enumerate(self.coords)}
        n = self.n
        flat = [e for plane in self.metric_derivative_exprs for row in plane for e in row]
        vals = evaluate_many(flat, env)
        dG = np.stack([np.broadcast_to(v, (1,)) for v in vals], axis=-1).reshape(1, n, n, n)
        gvals = evaluate_many([self.metric_exprs[i][j] for i in range(n) for j in range(n)], env)
        G = np.stack([np.broadcast_to(v, (1,)) for v in gvals], axis=-1).reshape(1, n, n)
        Ginv = np.linalg.inv(G)
        # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij); dG[p,a,i,j] = d_a g_ij
        gamma = np.einsum("pkl,pijl->pkij", Ginv, dG)
        gamma += np.einsum("pkl,pjil->pkij", Ginv, dG)
        gamma -= np.einsum("pkl,plij->pkij", Ginv, dG)
        return 0.5 * gamma[0]

    @cached_property
    def christoffel_exprs(self):
        """Symbolic Gamma^k_ij (built lazily; used by the variational machinery)."""
        n = self.n
        G = self.metric_exprs
        Ginv = self.metric_inverse_exprs
        dG = self.metric_derivative_exprs
        zero = const(0.0)
        gamma = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
        half = const(0.5)
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    total = zero
                    for l in range(n):
                        term = dG[i][j][l] + dG[j][i][l] - dG[l][i][j]
                        total = total + Ginv[k][l] * term
                    val = half * total
                    gamma[k][i][j] = val
                    gamma[k][j][i] = val
        return gamma

    # -- frame derivative data ----------------------------------------------

    @cached_property
    def ortho_frame_derivative_exprs(self):
        """dX[a][c][j] = d (ortho frame)_cj / d coord_a."""
        M = self.ortho_matrix_exprs
        return [
            [[M[c][j].diff(name) for j in range(self.n)] for c in range(self.n)]
            for name in self.coords
        ]

    def covariant_derivative_field(self, v_coords, field_index: int, point) -> np.ndarray:
        """Coordinate components of nabla_v X_j for an orthonormal frame field."""
        env = self.env(point)
        n = self.n
        gamma = self.christoffel_at(point)
        X = self.ortho_matrix_at(point)[:, field_index]
        dX = np.array(
            [
                evaluate_many(
                    [self.ortho_frame_derivative_exprs[a][c][field_index] for c in range(n)],
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

    def cov_derivative_simple_mvector(self, v_coords, J, point) -> MVector:
        """Leibniz expansion of nabla_v (X_{j1} ^ ... ^ X_{jm}) in the orthonormal frame."""
        m = len(J)
        n = self.n
        coframe = self.ortho_coframe_at(point)
        result = MVector.zero(m)
        for slot in range(m):
            deriv = self.covariant_derivative_field(v_coords, J[slot] - 1, point)
            comps = coframe @ deriv
            cols = np.zeros((n, m))
            for a, j in enumerate(J):
                if a == slot:
                    cols[:, a] = comps
                else:
                    cols[j - 1, a] = 1.0
            result = result.plus(wedge(cols))
        return result

    def frame_gram_at(self, point) -> np.ndarray:
        return eval_matrix(self.metric.frame_gram_exprs(self.frame), self.env(point))


def orthonormalize(frame: AdaptedFrame, metric: MetricField) -> OrthoAdaptedFrame:
    return Manifold(frame, metric).ortho


class DilatedMetric:
    """Metric g_r scaling the orthogonal layer subspaces K^i by r^{1-i}."""

    def __init__(self, manifold: Manifold, r: float):
        if r <= 0:
            raise ValueError("dilation parameter r must be positive")
        self.manifold = manifold
        self.r = float(r)

    def scale_vector(self) -> np.ndarray:
        """Per orthonormal-frame-field factors r^{-(deg-1)} on the diagonal."""
        w = np.array(self.manifold.weights, dtype=float)
        return self.r ** (1.0 - w)

    def matrix_at(self, point) -> np.ndarray:
        C = self.manifold.ortho_coframe_at(point)
        return C.T @ np.diag(self.scale_vector()) @ C

    def norm_at(self, point, vec) -> float:
        comps = self.manifold.expand_in_ortho(vec, point)
        return float(np.sqrt(np.sum(self.scale_vector() * comps**2)))

    def frame_gram_at(self, point) -> np.ndarray:
        F = self.manifold.ortho_matrix_at(point)
        G = self.matrix_at(point)
        return F.T @ G @ F


def dilated_metric(manifold: Manifold, r: float) -> DilatedMetric:
    return DilatedMetric(manifold, r)
