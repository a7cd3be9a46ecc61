"""Graded manifolds: adapted frames, Lie brackets, filtrations, metrics.

An adapted frame is an ordered list of vector fields (coordinate components
as expressions) whose first n_i members span the i-th layer of the flag.
A manifold bundles a frame with a Riemannian metric and lazily builds the
symbolic machinery shared by the rest of the toolkit: the co-frame, the
orthonormal adapted frame respecting the orthogonal layer splitting, metric
derivatives, and Christoffel symbols.  A frame-orthonormal metric is the
frame-diagonal metric with unit lengths, so every metric kind runs the same
Gram-Schmidt path; constant folding removes the unit factors.

Filtration and bracket-generation checks are sample based: a pass is a
certificate at the tested points only, not a symbolic proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exprs import Expr, const, evaluate_many, parse
from .multivec import FILTRATION_TOL, RANK_TOL, GrowthVector
from .symmat import (
    eidentity,
    einverse,
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
    "FiltrationReport",
    "CarnotFlagResult",
    "lie_bracket_exprs",
    "verify_filtration",
    "carnot_flag",
    "numeric_rank",
    "require_keys",
]

# Bracket-generation stops after this many steps when the flag has not
# reached the full tangent space (or stalled) earlier.
MAX_FLAG_STEP = 8


def require_keys(data, keys, what: str) -> None:
    """Refuse a parsed JSON spec that is not an object or lacks one of ``keys``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing the key {key!r}")


def numeric_rank(mat: np.ndarray):
    """Count of singular values above RANK_TOL times the largest; 0 for a zero or empty matrix.

    A stack of matrices (..., r, c) gives an int array, one rank per matrix.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0
    svals = np.linalg.svd(mat, compute_uv=False)
    ranks = np.sum(svals > RANK_TOL * svals[..., :1], axis=-1)
    return int(ranks) if mat.ndim == 2 else ranks


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
    def coframe_exprs(self) -> list[list[Expr]]:
        """Symbolic inverse of the frame matrix (adjugate over determinant)."""
        return einverse(self.matrix_exprs)

    @classmethod
    def from_json(cls, data: dict) -> "AdaptedFrame":
        """Frame from a parsed manifold spec (``coordinates`` and ``frame`` keys)."""
        require_keys(data, ("coordinates", "frame"), "manifold spec")
        coords = data["coordinates"]
        entries = data["frame"]
        for i, e in enumerate(entries):
            require_keys(e, ("degree", "components"), f"manifold spec frame entry {i}")
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


def _ediag(values) -> list[list[Expr]]:
    n = len(values)
    return [[const(values[i]) if i == j else const(0.0) for j in range(n)] for i in range(n)]


class MetricField:
    """Riemannian metric: frame-diagonal or a coordinate matrix of expressions.

    A frame-orthonormal metric is the frame-diagonal one with unit lengths;
    it keeps its own ``kind`` label, which the CLI reports.
    """

    def __init__(self, kind: str, matrix=None, diagonal=None):
        if kind not in ("frame-orthonormal", "frame-diagonal", "coordinate"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.kind = kind
        self.matrix = matrix
        self.diagonal = tuple(float(d) for d in diagonal) if diagonal is not None else None
        if kind == "frame-diagonal" and self.diagonal is None:
            raise ValueError("frame-diagonal metric needs the diagonal values")
        for i, length in enumerate(self.diagonal or (), start=1):
            if not (math.isfinite(length) and length > 0.0):
                raise ValueError(
                    f"frame-diagonal metric: squared length g(X{i}, X{i}) = {length} "
                    "must be finite and > 0"
                )
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
    def from_json(cls, spec, coords) -> "MetricField":
        """Metric from a parsed spec: a kind name or ``{"matrix": [[...], ...]}``."""
        if spec == "frame-orthonormal":
            return cls.frame_orthonormal()
        if spec == "euclidean":
            return cls.euclidean(len(coords))
        if not (isinstance(spec, dict) and "matrix" in spec):
            raise ValueError(
                f"unknown metric {spec!r} (expected frame-orthonormal, euclidean, "
                "FILE.json or an object with a \"matrix\" of expressions)"
            )
        rows, n = spec["matrix"], len(coords)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"metric matrix must be {n} x {n}, one entry per coordinate pair")
        return cls.coordinate([[parse(src, coords) for src in row] for row in rows])

    def _lengths(self, n: int) -> tuple[float, ...]:
        """Squared frame lengths g(X_i, X_i) of a frame kind (all ones if orthonormal)."""
        return self.diagonal if self.diagonal is not None else (1.0,) * n

    def frame_gram_exprs(self, frame: AdaptedFrame) -> list[list[Expr]]:
        """g(X_i, X_j) as expressions."""
        if self.kind == "coordinate":
            F = frame.matrix_exprs
            return emat_mul(etranspose(F), emat_mul(self.matrix, F))
        return _ediag(self._lengths(frame.n))

    def coordinate_exprs(self, frame: AdaptedFrame) -> list[list[Expr]]:
        """Metric matrix in coordinates (builds C^T D C for frame kinds)."""
        if self.kind == "coordinate":
            return self.matrix
        C = frame.coframe_exprs
        return emat_mul(etranspose(C), emat_mul(_ediag(self._lengths(frame.n)), C))

    def inverse_coordinate_exprs(self, frame: AdaptedFrame) -> list[list[Expr]]:
        if self.kind == "coordinate":
            return einverse(self.matrix)
        F = frame.matrix_exprs
        Dinv = _ediag([1.0 / length for length in self._lengths(frame.n)])
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


def verify_filtration(frame: AdaptedFrame, samples) -> FiltrationReport:
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
            if rel > FILTRATION_TOL:
                violations.append(
                    FiltrationViolation(tuple(point), la, lb, a + 1, b + 1, rel)
                )
    return FiltrationReport(not violations, max_res, violations)


@dataclass
class CarnotFlagResult:
    growth: tuple[int, ...]
    hormander: bool
    steps_used: int


def carnot_flag(horizontal_fields, coords, point) -> CarnotFlagResult:
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
    for step in range(1, MAX_FLAG_STEP):
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
    return CarnotFlagResult(tuple(dims), dims[-1] == n, MAX_FLAG_STEP)


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

    # -- orthonormal adapted frame ------------------------------------------

    @cached_property
    def ortho_change_exprs(self) -> list[list[Expr]]:
        """Upper-triangular U with g-orthonormal adapted field j = sum_i U[i][j] X_i."""
        return gram_schmidt_from_gram(self.metric.frame_gram_exprs(self.frame))

    @cached_property
    def ortho_matrix_exprs(self) -> list[list[Expr]]:
        """Coordinate components of the orthonormal adapted frame (columns)."""
        return emat_mul(self.frame.matrix_exprs, self.ortho_change_exprs)

    @cached_property
    def ortho_coframe_exprs(self) -> list[list[Expr]]:
        Uinv = upper_triangular_inverse(self.ortho_change_exprs)
        return emat_mul(Uinv, self.frame.coframe_exprs)

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
