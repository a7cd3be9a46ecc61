"""Multi-index combinatorics, sparse m-vector algebra and the minors kernel.

A multi-index is a strictly increasing tuple of frame indices (1-based).
An m-vector is a sparse map from multi-indices to real coefficients; its
degree relative to a weight vector is the largest weighted index sum among
the coefficients that survive a relative sparsity threshold.  ``minors`` is
the one batched m x m minors kernel: wedges, Gram inner products, tangent
m-vectors, degree scans and areas all read their coefficients from it.  The
tolerances shared across the toolkit live here too.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GrowthVector",
    "MVector",
    "DEGREE_EPS",
    "RANK_TOL",
    "all_multi_indices",
    "index_degrees",
    "degree_of_index",
    "d_max",
    "dim_leq",
    "dim_gt",
    "minors",
    "wedge",
    "wedge_from_columns",
    "gram_inner",
    "max_degrees",
]

# Relative threshold for "nonzero coefficient" in degree decisions; float
# noise from minors must not inflate the degree.
DEGREE_EPS = 1e-9
RANK_TOL = 1e-8  # relative singular-value threshold shared across the toolkit


class DegenerateInputError(ValueError):
    pass


@dataclass(frozen=True)
class GrowthVector:
    """Dimensions (n_1, ..., n_s) of the flag, with n_s = n."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("growth vector cannot be empty")
        if any(b <= a for a, b in zip(self.dims, self.dims[1:])) or self.dims[0] <= 0:
            raise ValueError(f"growth vector must be strictly increasing, got {self.dims}")

    @property
    def n(self) -> int:
        return self.dims[-1]

    @property
    def step(self) -> int:
        return len(self.dims)

    @property
    def homogeneous_dimension(self) -> int:
        prev = 0
        total = 0
        for i, ni in enumerate(self.dims, start=1):
            total += i * (ni - prev)
            prev = ni
        return total

    def weights(self) -> tuple[int, ...]:
        out = []
        prev = 0
        for i, ni in enumerate(self.dims, start=1):
            out.extend([i] * (ni - prev))
            prev = ni
        return tuple(out)

    def layer_of(self, index: int) -> int:
        """Layer (degree) of the 1-based frame index."""
        for i, ni in enumerate(self.dims, start=1):
            if index <= ni:
                return i
        raise IndexError(f"frame index {index} exceeds n={self.n}")

    def layer_slice(self, i: int) -> tuple[int, int]:
        """Half-open 0-based range of frame indices in layer i."""
        lo = 0 if i == 1 else self.dims[i - 2]
        return lo, self.dims[i - 1]


def _check_index(J, n: int):
    if len(J) < 1:
        raise ValueError("multi-index must have length >= 1")
    if any(b <= a for a, b in zip(J, J[1:])):
        raise ValueError(f"multi-index must be strictly increasing, got {J}")
    if J[0] < 1 or J[-1] > n:
        raise ValueError(f"multi-index {J} out of range 1..{n}")


def degree_of_index(J, weights) -> int:
    """Weighted degree of a simple m-vector index."""
    _check_index(J, len(weights))
    return sum(weights[j - 1] for j in J)


def d_max(m: int, weights) -> int:
    """Largest degree an m-vector can have: sum of the m largest weights."""
    if not 1 <= m <= len(weights):
        raise ValueError(f"m={m} out of range for n={len(weights)}")
    return sum(sorted(weights)[-m:])


def all_multi_indices(n: int, m: int):
    return itertools.combinations(range(1, n + 1), m)


def index_degrees(n: int, m: int, weights) -> np.ndarray:
    """Degrees of the multi-indices in ``all_multi_indices(n, m)`` order."""
    return np.array([degree_of_index(J, weights) for J in all_multi_indices(n, m)])


def indices_with_degree(n: int, m: int, weights, predicate):
    return [J for J in all_multi_indices(n, m) if predicate(degree_of_index(J, weights))]


def _dim_count(growth: GrowthVector, m: int, keep) -> int:
    dims = growth.dims
    s = growth.step
    sizes = [dims[0]] + [dims[i] - dims[i - 1] for i in range(1, s)]
    total = 0
    for ks in itertools.product(*(range(min(size, m) + 1) for size in sizes)):
        if sum(ks) != m:
            continue
        deg = sum(i * k for i, k in zip(range(1, s + 1), ks))
        if not keep(deg):
            continue
        prod = 1
        for size, k in zip(sizes, ks):
            prod *= _binom(size, k)
        total += prod
    return total


def _binom(a: int, b: int) -> int:
    if b < 0 or b > a:
        return 0
    out = 1
    for i in range(b):
        out = out * (a - i) // (i + 1)
    return out


def dim_leq(growth: GrowthVector, m: int, d: int) -> int:
    """Dimension of the space of m-vectors of degree at most d."""
    if not 1 <= m <= growth.n:
        raise ValueError(f"m={m} out of range")
    return _dim_count(growth, m, lambda deg: deg <= d)


def dim_gt(growth: GrowthVector, m: int, d: int) -> int:
    """Dimension of the space of m-vectors of degree strictly above d."""
    if not 1 <= m <= growth.n:
        raise ValueError(f"m={m} out of range")
    return _dim_count(growth, m, lambda deg: deg > d)


@dataclass(frozen=True)
class MVector:
    """Sparse m-vector: map from increasing multi-indices to coefficients."""

    m: int
    terms: dict[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        for J in self.terms:
            if len(J) != self.m:
                raise ValueError(f"index {J} does not have order m={self.m}")
            if any(b <= a for a, b in zip(J, J[1:])):
                raise ValueError(f"multi-index {J} is not strictly increasing")
        cleaned = {J: c for J, c in self.terms.items() if c != 0.0}
        if len(cleaned) != len(self.terms):
            object.__setattr__(self, "terms", cleaned)

    @classmethod
    def zero(cls, m: int) -> "MVector":
        return cls(m, {})

    @classmethod
    def single(cls, J, coeff: float = 1.0) -> "MVector":
        return cls(len(J), {tuple(J): float(coeff)})

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def coefficient(self, J) -> float:
        return self.terms.get(tuple(J), 0.0)

    def scaled(self, a: float) -> "MVector":
        return MVector(self.m, {J: a * c for J, c in self.terms.items()})

    def plus(self, other: "MVector") -> "MVector":
        if other.m != self.m:
            raise ValueError("order mismatch")
        out = dict(self.terms)
        for J, c in other.terms.items():
            out[J] = out.get(J, 0.0) + c
        return MVector(self.m, {J: c for J, c in out.items() if c != 0.0})

    def degree(self, weights, eps: float = DEGREE_EPS) -> int:
        """Max index degree among coefficients above ``eps`` relative to the peak."""
        peak = self.max_abs()
        if peak == 0.0:
            raise DegenerateInputError("degree of the zero m-vector is undefined")
        cut = eps * peak
        return max(
            degree_of_index(J, weights) for J, c in self.terms.items() if abs(c) > cut
        )

    def project_degree_eq(self, d: int, weights) -> "MVector":
        return MVector(
            self.m,
            {J: c for J, c in self.terms.items() if degree_of_index(J, weights) == d},
        )

    def project_degree_gt(self, d: int, weights) -> "MVector":
        return MVector(
            self.m,
            {J: c for J, c in self.terms.items() if degree_of_index(J, weights) > d},
        )

    def norm(self) -> float:
        """Euclidean norm of the coefficients (orthonormal frame)."""
        return float(np.sqrt(sum(c * c for c in self.terms.values())))

    def dot(self, other: "MVector") -> float:
        """Inner product assuming the underlying frame is orthonormal."""
        if other.m != self.m:
            raise ValueError("order mismatch")
        small, big = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        return float(sum(c * big.get(J, 0.0) for J, c in small.items()))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_json(self) -> str:
        return json.dumps(
            {"m": self.m, "terms": [{"J": list(J), "c": c} for J, c in self.sorted_terms()]}
        )

    @classmethod
    def from_json(cls, text: str) -> "MVector":
        data = json.loads(text)
        return cls(int(data["m"]), {tuple(t["J"]): float(t["c"]) for t in data["terms"]})


def minors(tau: np.ndarray) -> np.ndarray:
    """All m x m minors of a batch of n x m matrices: (N, n, m) -> (N, C(n, m)).

    Column k is the minor on the rows of the k-th multi-index of
    ``all_multi_indices(n, m)``.
    """
    tau = np.asarray(tau, dtype=float)
    _, n, m = tau.shape
    rows = np.array(list(all_multi_indices(n, m))) - 1
    if m >= 3:
        return np.linalg.det(tau[:, rows, :])
    # points last, so each minor is one contiguous row; returned transposed
    sub = np.ascontiguousarray(np.moveaxis(tau, 0, -1))[rows]  # (C, m, m, N)
    if m == 1:
        return sub[:, 0, 0].T
    return (sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]).T


def max_degrees(values: np.ndarray, degrees: np.ndarray, eps: float) -> np.ndarray:
    """Per row of minors, the largest index degree whose |minor| exceeds ``eps`` times the row peak."""
    size = np.abs(values)
    keep = size > eps * size.max(axis=1, keepdims=True)
    return np.where(keep, degrees, 0).max(axis=1)


def wedge(columns: np.ndarray) -> MVector:
    """Wedge of the columns of an n x m matrix; zero results are allowed."""
    mat = np.asarray(columns, dtype=float)
    n, m = mat.shape
    coeffs = minors(mat[None])[0]
    return MVector(m, {J: float(c) for J, c in zip(all_multi_indices(n, m), coeffs) if c != 0.0})


def wedge_from_columns(columns: np.ndarray, rank_tol: float = RANK_TOL) -> MVector:
    """Wedge of m numerically independent column vectors."""
    mat = np.asarray(columns, dtype=float)
    if mat.ndim != 2:
        raise ValueError("expected an n x m coefficient matrix")
    n, m = mat.shape
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[-1] <= rank_tol * max(svals[0], 1e-300):
        raise DegenerateInputError("columns are numerically rank deficient")
    return wedge(mat)


def gram_inner(x: MVector, y: MVector, vector_gram: np.ndarray) -> float:
    """Inner product of m-vectors induced by a vector Gram matrix.

    ``<X_J, X_K>`` is the determinant of the Gram submatrix G[J, K], the J
    minor of the columns G[:, K]; the result is the bilinear extension over
    the sparse coefficients.
    """
    if x.m != y.m:
        raise ValueError("order mismatch")
    G = np.asarray(vector_gram, dtype=float)
    row_of = {J: i for i, J in enumerate(all_multi_indices(G.shape[0], x.m))}
    cols = np.array([[k - 1 for k in K] for K in y.terms], dtype=int).reshape(len(y.terms), x.m)
    dets = minors(np.moveaxis(G[:, cols], 1, 0))  # dets[k, row_of[J]] = det G[J, K_k]
    total = 0.0
    for J, cj in x.terms.items():
        for k, ck in enumerate(y.terms.values()):
            total += cj * ck * dets[k, row_of[J]]
    return float(total)
