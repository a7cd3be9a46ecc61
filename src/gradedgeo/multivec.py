"""Multi-index combinatorics, the minors kernel and the shared tolerances.

A multi-index is a strictly increasing tuple of frame indices (1-based).
An m-vector is a dense row of coefficients, one per multi-index in
``all_multi_indices(n, m)`` order; a simple m-vector's row is the m x m
minors of its column matrix, shape (C(n, m),) at a point or (N, C(n, m))
over a batch.  ``minors`` is the one batched kernel that computes these
rows: tangent m-vectors, degree scans and areas all read them, the induced
volume is their norm (``minors_norm``, Cauchy-Binet), and the m-vector
change of a frame change (``compound``) is built from the kernel.  The degree
of a row relative to a weight vector (``max_degrees`` over
``index_degrees``) is the largest weighted index sum among the coefficients
above a relative threshold of the row peak.  The tolerances shared across
the toolkit live here too.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GrowthVector",
    "DEGREE_EPS",
    "RANK_TOL",
    "NORMAL_PIVOT_TOL",
    "SUPPORT_TOL",
    "ACTIVE_REL_TOL",
    "THETA_FLOOR",
    "CONTROL_DET_TOL",
    "FILTRATION_TOL",
    "TRANSPORT_TOL",
    "all_multi_indices",
    "index_degrees",
    "degree_of_index",
    "d_max",
    "dim_leq",
    "dim_gt",
    "minors",
    "minors_norm",
    "compound",
    "max_degrees",
]

# Relative threshold for "nonzero coefficient" in degree decisions; float
# noise from minors must not inflate the degree.
DEGREE_EPS = 1e-9
RANK_TOL = 1e-8  # relative singular-value threshold shared across the toolkit
# Squared norm below which a normal Gram-Schmidt candidate counts as dependent.
NORMAL_PIVOT_TOL = 1e-8
# Largest |V| on the domain boundary accepted as "compactly supported".
SUPPORT_TOL = 1e-8
# A field is active where |V| exceeds this fraction of its peak over the grid.
ACTIVE_REL_TOL = 1e-12
# Degree-d density below which it counts as vanishing inside the support.
THETA_FLOOR = 1e-10
# |det| of the best control block below which no invertible block exists.
CONTROL_DET_TOL = 1e-12
# Relative least-squares residual of [H^i, H^j] off H^{i+j} counted as a violation.
FILTRATION_TOL = 1e-8
# Largest error of a metric-change transport identity accepted as exact.
TRANSPORT_TOL = 1e-7


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
            prod *= math.comb(size, k)
        total += prod
    return total


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


@functools.lru_cache(maxsize=16)
def _index_rows(n: int, m: int) -> np.ndarray:
    """Read-only (C(n, m), m) array of the 0-based multi-indices, ``all_multi_indices`` order."""
    rows = np.array(list(all_multi_indices(n, m))) - 1
    rows.flags.writeable = False
    return rows


def minors(tau: np.ndarray) -> np.ndarray:
    """All m x m minors of a batch of n x m matrices: (N, n, m) -> (N, C(n, m)).

    Column k is the minor on the rows of the k-th multi-index of
    ``all_multi_indices(n, m)``.  For m <= 2 each minor is written into one
    contiguous row of a (C, N) array straight from the points-last rows of
    ``tau`` (contiguous when ``tau`` is the transpose of an (n, m, N) array),
    with no gathered copy, and the (N, C) transpose is returned.
    """
    tau = np.asarray(tau, dtype=float)
    N, n, m = tau.shape
    if m >= 3:
        return np.linalg.det(tau[:, _index_rows(n, m), :])
    out = np.empty((math.comb(n, m), N))
    if m == 1:
        out[:] = tau[:, :, 0].T
        return out.T
    # points-last rows of the two columns; the indices (i, j), j > i, are one
    # block of consecutive minors per i, so each block is
    # col0[i] col1[j] - col1[i] col0[j] over the slice j > i
    col0, col1 = tau[:, :, 0].T, tau[:, :, 1].T  # (n, N)
    scratch = np.empty((n - 1, N))
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        block, other = out[start:stop], scratch[: stop - start]
        np.multiply(col0[i], col1[i + 1 :], out=block)
        np.multiply(col1[i], col0[i + 1 :], out=other)
        np.subtract(block, other, out=block)
        start = stop
    return out.T


def minors_norm(values: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of minors, (N, C) -> (N,), summed in index order.

    By Cauchy-Binet it is sqrt(det(tau^T tau)) for the n x m matrices tau the
    rows were taken from: the induced volume.  A non-finite row gives a
    non-finite norm.
    """
    total_sq = np.zeros(values.shape[0])
    with np.errstate(over="ignore"):  # an overflow gives inf, which callers refuse
        for vals in values.T:  # contiguous rows when ``values`` came from ``minors``
            total_sq += vals**2
    return np.sqrt(total_sq)


def compound(D: np.ndarray, m: int) -> np.ndarray:
    """m-th compound of an n x n matrix: entry (J, I) is det D[J, I], ``all_multi_indices`` order.

    It is the m-vector change induced by the frame change D.
    """
    D = np.asarray(D, dtype=float)
    cols = _index_rows(D.shape[0], m)
    return minors(np.moveaxis(D[:, cols], 1, 0)).T


def max_degrees(values: np.ndarray, degrees: np.ndarray, eps: float) -> np.ndarray:
    """Per row of minors, the largest index degree whose |minor| exceeds ``eps`` times the row peak."""
    size = np.abs(values)
    keep = size > eps * size.max(axis=1, keepdims=True)
    return np.where(keep, degrees, 0).max(axis=1)
