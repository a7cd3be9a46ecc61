"""Parametrized immersions into a graded manifold.

The central object expresses an immersion by n component expressions over m
parameters, bound to a manifold.  The tangent space is expanded in the
orthonormal adapted frame; the tangent m-vector is the dense row of m x m
minors of that coefficient matrix (``multivec.minors``), and dividing it by
the induced volume sqrt(det mu) gives the unit tangent m-vector.  By
Cauchy-Binet that volume is the norm of the minors row
(``multivec.minors_norm``), so no Gram matrix or determinant is formed.
Every evaluation takes an (N, m) array of parameter points, and one point
is a (1, m) array: a batch of one runs the grid path, so a point's degree is
the grid degree rule applied to one row.  Parameter expressions are
evaluated in one place, ``Immersion.values_at``, which refuses a value that
is not finite by naming its grid point.

The tangent map is tau = (C o Phi) J, with C the orthonormal coframe and
J the Jacobian: ``tau_exprs`` in normal form for the symbolic frames, and
the grid roots ``_tangent_roots`` from the same coframe and Jacobian.  The
grid path keeps tangent data points last, so every per-entry operation runs
over one contiguous row of N values: the Jacobian, tau and the sum of the
squared entries of C o Phi are evaluated in one tape pass into row arrays
(one row per expression, shape (k, N)).  There C o Phi and the product are
built as written (``exprs.as_written``: no normal form), so C o Phi
evaluates as C at the values of Phi.  The product sums over ascending j and
drops the terms whose factor is the structural constant 0, so adding 0
times that sum gives the values of a dense einsum from its zero start, bit
for bit, and NaN wherever an entry of C o Phi is not finite, even one the
product dropped against a structurally zero row of J (a frame that is no
basis on the image).  On a tensor grid the tangent map is evaluated only on
the sub-grid of the parameters J and tau use (``tangent_subgrid``; the NaN
guard is checked on its own sub-grid), and per-point results are broadcast
back onto every node.  ``_tangent_grids`` returns (N, n, m) views of the
(n, m, N) arrays, which ``multivec.minors`` reads back points last without
a copy.  The degree scan refuses rank-deficient points from the same minors
row: for m = 2 sigma_min / sigma_max is closed form in the row norm and the
Frobenius norm of tau (``_rank_deficient``), and only other m take singular
values.  Its lower-semicontinuity check takes neighbour maxima with shifted
slices, not a loop over grid points.

The degree-adapted tangent basis used by the admissibility machinery is the
column-echelon basis with one pivot row per tangent-flag layer: each basis
vector carries coefficient 1 at its pivot row and 0 at the other pivots,
which pins the basis uniquely once the pivot rows are chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exprs import (
    Add, Const, Expr, Mul, add_all, as_written, evaluate_at, evaluate_many, variables_each,
)
from .manifold import Manifold, numeric_rank
from .multivec import (
    DEGREE_EPS,
    RANK_TOL,
    DegenerateInputError,
    index_degrees,
    max_degrees,
    minors,
    minors_norm,
)
from .symmat import ZERO, emat_mul

__all__ = [
    "Immersion",
    "DegreeScanReport",
    "uniform_grid",
    "degree_scan",
]


def uniform_grid(domain, shape):
    """Uniform grid strictly inside the box (cell midpoints), shape (N, m)."""
    axes = []
    for (lo, hi), count in zip(domain, shape):
        step = (hi - lo) / count
        axes.append(lo + step * (np.arange(count) + 0.5))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1), tuple(int(c) for c in shape)


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
        if self.base_coords is not None and len(self.base_coords) != len(self.params):
            raise ValueError("one base coordinate per parameter required")
        self.name = name
        # Symbolic frame bundle, set by ``admissibility.frames_for``; holding it
        # here lets that cache reference it weakly.
        self._frames = None

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

    def grid_env(self, points: np.ndarray) -> dict:
        pts = np.asarray(points, dtype=float)
        return {name: pts[:, i] for i, name in enumerate(self.params)}

    def _grid_values(self, exprs, points: np.ndarray) -> np.ndarray:
        """Values of ``exprs`` over ``points`` (N, m) from one tape pass, (len(exprs), N).

        Non-finite values propagate.
        """
        values = np.empty((len(exprs), len(points)))
        for k, v in enumerate(evaluate_many(exprs, self.grid_env(points))):
            values[k] = v
        return values

    def values_at(self, exprs, points) -> np.ndarray:
        """Values of ``exprs`` at parameter points (N, m), one row per expression: (len(exprs), N).

        One tape pass; one point is a (1, m) array.  The first point that
        holds a value that is not finite is refused, naming its cause and
        that grid point (``exprs.evaluate_at``).
        """
        return evaluate_at(exprs, self.params, points)

    @cached_property
    def multi_index_degrees(self) -> np.ndarray:
        """Read-only degrees of the multi-indices in ``all_multi_indices(n, m)`` order."""
        degrees = index_degrees(self.n, self.m, self.manifold.weights)
        degrees.flags.writeable = False
        return degrees

    @cached_property
    def jacobian_exprs(self):
        """J[c][a] = d components_c / d param_a."""
        return [
            [comp.diff(name) for name in self.params] for comp in self.components
        ]

    def midpoint(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.domain])

    def sample_points(self, count: int, seed: int = 0) -> np.ndarray:
        """Seeded uniform points of the domain, kept 5% of each side off its boundary."""
        margin = 0.05
        rng = np.random.default_rng(seed)
        lo = np.array([a for a, _ in self.domain])
        hi = np.array([b for _, b in self.domain])
        span = hi - lo
        return lo + span * (margin + (1 - 2 * margin) * rng.random((count, self.m)))

    # -- the tangent map tau = (coframe o Phi) J -------------------------------

    @cached_property
    def _phi_map(self) -> dict:
        return dict(zip(self.manifold.coords, self.components))

    def compose(self, expr: Expr) -> Expr:
        """Restrict an ambient expression to the image (substitute Phi)."""
        return expr.substitute(self._phi_map)

    @cached_property
    def ortho_coframe_exprs(self):
        """The orthonormal coframe composed with Phi, n x n expressions in the parameters.

        A frame field whose components all compose to the constant 0 is no
        basis field anywhere on the image; it is refused by name here, before
        its coframe's constant 1/0 reaches a tape.
        """
        self._refuse_vanishing_frame()
        return [[self.compose(e) for e in row] for row in self.manifold.ortho_coframe_exprs]

    def _refuse_vanishing_frame(self) -> None:
        for j, field in enumerate(self.manifold.frame.fields, start=1):
            if all(type(c) is Const and c.value == 0.0 for c in map(self.compose, field)):
                raise DegenerateInputError(
                    f"frame field X{j} vanishes on the image, so the frame is no basis there"
                )

    @cached_property
    def tau_exprs(self):
        """Orthonormal-frame components of dPhi, (coframe o Phi) J: n x m expressions."""
        return emat_mul(self.ortho_coframe_exprs, self.jacobian_exprs)

    @cached_property
    def _tangent_roots(self) -> list:
        """The Jacobian, tau (both row-major) and the sum of squared coframe entries.

        C o Phi and tau are built as written (module docstring), so their
        values are those of the dense contraction of C at the values of Phi.
        """
        self._refuse_vanishing_frame()
        coframe = [
            [e.substitute(self._phi_map, written=True) for e in row]
            for row in self.manifold.ortho_coframe_exprs
        ]
        jac = self.jacobian_exprs
        tau = [[ZERO] * self.m for _ in range(self.n)]
        for i, row in enumerate(coframe):
            for j, c in enumerate(row):
                if c is not ZERO:
                    for a in range(self.m):
                        tau[i][a] = as_written(Add, tau[i][a], as_written(Mul, c, jac[j][a]))
        coframe_sq = add_all([e * e for row in coframe for e in row])
        return [
            *(e for row in jac for e in row),
            *(e for row in tau for e in row),
            coframe_sq,
        ]

    @cached_property
    def _tangent_axes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Indices of the parameters that J and tau use, and those that the guard uses."""
        *used, guard = variables_each(self._tangent_roots)
        used = frozenset().union(*used)
        return tuple(self._axes(used)), tuple(self._axes(guard))

    def _axes(self, names) -> list[int]:
        return [i for i, name in enumerate(self.params) if name in names]

    def tangent_subgrid(self, points: np.ndarray, shape):
        """The nodes of a tensor grid at which the tangent map can differ, and ``expand``.

        ``points`` (N, m) are the nodes of a grid of ``shape`` in C order.
        The sub-grid keeps every axis whose parameter J or tau uses and fixes
        each other axis at its first node, so the tangent map at a node
        equals its value at the sub-grid point that shares the kept
        coordinates.  The NaN guard (the squared entries of C o Phi) may use
        more parameters; it is evaluated on its own sub-grid first, and
        where it is not finite the whole grid is kept, so a refusal names
        the same node as a full-grid pass.  ``expand`` broadcasts
        per-sub-point values (..., S) back onto all N nodes in C order.
        """
        shape = tuple(int(c) for c in shape)
        keep, guard_keep = self._tangent_axes
        if not set(guard_keep) <= set(keep):
            # the guard's NaN reaches every node: where C o Phi is not finite
            # on the guard's own sub-grid, the whole grid is evaluated
            guard_points, _ = self._subgrid(points, shape, guard_keep)
            (guard,) = evaluate_many(self._tangent_roots[-1:], self.grid_env(guard_points))
            if not np.isfinite(guard).all():
                keep = tuple(range(len(shape)))
        return self._subgrid(points, shape, keep)

    def _subgrid(self, points, shape, keep):
        if len(keep) == len(shape):
            return points, lambda values: values
        sub_shape = tuple(c if axis in keep else 1 for axis, c in enumerate(shape))
        corner = tuple(slice(None) if axis in keep else slice(0, 1) for axis in range(len(shape)))
        sub = np.asarray(points).reshape(*shape, self.m)[corner].reshape(-1, self.m)

        def expand(values):
            values = np.asarray(values)
            lead = values.shape[:-1]
            grid = np.broadcast_to(values.reshape(*lead, *sub_shape), (*lead, *shape))
            return grid.reshape(*lead, -1)

        return sub, expand

    def _tangent_grids(self, points: np.ndarray):
        """dPhi over many points, (N, n, m): in coordinates and in the orthonormal adapted frame.

        Both are views of points-last (n, m, N) arrays from one evaluation.
        """
        pts = np.asarray(points, dtype=float)
        n, m, N = self.n, self.m, pts.shape[0]
        values = self._grid_values(self._tangent_roots, pts)
        jac = values[: n * m].reshape(n, m, N)
        tau = values[n * m : -1].reshape(n, m, N)
        # the dense contraction's zero start (-0 becomes +0), and NaN where
        # C o Phi is not finite (module docstring)
        with np.errstate(invalid="ignore"):
            tau += 0.0 * values[-1]
        return jac.transpose(2, 0, 1), tau.transpose(2, 0, 1)

    def ortho_tangent_grid(self, points: np.ndarray) -> np.ndarray:
        """Orthonormal-adapted-frame components of dPhi over many points, (N, n, m)."""
        return self._tangent_grids(points)[1]

    def minors_grid(self, tau: np.ndarray) -> np.ndarray:
        """All m x m minors over the grid, (N, C(n, m)) in ``all_multi_indices`` order."""
        return minors(tau)

    # -- tangent structure at points (N, m) ------------------------------------

    def _checked_tangent(self, points):
        """tau (N, n, m) and its minors rows at points (N, m), refused where degenerate.

        The first point that is degenerate by the degree scan's rule
        (``_rank_deficient``, worded by ``_degeneracy``) is refused, naming
        the point.
        """
        pts = np.asarray(points, dtype=float)
        tau = self.ortho_tangent_grid(pts)
        rows = self.minors_grid(tau)
        bad = _rank_deficient(tau, rows)
        if bad.any():
            k = int(np.argmax(bad))
            what = _degeneracy(tau[k], rows[k], "Jacobian is rank deficient")
            raise DegenerateInputError(f"immersion {what} at {tuple(map(float, pts[k]))}")
        return tau, rows

    def degrees(self, points) -> np.ndarray:
        """The degree at each of the points (N, m): the grid degree rule on its minors row."""
        _, rows = self._checked_tangent(points)
        return max_degrees(rows, self.multi_index_degrees, DEGREE_EPS)

    def flag_dims(self, points) -> list[tuple[int, ...]]:
        """dim(T cap H^j) for each layer j, at each of the points (N, m)."""
        tau, _ = self._checked_tangent(points)
        return [self._flag_dims(t) for t in tau]

    def adapted_pivots(self, points) -> list[tuple[int, ...]]:
        """Pivot rows (1-based) of the degree-adapted echelon tangent basis at each point."""
        pts = np.asarray(points, dtype=float)
        tau, _ = self._checked_tangent(pts)
        return [self._adapted_pivots(t, p) for t, p in zip(tau, pts)]

    def _flag_dims(self, tau: np.ndarray) -> tuple[int, ...]:
        """dim(T cap H^j) for each layer j, from the ortho components tau (n x m)."""
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

    def _adapted_pivots(self, tau: np.ndarray, pbar) -> tuple[int, ...]:
        """Pivot rows (1-based) of the echelon basis of tau (n x m); ``pbar`` names the point.

        Layer-j pivots are chosen so the pivot rows resolve the flag
        subspace T cap H^j itself (rank tested against a null-space basis of
        the higher-layer block), which makes the pivot submatrix invertible
        and each echelon vector land in its flag layer.
        """
        growth = self.manifold.growth
        dims = self._flag_dims(tau)
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
                    f"could not complete adapted pivots in layer {j} "
                    f"at {tuple(map(float, pbar))}"
                )
        return tuple(p + 1 for p in pivots)


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


def _rank_deficient(tau: np.ndarray, minors_rows: np.ndarray) -> np.ndarray:
    """Per point, True unless sigma_min > RANK_TOL * sigma_max for tau (N, n, m); NaN is True.

    ``minors_rows`` are the (N, C) minors of tau.  For m = 2 the ratio is
    closed form: with P = |minors row| = sigma_min sigma_max (Cauchy-Binet)
    and F = |tau|_F^2 = sigma_min^2 + sigma_max^2,
    sigma_max^2 = (F + sqrt(F^2 - 4 P^2)) / 2, and the test is
    P > RANK_TOL sigma_max^2.  Other m take the singular values of the
    finite points; a point that is not finite is True.
    """
    if tau.shape[2] != 2:
        finite = np.isfinite(tau).all(axis=(1, 2))
        svals = np.linalg.svd(np.where(finite[:, None, None], tau, 0.0), compute_uv=False)
        return ~finite | ~(svals[:, -1] > RANK_TOL * np.maximum(svals[:, 0], 1e-300))
    P = minors_norm(minors_rows)
    F = np.zeros(tau.shape[0])
    with np.errstate(over="ignore"):  # an infinite F is refused with its point
        for entry in tau.transpose(1, 2, 0).reshape(-1, tau.shape[0]):  # points-last rows
            F += entry**2
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_max_sq = 0.5 * (F + np.sqrt(np.maximum(F * F - 4.0 * P * P, 0.0)))
        return ~(P > RANK_TOL * sigma_max_sq)


def _degeneracy(tau: np.ndarray, row: np.ndarray, rank: str = "is rank deficient") -> str:
    """What is wrong at a point that ``_rank_deficient`` refuses: tau (n, m), its minors row.

    ``rank`` words the case where tau and its minors are finite.
    """
    if not np.isfinite(tau).all():
        return "tangent is not finite"
    if not np.isfinite(minors_norm(row[None])[0]):
        return "tangent minors overflow"  # tau is finite, its minors or their squares are not
    return rank


def degree_scan(imm: Immersion, grid_shape) -> DegreeScanReport:
    """Grid certificate of the degree map and the singular mask."""
    points, shape = uniform_grid(imm.domain, grid_shape)
    sub, expand = imm.tangent_subgrid(points, shape)
    tau = imm.ortho_tangent_grid(sub)
    rows = imm.minors_grid(tau)
    # reject rank-deficient tangent maps anywhere on the grid, naming the
    # first such grid point in C order
    bad = expand(_rank_deficient(tau, rows))
    if np.any(bad):
        idx = int(np.argmax(bad))
        k = int(expand(np.arange(len(sub)))[idx])  # its sub-grid point
        what = _degeneracy(tau[k], rows[k])
        raise DegenerateInputError(
            f"immersion {what} at grid point {tuple(map(float, points[idx]))}"
        )
    degrees = expand(max_degrees(rows, imm.multi_index_degrees, DEGREE_EPS))
    deg_max = int(degrees.max())
    mask = degrees < deg_max
    lsc_violations = _lsc_violations(degrees.reshape(shape))
    return DegreeScanReport(
        shape, points, degrees, deg_max, mask, not lsc_violations, lsc_violations
    )


def _lsc_violations(grid: np.ndarray) -> list:
    """Grid indices, in C order, whose degree exceeds that of every axis neighbour.

    ``best`` is the largest neighbour degree, or -1 where a cell has no
    neighbour (every axis of length 1); such a cell is no violation.
    """
    best = np.full(grid.shape, -1)
    for axis in range(grid.ndim):
        head = [slice(None)] * grid.ndim
        tail = [slice(None)] * grid.ndim
        head[axis] = slice(None, -1)
        tail[axis] = slice(1, None)
        head, tail = tuple(head), tuple(tail)
        np.maximum(best[head], grid[tail], out=best[head])  # neighbour at +1
        np.maximum(best[tail], grid[head], out=best[tail])  # neighbour at -1
    return [tuple(idx) for idx in np.argwhere((best >= 0) & (grid > best)).tolist()]
