"""Degree-d area density, quadrature, dilated-metric areas, scaling probe.

The degree-d density at a parameter point is the norm of the degree-d part
of the unit tangent m-vector; it lies in [0, 1] and vanishes exactly where
the pointwise degree drops below d.  Areas integrate the density against the
induced measure sqrt(det mu), which by Cauchy-Binet is the norm of the same
row of tangent minors, with tensor Gauss-Legendre quadrature (integrands in the
catalog are smooth, so order 32 per axis is already overkill; acceptance
runs use 64).

The density depends on the parameters only through the tangent map, which is
evaluated on the sub-grid of the parameters it uses
(``Immersion.tangent_subgrid``): on a ruled graph theta = a x that is one
axis of the grid.  The tensor rule factorises there,
sum_ij w_i v_j f(x_i) = sum_i (w_i sum_j v_j) f(x_i), so every area is
refused, weighted and summed on that sub-grid with the tensor weights summed
over the dropped axes (``QuadratureGrid.sub_weights``), never on copies
broadcast to every node.  An integrand that uses every parameter keeps every
axis, and its weights are the tensor weights themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .immersion import Immersion
from .multivec import DEGREE_EPS, DegenerateInputError, max_degrees, minors_norm

__all__ = [
    "QuadratureGrid",
    "AreaResult",
    "ScalingProbe",
    "area_degree",
    "riemannian_area",
    "scaling_limit_probe",
    "area_singular_set",
]


class QuadratureGrid:
    """Tensor-product Gauss-Legendre rule over a parameter box."""

    def __init__(self, domain, orders):
        if isinstance(orders, int):
            orders = [orders] * len(domain)
        if len(orders) != len(domain):
            raise ValueError("one quadrature order per axis required")
        axes_nodes = []
        axes_weights = []
        for (lo, hi), order in zip(domain, orders):
            if order < 2:
                raise ValueError("per-axis quadrature order must be >= 2")
            x, w = np.polynomial.legendre.leggauss(int(order))
            axes_nodes.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
            axes_weights.append(0.5 * (hi - lo) * w)
        mesh = np.meshgrid(*axes_nodes, indexing="ij")
        wmesh = np.meshgrid(*axes_weights, indexing="ij")
        self.domain = tuple(domain)
        self.orders = tuple(int(o) for o in orders)
        self.points = np.stack([m.ravel() for m in mesh], axis=-1)
        self.weights = np.prod(np.stack([w.ravel() for w in wmesh], axis=-1), axis=-1)
        # kept axes -> sub-grid weights, at most one entry per subset of the axes
        self._sub_weights = {tuple(range(len(self.orders))): self.weights}

    def __len__(self):
        return self.points.shape[0]

    def sub_weights(self, keep) -> np.ndarray:
        """Weights of the sub-grid that keeps the axes ``keep`` and fixes each other axis.

        The tensor weights summed over the dropped axes, so an integrand that
        is constant along them integrates on the sub-grid alone; keeping
        every axis gives ``weights`` itself.
        """
        keep = tuple(keep)
        weights = self._sub_weights.get(keep)
        if weights is None:
            dropped = tuple(axis for axis in range(len(self.orders)) if axis not in keep)
            tensor = self.weights.reshape(self.orders)
            weights = self._sub_weights[keep] = np.add.reduce(tensor, axis=dropped).ravel()
        return weights

    def integrate_values(self, values: np.ndarray, keep=None) -> float:
        """Weighted sum of node values by numpy's pairwise sum, not BLAS.

        ``values`` are given on the sub-grid of the axes ``keep`` (default:
        all, the whole grid) and weighted by ``sub_weights``.  One thread, so
        the result does not depend on core count or BLAS threads.
        """
        weights = self.weights if keep is None else self.sub_weights(keep)
        return float(np.add.reduce(weights * values))


def _theta(minors: np.ndarray, degrees: np.ndarray, d: int, volume: np.ndarray) -> np.ndarray:
    """Degree-d density from the tangent minors: |degree-d part| / |all|, |all| = ``volume``.

    A zero or non-finite minors row gives NaN (0/0, inf/inf) or a NaN density
    (0 * inf), which callers refuse with ``_finite_at_nodes``.
    """
    deg_sq = np.zeros(minors.shape[0])
    with np.errstate(over="ignore"):  # an overflow gives inf, refused like a NaN
        for vals, deg in zip(minors.T, degrees):
            if deg == d:
                deg_sq += vals**2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(deg_sq) / volume


def _finite_at_nodes(values: np.ndarray, points: np.ndarray, what: str) -> np.ndarray:
    """``values`` at the sub-grid ``points``, refused at the first point where one is not finite.

    That point is the first such node of the whole grid in C order
    (``Immersion.tangent_subgrid``).  ``what`` names the area: "degree-d"
    or "g_r (r = ...)".
    """
    bad = ~np.isfinite(values)
    if np.any(bad):
        node = tuple(float(x) for x in points[int(np.argmax(bad))])
        raise DegenerateInputError(
            f"{what} area density is not finite at quadrature node {node}"
        )
    return values


def _degree_density(minors: np.ndarray, degrees: np.ndarray, d: int, points: np.ndarray):
    """theta * sqrt(det mu) at the sub-grid ``points``, refused where not finite."""
    volume = minors_norm(minors)
    return _finite_at_nodes(_theta(minors, degrees, d, volume) * volume, points, f"degree-{d}")


@dataclass
class AreaResult:
    value: float
    degree: int  # requested degree d
    degree_seen: int  # max pointwise degree over the quadrature nodes
    divergent_by_theory: bool  # d below the observed degree


def area_degree(imm: Immersion, d: int, grid: QuadratureGrid) -> AreaResult:
    """Quadrature of the degree-d density against the induced measure.

    If d is smaller than the degree observed on the grid the finite value
    is still returned but tagged divergent (the limit definition gives
    +infinity in that case).
    """
    points, keep, _, minors = imm.tangent_minors(grid.points, grid.orders)
    degrees = imm.multi_index_degrees
    value = grid.integrate_values(_degree_density(minors, degrees, d, points), keep)
    seen = int(max_degrees(minors, degrees, DEGREE_EPS).max())
    return AreaResult(value, d, seen, d < seen)


def _dilated_areas(imm: Immersion, grid: QuadratureGrid, rs) -> list[float]:
    """Area(g_r) for each r in ``rs``, from one evaluation of the tangent minors.

    All r are swept at once: the density squared at r is the sum over the
    minors of minor^2 r^-(excess), accumulated in minor order from zeros into
    one (R, S) total, so each row holds the bits of a loop over r alone.  The
    first r, in order, with a density that is not finite is refused, naming
    its first node; an r whose scales r^-(excess) overflow a float is
    refused first, before the tangent pass.
    """
    excess = (imm.multi_index_degrees - imm.m).tolist()
    scales = []  # (R, C), Python floats
    for r in rs:
        try:
            scales.append([r ** (-e) for e in excess])
        except OverflowError:
            raise DegenerateInputError(
                f"g_r (r = {r}) scale r^-{max(excess)} overflows a float"
            ) from None
    points, keep, _, minors = imm.tangent_minors(grid.points, grid.orders)
    total = np.zeros((len(rs), points.shape[0]))
    term = np.empty_like(total)
    with np.errstate(over="ignore"):  # an overflow gives inf, refused with its node
        for vals_sq, scale in zip((minors**2).T, np.array(scales).T):
            total += np.multiply(scale[:, None], vals_sq, out=term)
    density = np.sqrt(total)
    bad = ~np.isfinite(density)
    if bad.any():
        k = int(np.argmax(bad.any(axis=1)))
        _finite_at_nodes(density[k], points, f"g_r (r = {rs[k]})")  # raises
    return [grid.integrate_values(row, keep) for row in density]


def riemannian_area(imm: Immersion, r: float, grid: QuadratureGrid) -> float:
    """Area of the image for the dilated metric g_r."""
    if not 0 < r < math.inf:
        raise ValueError(f"r must be finite and positive, got {r}")
    return _dilated_areas(imm, grid, [r])[0]


@dataclass
class ScalingProbe:
    r_values: tuple[float, ...]
    values: tuple[float, ...]
    limit: float | None
    rate: float | None
    converged: bool
    divergent: bool
    zero_limit: bool


def scaling_limit_probe(imm: Immersion, d: int, grid: QuadratureGrid, r_sequence) -> ScalingProbe:
    """Probe v(r) = r^{(d-m)/2} Area(g_r) along a decreasing r sequence.

    Fits v = v0 + c r^rate on the final points for the extrapolated limit;
    flags divergence when v grows as r decreases (d below the true degree)
    and a zero limit when v collapses (d above it).
    """
    rs = [float(r) for r in r_sequence]
    if not all(0 < r < math.inf for r in rs) or any(b >= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r sequence must be finite, positive and strictly decreasing")
    m = imm.m
    vals = [r ** ((d - m) / 2.0) * area_r for r, area_r in zip(rs, _dilated_areas(imm, grid, rs))]
    vals_arr = np.array(vals)
    divergent = False
    if len(vals) >= 3:
        divergent = bool(
            vals_arr[-1] > vals_arr[-2] > vals_arr[-3]
            and vals_arr[-1] > 2.0 * vals_arr[0]
        )
    if not divergent and len(vals) >= 2:
        divergent = bool(vals_arr[-1] > 10.0 * vals_arr[0])
    limit = None
    rate = None
    converged = False
    if not divergent and len(vals) >= 3:
        d1 = vals_arr[-2] - vals_arr[-3]
        d2 = vals_arr[-1] - vals_arr[-2]
        if abs(d1) > 0 and abs(d2) > 0 and d1 * d2 > 0:
            q = d2 / d1
            ratio = rs[-1] / rs[-2]
            # v ~ v0 + c r^rate with geometric r gives geometric differences
            if 0 < q < 1:
                rate = float(np.log(q) / np.log(ratio))
                limit = float(vals_arr[-1] + d2 * q / (1 - q))
                converged = True
        if not converged:
            limit = float(vals_arr[-1])
            converged = bool(abs(d2) <= 1e-9 * max(1.0, abs(vals_arr[-1])))
    elif not divergent:
        limit = float(vals_arr[-1])
    zero_limit = bool(
        limit is not None and abs(limit) <= 1e-6 * max(1.0, float(vals_arr[0]))
    )
    return ScalingProbe(tuple(rs), tuple(vals), limit, rate, converged, divergent, zero_limit)


def area_singular_set(imm: Immersion, grid: QuadratureGrid, d: int | None = None) -> float:
    """Quadrature of the degree-d density restricted to the singular mask."""
    points, keep, _, minors = imm.tangent_minors(grid.points, grid.orders)
    degrees = imm.multi_index_degrees
    pointwise = max_degrees(minors, degrees, DEGREE_EPS)
    deg_max = int(pointwise.max())
    d = deg_max if d is None else d
    density = _degree_density(minors, degrees, d, points)
    return grid.integrate_values(np.where(pointwise < deg_max, density, 0.0), keep)
