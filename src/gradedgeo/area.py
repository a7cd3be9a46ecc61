"""Degree-d area density, quadrature, dilated-metric areas, scaling probe.

The degree-d density at a parameter point is the norm of the degree-d part
of the unit tangent m-vector; it lies in [0, 1] and vanishes exactly where
the pointwise degree drops below d.  Areas integrate the density against the
induced measure with tensor Gauss-Legendre quadrature (integrands in the
catalog are smooth, so order 32 per axis is already overkill; acceptance
runs use 64).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .immersion import Immersion
from .multivec import DEGREE_EPS, DegenerateInputError, index_degrees, max_degrees

__all__ = [
    "QuadratureGrid",
    "AreaResult",
    "ScalingProbe",
    "density_theta",
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

    def __len__(self):
        return self.points.shape[0]

    def integrate_values(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def _theta_and_volume(imm: Immersion, points: np.ndarray, d: int):
    """Arrays (theta, sqrt(det mu), max degree seen) over the points."""
    tau = imm.ortho_tangent_grid(points)
    minors = imm.minors_grid(tau)
    degrees = index_degrees(imm.n, imm.m, imm.manifold.weights)
    gram = np.einsum("pim,pil->pml", tau, tau)
    det = np.linalg.det(gram)
    sqrt_det = np.sqrt(np.maximum(det, 0.0))
    total_sq = np.zeros(points.shape[0])
    deg_sq = np.zeros(points.shape[0])
    for vals, deg in zip(minors.T, degrees):
        total_sq += vals**2
        if deg == d:
            deg_sq += vals**2
    theta = np.sqrt(deg_sq) / np.sqrt(total_sq)
    return theta, sqrt_det, max_degrees(minors, degrees, DEGREE_EPS)


def density_theta(imm: Immersion, pbar, d: int) -> float:
    """Norm of the degree-d part of the unit tangent m-vector at a point."""
    pts = np.asarray(pbar, dtype=float)[None, :]
    theta, _, _ = _theta_and_volume(imm, pts, d)
    return float(theta[0])


@dataclass
class AreaResult:
    value: float
    degree: int  # requested degree d
    degree_seen: int  # max pointwise degree over the quadrature nodes
    divergent_by_theory: bool  # d below the observed degree

    def __float__(self):
        return self.value


def area_degree(imm: Immersion, d: int, grid: QuadratureGrid) -> AreaResult:
    """Quadrature of the degree-d density against the induced measure.

    If d is smaller than the degree observed on the grid the finite value
    is still returned but tagged divergent (the limit definition gives
    +infinity in that case).
    """
    theta, sqrt_det, degrees = _theta_and_volume(imm, grid.points, d)
    density = theta * sqrt_det
    bad = ~np.isfinite(density)
    if np.any(bad):
        node = tuple(float(x) for x in grid.points[int(np.argmax(bad))])
        raise DegenerateInputError(
            f"degree-{d} area density is not finite at quadrature node {node}"
        )
    value = grid.integrate_values(density)
    seen = int(degrees.max())
    return AreaResult(value, d, seen, d < seen)


def _dilated_areas(imm: Immersion, grid: QuadratureGrid, rs) -> list[float]:
    """Area(g_r) for each r in ``rs``, from one evaluation of the tangent minors."""
    minors_sq = imm.minors_grid(imm.ortho_tangent_grid(grid.points)) ** 2
    excess = (index_degrees(imm.n, imm.m, imm.manifold.weights) - imm.m).tolist()
    areas = []
    for r in rs:
        total = np.zeros(grid.points.shape[0])
        for vals_sq, e in zip(minors_sq.T, excess):
            total += vals_sq * r ** (-e)
        areas.append(grid.integrate_values(np.sqrt(total)))
    return areas


def riemannian_area(imm: Immersion, r: float, grid: QuadratureGrid) -> float:
    """Area of the image for the dilated metric g_r."""
    if r <= 0:
        raise ValueError("r must be positive")
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

    def table(self):
        return list(zip(self.r_values, self.values))


def scaling_limit_probe(imm: Immersion, d: int, grid: QuadratureGrid, r_sequence) -> ScalingProbe:
    """Probe v(r) = r^{(d-m)/2} Area(g_r) along a decreasing r sequence.

    Fits v = v0 + c r^rate on the final points for the extrapolated limit;
    flags divergence when v grows as r decreases (d below the true degree)
    and a zero limit when v collapses (d above it).
    """
    rs = [float(r) for r in r_sequence]
    if any(r <= 0 for r in rs) or any(b >= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r sequence must be positive and strictly decreasing")
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
    theta, sqrt_det, degrees = _theta_and_volume(imm, grid.points, d or 0)
    deg_max = int(degrees.max())
    if d is None:
        d = deg_max
        theta, sqrt_det, degrees = _theta_and_volume(imm, grid.points, d)
    mask = degrees < deg_max
    return grid.integrate_values(np.where(mask, theta * sqrt_det, 0.0))
