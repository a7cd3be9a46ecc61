"""Degree-d densities, areas, dilated-metric areas and the scaling probe."""

import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gradedgeo
from gradedgeo import catalog, verify
from gradedgeo.area import (
    QuadratureGrid,
    _dilated_areas,
    _theta,
    area_degree,
    area_singular_set,
    riemannian_area,
    scaling_limit_probe,
)
from gradedgeo.exprs import const, parse, var
from gradedgeo.immersion import (
    Immersion, _expand, _lsc_violations, degree_scan, uniform_grid,
)
from gradedgeo.manifold import AdaptedFrame, Manifold, MetricField
from gradedgeo.multivec import (
    DEGREE_EPS,
    DegenerateInputError,
    GrowthVector,
    max_degrees,
    minors_norm,
)
from gradedgeo.verify import engel_closed_forms


@pytest.fixture(scope="module")
def engel_graph():
    return catalog.immersion("engel-graph", theta="0.2*x + 0.3*y")


@pytest.fixture(scope="module")
def grid64():
    return QuadratureGrid(((0.0, 1.0), (0.0, 1.0)), 64)


def test_quadrature_grid_basics():
    grid = QuadratureGrid(((0.0, 2.0), (1.0, 3.0)), (8, 6))
    assert len(grid) == 48
    assert np.all(grid.weights > 0)
    assert grid.weights.sum() == pytest.approx(4.0, rel=1e-13)
    with pytest.raises(ValueError):
        QuadratureGrid(((0.0, 1.0),), (1,))


def minors_and_volume(imm, points):
    """Tangent minors (N, C), their index degrees and sqrt(det mu) at the points (N, m)."""
    *_, minors = imm.tangent_minors(points)
    return minors, imm.multi_index_degrees, minors_norm(minors)


def density_at(imm, p, d):
    """Degree-d density at one point: the area's density rule on a batch of one."""
    minors, degrees, volume = minors_and_volume(imm, np.asarray(p, dtype=float)[None, :])
    return float(_theta(minors, degrees, d, volume)[0])


def test_density_engel_closed_form(engel_graph):
    # density equals 1/alpha2 on ruled graphs
    points = engel_graph.sample_points(10, seed=0)
    for p, a2 in zip(points, engel_closed_forms(engel_graph, points)["a2"]):
        assert density_at(engel_graph, p, 4) == pytest.approx(1 / a2, rel=1e-12)


def test_density_range_and_singular_zero():
    h = catalog.immersion("h1xh1-surface", u="s^2")
    assert density_at(h, [0.0, 0.2], 3) == pytest.approx(0.0, abs=1e-15)
    for p in h.sample_points(10, seed=1):
        val = density_at(h, p, 3)
        assert 0.0 <= val <= 1.0 + 1e-12


def test_density_contact_matches_unit_normal_projection():
    rt = catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")
    for p in rt.sample_points(10, seed=2):
        # Theta * sqrt(det mu) equals sqrt(1 + X(u)^2), the horizontal-normal density
        u = rt.components[2]
        t, ux, uy = rt.values_at([u, u.diff("x"), u.diff("y")], p[None])[:, 0]
        xu = math.cos(t) * ux + math.sin(t) * uy
        theta = density_at(rt, p, 3)
        volume = minors_and_volume(rt, p[None])[2][0]
        assert theta * volume == pytest.approx(math.sqrt(1 + xu * xu), rel=1e-12)


def test_area_rt_graph_vs_1d_oracle():
    result = verify.areas(64, ["rt-graph"])
    assert result.passed, result.detail


def test_area_engel_graph_both_metrics():
    result = verify.areas(64, ["engel frame metric", "engel euclidean"])
    assert result.passed, result.detail


def test_area_below_degree_is_tagged(engel_graph, grid64):
    res = area_degree(engel_graph, 3, grid64)
    assert res.divergent_by_theory
    assert res.degree_seen == 4


def _flat_plane_immersion():
    coords = ("x", "y", "z")
    zero, one = const(0.0), const(1.0)
    frame = AdaptedFrame(
        coords,
        [(one, zero, zero), (zero, one, zero), (zero, zero, one)],
        GrowthVector((3,)),
    )
    mani = Manifold(frame, MetricField.frame_orthonormal())
    return Immersion(
        mani, ("a", "b"), (var("a"), var("b"), const(0.0)), ((0.0, 1.0), (0.0, 1.0))
    )


def test_riemannian_area_trivially_graded_plane():
    imm = _flat_plane_immersion()
    grid = QuadratureGrid(imm.domain, 16)
    for r in (1.0, 0.3, 1e-3):
        assert riemannian_area(imm, r, grid) == pytest.approx(1.0, rel=1e-12)


def test_riemannian_area_scales_layer_two_directions():
    # the plane is tangent to X1 ^ X3 (degree 3 = m + 1), so g_r stretches its
    # area element by r^(-1/2) and the area over [-1, 1]^2 is 4 r^(-1/2)
    plane = catalog.immersion("isolated-plane")
    grid = QuadratureGrid(plane.domain, 8)
    for r in (1.0, 1e-1, 1e-3):
        assert riemannian_area(plane, r, grid) == pytest.approx(4 * r**-0.5, rel=1e-12)


def test_riemannian_area_r1_is_plain_area(engel_graph, grid64):
    plain = riemannian_area(engel_graph, 1.0, grid64)
    # the volume point by point, each a batch of one
    td_area = grid64.integrate_values(
        np.array([minors_and_volume(engel_graph, p[None])[2][0] for p in grid64.points])
    )
    assert plain == pytest.approx(td_area, rel=1e-12)
    with pytest.raises(ValueError):
        riemannian_area(engel_graph, -1.0, grid64)


def test_riemannian_area_near_limit(engel_graph, grid64):
    a4 = area_degree(engel_graph, 4, grid64).value
    r = 1e-2
    scaled = r ** ((4 - 2) / 2.0) * riemannian_area(engel_graph, r, grid64)
    assert abs(scaled - a4) <= 0.02 * a4


SCALING_RS = [10.0**-i for i in range(1, 6)]


@pytest.fixture(scope="module")
def engel_scaling(engel_graph):
    """``verify.scaling`` at d = 4 on the 64^2 grid: the limit, and d = 3 and 5 beside it."""
    return verify.scaling(engel_graph, 4, 64, SCALING_RS)


def test_scaling_probe_convergence(engel_scaling):
    # converged, not divergent, the limit within 1e-3 of the area, and the
    # first correction O(r): rate 1 within 0.2
    assert engel_scaling.passed, engel_scaling.detail


def test_scaling_probe_values_are_scaled_riemannian_areas(engel_graph):
    grid = QuadratureGrid(engel_graph.domain, 16)
    rs = [10.0**-i for i in range(1, 4)]
    for d in (3, 4, 5):
        probe = scaling_limit_probe(engel_graph, d, grid, rs)
        for r, v in zip(rs, probe.values):
            assert v == r ** ((d - 2) / 2.0) * riemannian_area(engel_graph, r, grid)


def test_area_refuses_non_finite_density():
    rt = catalog.immersion("rt-graph", u="log(x-0.5)")
    grid = QuadratureGrid(rt.domain, 8)
    with pytest.raises(DegenerateInputError, match="not finite at quadrature node"):
        area_degree(rt, 3, grid)


def test_dilated_areas_refuse_non_finite_density():
    # sqrt(x - 0.5) is NaN for x < 0.5: g_r areas are refused by node, not NaN
    rt = catalog.immersion("rt-graph", u="sqrt(x-0.5)")
    grid = QuadratureGrid(rt.domain, 8)
    node = r"area density is not finite at quadrature node \(0\.0198550717512319\d*, "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError, match=r"^g_r \(r = 0\.5\) " + node):
            riemannian_area(rt, 0.5, grid)
        with pytest.raises(DegenerateInputError, match=r"^g_r \(r = 0\.1\) " + node):
            scaling_limit_probe(rt, 3, grid, [0.1, 0.01, 0.001])


def test_scaling_probe_divergence_below_degree(engel_scaling):
    # the oracle fails with "d=3 not flagged divergent" otherwise
    assert engel_scaling.passed, engel_scaling.detail


def test_scaling_probe_zero_above_degree(engel_graph, grid64, engel_scaling):
    # the oracle fails with "d=5 limit ..." unless d = 5 has a zero limit, at most 1e-6
    assert engel_scaling.passed, engel_scaling.detail
    with pytest.raises(ValueError):
        scaling_limit_probe(engel_graph, 4, grid64, [0.1, 0.2])


def test_area_singular_set_vanishes():
    h = catalog.immersion("h1xh1-surface", u="s^2")
    grid = QuadratureGrid(h.domain, 64)
    assert area_singular_set(h, grid) <= 1e-10
    eg = catalog.immersion("engel-graph", theta="0.2*x + 0.3*y")
    assert area_singular_set(eg, QuadratureGrid(eg.domain, 32)) == 0.0


def test_area_singular_set_evaluates_tangent_grid_once(monkeypatch):
    h = catalog.immersion("h1xh1-surface", u="s^2")
    grid = QuadratureGrid(h.domain, 33)  # odd order: the singular line s = 0 is a node
    explicit = area_singular_set(h, grid, d=3)
    calls = []
    original = Immersion.ortho_tangent_grid

    def counted(self, points):
        calls.append(len(points))
        return original(self, points)

    monkeypatch.setattr(Immersion, "ortho_tangent_grid", counted)
    assert area_singular_set(h, grid) == explicit
    # once, on the sub-grid of s: tau and J use s alone, and the NaN guard,
    # which uses t too, is finite on its own sub-grid
    assert calls == [grid.orders[0]]
    assert area_singular_set(h, grid, d=2) > 0.1  # the mask is not empty


def test_area_invariant_under_reparametrization(grid64):
    eg = catalog.immersion("engel-graph", theta="0.1*x + 0.4*y")
    a_ref = area_degree(eg, 4, grid64).value
    # boundary-fixing diffeomorphism of the unit square
    sub = {
        "x": parse("x + 0.08*sin(3.14159265358979*x)*sin(3.14159265358979*y)", ["x", "y"]),
        "y": parse("y - 0.06*sin(3.14159265358979*y)*sin(3.14159265358979*x)", ["x", "y"]),
    }
    comps = tuple(c.substitute(sub) for c in eg.components)
    warped = Immersion(eg.manifold, eg.params, comps, eg.domain, name="warped")
    a_warp = area_degree(warped, 4, grid64).value
    assert a_warp == pytest.approx(a_ref, rel=1e-9)


def test_h1xh1_metric_dependence():
    # the degree-3 area scales exactly like sqrt(lam + mu)
    u = "s^2 + 0.3*s"
    base = catalog.immersion("h1xh1-surface", u=u, lam=1.0, mu=1.0)
    grid = QuadratureGrid(base.domain, 64)
    a_base = area_degree(base, 3, grid).value
    for lam, mu in ((2.0, 1.0), (4.0, 4.0), (0.5, 2.5)):
        scaled = catalog.immersion("h1xh1-surface", u=u, lam=lam, mu=mu)
        a = area_degree(scaled, 3, grid).value
        predict = a_base * math.sqrt((lam + mu) / 2.0)
        assert a == pytest.approx(predict, rel=1e-9)
    # absolute closed form: integral of |u_s| sqrt(lam + mu)
    lam, mu = 2.0, 0.8
    imm = catalog.immersion("h1xh1-surface", u=u, lam=lam, mu=mu)
    # the integral of |2 s + 0.3| over [-1, 1] is (1.7^2 + 2.3^2) / 4 = 2.045
    oracle = (1.7**2 + 2.3**2) / 4 * 2.0 * math.sqrt(lam + mu)
    got = area_degree(imm, 3, grid).value
    # the kink at u_s = 0 limits plain Gauss quadrature accuracy
    assert got == pytest.approx(oracle, rel=1e-3)


def test_rank_deficient_node_is_refused_everywhere():
    # the cusp (x^3, y, x^3, 0) has a zero tangent minors row at x = 0, the
    # middle node of a 5-point Gauss rule; no function may return NaN there
    cusp = Immersion(
        catalog.manifold("engel-group"),
        ("x", "y"),
        tuple(parse(src, ("x", "y")) for src in ("x^3", "y", "x^3", "0")),
        ((-1.0, 1.0), (0.0, 1.0)),
    )
    grid = QuadratureGrid(cusp.domain, 5)
    node = r"not finite at quadrature node \(0\.0, "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError, match=node):
            area_degree(cusp, 3, grid)
        for d in (None, 3):
            with pytest.raises(DegenerateInputError, match=node):
                area_singular_set(cusp, grid, d)
        # the whole refusal names its node in plain floats: x = 0, the first y node
        grid53 = QuadratureGrid(cusp.domain, (5, 3))
        node = re.escape(f"(0.0, {float(grid53.points[6, 1])!r})")
        with pytest.raises(DegenerateInputError,
                           match=f"^degree-3 area density is not finite at quadrature node {node}$"):
            area_degree(cusp, 3, grid53)


def _graded_parabola():
    """(x, y, (x - 0.5)^2) in R^3 with X3 = d/dz of degree 2: degree 3, and 2 on x = 0.5."""
    frame = AdaptedFrame.from_json({
        "coordinates": ["x", "y", "z"],
        "frame": [
            {"degree": 1, "components": ["1", "0", "0"]},
            {"degree": 1, "components": ["0", "1", "0"]},
            {"degree": 2, "components": ["0", "0", "1"]},
        ],
    })
    comps = tuple(parse(src, ("x", "y")) for src in ("x", "y", "(x-0.5)^2"))
    return Immersion(Manifold(frame, MetricField.frame_orthonormal()), ("x", "y"), comps,
                     ((0.0, 1.0), (0.0, 1.0)))


_SUBGRID_CASES = {
    "engel-frame": (lambda: catalog.immersion("engel-graph", theta="0.53*x"), 4, 1),
    "engel-euclidean": (
        lambda: catalog.immersion("engel-graph", theta="0.53*x", metric="euclidean"), 4, 1),
    "rt": (lambda: catalog.immersion("rt-graph", u="x"), 3, 1),
    "parabola": (_graded_parabola, 3, 1),
    "two-parameter": (lambda: catalog.immersion("engel-graph", theta="0.53*x+0.41*y"), 4, 2),
}


@pytest.mark.parametrize("case", sorted(_SUBGRID_CASES))
def test_subgrid_results_equal_the_full_grid_bit_for_bit(case):
    build, d, kept = _SUBGRID_CASES[case]
    imm = build()
    grid = QuadratureGrid(imm.domain, (9, 8))  # odd along x: the parabola's line is a node
    sub, keep = imm.tangent_subgrid(grid.points, grid.orders)
    assert len(sub) == (9, 72)[kept - 1]
    assert keep == ((0,), (0, 1))[kept - 1]
    # reference: the tangent minors at every node, no sub-grid
    minors = imm.minors_grid(imm.ortho_tangent_grid(grid.points))
    degrees = imm.multi_index_degrees
    volume = minors_norm(minors)
    density = _theta(minors, degrees, d, volume) * volume
    pointwise = max_degrees(minors, degrees, DEGREE_EPS)
    deg_max = int(pointwise.max())

    # every node's values are those of the sub-grid point that shares its
    # kept coordinates: each full-grid array is the broadcast of its slice
    on_sub = (slice(None), slice(None) if kept == 2 else slice(0, 1))

    def sliced(values):
        nodes = values.reshape(*grid.orders, *values.shape[1:])
        part = nodes[on_sub]
        assert np.broadcast_to(part, nodes.shape).tobytes() == nodes.tobytes()
        return part.reshape(-1, *values.shape[1:])

    assert sliced(grid.points[:, list(keep)]).tobytes() == sub[:, list(keep)].tobytes()
    density_sub, pointwise_sub, minors_sq_sub = sliced(density), sliced(pointwise), sliced(minors**2)
    density_max = _theta(minors, degrees, deg_max, volume) * volume

    # the areas are the sub-grid rule on those slices, bit for bit
    area = area_degree(imm, d, grid)
    assert area.value.hex() == grid.integrate_values(density_sub, keep).hex()
    assert area.degree_seen == deg_max
    singular = grid.integrate_values(
        np.where(pointwise_sub < deg_max, sliced(density_max), 0.0), keep
    )
    assert area_singular_set(imm, grid).hex() == singular.hex()
    assert area_singular_set(imm, grid, d).hex() == grid.integrate_values(
        np.where(pointwise_sub < deg_max, density_sub, 0.0), keep
    ).hex()
    if case == "parabola":
        assert area_singular_set(imm, grid, 2) > 0.0  # the line x = 0.5 is masked

    rs = (1e-1, 1e-2, 1e-3)
    want = []
    for r in rs:
        total = np.zeros(len(sub))
        for col, e in zip(minors_sq_sub.T, (degrees - imm.m).tolist()):
            total += col * r ** (-e)
        want.append((r ** ((d - imm.m) / 2.0) * grid.integrate_values(np.sqrt(total), keep)).hex())
    assert [v.hex() for v in scaling_limit_probe(imm, d, grid, rs).values] == want

    report = degree_scan(imm, (9, 8))
    points, shape = uniform_grid(imm.domain, (9, 8))
    scan_degrees = max_degrees(imm.minors_grid(imm.ortho_tangent_grid(points)), degrees,
                               DEGREE_EPS)
    assert report.degrees.dtype == scan_degrees.dtype
    assert report.degrees.tobytes() == scan_degrees.tobytes()
    assert report.degree == int(scan_degrees.max())
    assert np.array_equal(report.mask, scan_degrees < report.degree)
    assert report.lsc_violations == _lsc_violations(scan_degrees.reshape(shape))
    assert report.points.tobytes() == points.tobytes()


def _catalog_cases():
    """Every catalog immersion under every metric it accepts, on a one-parameter input."""
    inputs = {
        "engel-graph": ({"theta": "0.53*x"}, ("default", "frame-orthonormal", "euclidean")),
        "rt-graph": ({"u": "0.37*x"}, ("default", "frame-orthonormal", "euclidean")),
        "h1xh1-surface": ({"u": "s^2+0.3*s"},
                          ("default", "frame-diagonal", "frame-orthonormal", "euclidean")),
        "isolated-plane": ({}, ("default", "frame-orthonormal", "euclidean")),
    }
    return [(name, metric, params) for name, (params, metrics) in inputs.items()
            for metric in metrics]


@pytest.mark.parametrize("name, metric, params", _catalog_cases())
def test_subgrid_rule_matches_the_full_grid_sum(name, metric, params):
    # oracle: the sub-grid values broadcast onto every node and summed with
    # the tensor weights; the sub-grid rule sums in another order
    imm = catalog.immersion(name, metric=metric, **params)
    grid = QuadratureGrid(imm.domain, (33, 32))
    sub, keep = imm.tangent_subgrid(grid.points, grid.orders)
    minors, degrees, volume = minors_and_volume(imm, sub)
    pointwise = max_degrees(minors, degrees, DEGREE_EPS)
    deg_max = int(pointwise.max())

    def full_grid_sum(values):
        return grid.integrate_values(_expand(values, grid.orders, keep))

    density = _theta(minors, degrees, deg_max, volume) * volume
    r = 1e-2
    dilated = np.sqrt(sum(col**2 * r ** (-e) for col, e in zip(minors.T, degrees - imm.m)))
    pairs = [
        (area_degree(imm, deg_max, grid).value, full_grid_sum(density)),
        (area_singular_set(imm, grid), full_grid_sum(np.where(pointwise < deg_max, density, 0.0))),
        (riemannian_area(imm, r, grid), full_grid_sum(dilated)),
    ]
    for got, want in pairs:
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    assert grid.sub_weights(keep).sum() == pytest.approx(grid.weights.sum(), rel=1e-14)


def _dilated_areas_per_r(imm, grid, rs):
    """Reference: the loop over r, each density summed over the minors from zeros."""
    points, keep = imm.tangent_subgrid(grid.points, grid.orders)
    with np.errstate(over="ignore"):
        minors_sq = imm.minors_grid(imm.ortho_tangent_grid(points)) ** 2
    excess = (imm.multi_index_degrees - imm.m).tolist()
    areas = []
    for r in rs:
        total = np.zeros(points.shape[0])
        with np.errstate(over="ignore"):
            for vals_sq, e in zip(minors_sq.T, excess):
                total += vals_sq * r ** (-e)
        areas.append(grid.integrate_values(np.sqrt(total), keep))
    return areas


@pytest.mark.parametrize("name, metric, params", _catalog_cases())
def test_dilated_area_sweep_equals_the_loop_over_r_bit_for_bit(name, metric, params):
    imm = catalog.immersion(name, metric=metric, **params)
    grid = QuadratureGrid(imm.domain, (17, 16))
    rs = [1.0, 0.3, *(10.0**-i for i in range(1, 6))]
    got = _dilated_areas(imm, grid, rs)
    assert [v.hex() for v in got] == [v.hex() for v in _dilated_areas_per_r(imm, grid, rs)]


def test_gr_scale_overflow_is_refused_before_the_tangent_pass(engel_graph, monkeypatch):
    # 1e-200 ** -3 leaves the floats: the r is named, and no tangent is evaluated
    def no_tangent(self, points):
        raise AssertionError("the tangent pass ran")

    monkeypatch.setattr(Immersion, "ortho_tangent_grid", no_tangent)
    grid = QuadratureGrid(engel_graph.domain, 8)
    message = re.escape("g_r (r = 1e-200) scale r^-3 overflows a float")
    with pytest.raises(DegenerateInputError, match=f"^{message}$"):
        scaling_limit_probe(engel_graph, 4, grid, [1e-1, 1e-200])
    with pytest.raises(DegenerateInputError, match=f"^{message}$"):
        riemannian_area(engel_graph, 1e-200, grid)


def test_subgrid_refusal_names_the_first_node_in_c_order():
    # the tangent map depends on y alone; its first non-finite node in C
    # order over the whole grid is still the one named
    imm = catalog.immersion("rt-graph", u="sqrt(y-0.5)")
    grid = QuadratureGrid(imm.domain, 8)
    assert len(imm.tangent_subgrid(grid.points, grid.orders)[0]) == 8
    node = re.escape("quadrature node (0.019855071751231912, 0.019855071751231912)")
    with pytest.raises(DegenerateInputError, match=node):
        area_degree(imm, 3, grid)
    with pytest.raises(DegenerateInputError, match=re.escape("not finite at (0.125, 0.125)")):
        degree_scan(imm, (4, 4))


# float.hex of the 128^2 and 256^2 areas, the 128^2 g_r probe values and a
# 128^2 first variation: the grid reductions the BLAS thread count could reach
_QUADRATURE_HEX = """
from gradedgeo import catalog
from gradedgeo.admissibility import VariationField
from gradedgeo.area import QuadratureGrid, area_degree, scaling_limit_probe
from gradedgeo.variation import first_variation

box = ((0.0, 1.0), (0.0, 1.0))
eg = catalog.immersion("engel-graph", theta="0.53*x")
out = [area_degree(eg, 4, QuadratureGrid(box, n)).value.hex() for n in (128, 256)]
probe = scaling_limit_probe(eg, 4, QuadratureGrid(box, 128), (1e-1, 1e-2, 1e-3, 1e-4, 1e-5))
out += [v.hex() for v in probe.values]
ruled = catalog.immersion("engel-graph", theta="0.53*x+0.41*y")
bump = '{"frame": "normal", "components": ["0", "(16*x*(1-x)*y*(1-y))^2*(1+0.23*x)"]}'
field = VariationField.from_json(bump, ruled.params)
out.append(first_variation(ruled, field, QuadratureGrid(box, 128), 4).hex())
print(" ".join(out))
"""


def test_quadrature_is_independent_of_blas_threads():
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(gradedgeo.__file__)))
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _QUADRATURE_HEX],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
        )
        for threads in ("1", "2")
    ]
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outs.append(out)
    assert len(outs[0].split()) == 8
    assert outs[0] == outs[1]
