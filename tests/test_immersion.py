"""Tangent m-vectors, degrees, flags, scans and induced metrics."""

import math

import numpy as np
import pytest

from gradedgeo import catalog
from gradedgeo.exprs import const, parse, var
from gradedgeo.immersion import Immersion, degree_scan, tangent_flag, uniform_grid
from gradedgeo.manifold import AdaptedFrame, Manifold, MetricField
from gradedgeo.multivec import DegenerateInputError, GrowthVector
from gradedgeo.verify import engel_closed_forms


@pytest.fixture(scope="module")
def engel_graph():
    return catalog.immersion("engel-graph", theta="0.2*x + 0.3*y")


@pytest.fixture(scope="module")
def plane():
    return catalog.immersion("isolated-plane")


@pytest.fixture(scope="module")
def h1h1_parabola():
    return catalog.immersion("h1xh1-surface", u="s^2")


def test_isolated_plane_tangent(plane):
    td = plane.tangent_data([0.3, -0.2])
    assert td.tangent_mvector.terms == {(1, 3): 1.0}
    assert plane.pointwise_degree([0.3, -0.2]) == 3


def test_engel_graph_ruling_kills_top_coefficient(engel_graph):
    for p in engel_graph.sample_points(10, seed=0):
        td = engel_graph.tangent_data(p)
        assert abs(td.raw_mvector.coefficient((3, 4))) <= 1e-12
        assert td.raw_mvector.coefficient((1, 4)) != 0.0
        assert engel_graph.pointwise_degree(p) == 4


def test_h1xh1_tangent_formula(h1h1_parabola):
    # raw wedge before normalization: X ^ Y' + u_s (Z ^ Y' + Z' ^ Y')
    p = [0.4, -0.3]
    td = h1h1_parabola.tangent_data(p)
    u_s = 2 * p[0]
    assert td.raw_mvector.coefficient((1, 4)) == pytest.approx(1.0, abs=1e-12)
    # (4,5) = Y' ^ Z and (4,6) = Y' ^ Z' carry a sign from index ordering
    assert td.raw_mvector.coefficient((4, 5)) == pytest.approx(-u_s, abs=1e-12)
    assert td.raw_mvector.coefficient((4, 6)) == pytest.approx(-u_s, abs=1e-12)
    assert h1h1_parabola.pointwise_degree(p) == 3
    assert h1h1_parabola.pointwise_degree([0.0, -0.3]) == 2


def test_degree_scan_singular_line(h1h1_parabola):
    scan = degree_scan(h1h1_parabola, (21, 7))
    assert scan.degree == 3
    grid = scan.degrees.reshape(scan.shape)
    # the middle column of cells straddles s = 0
    assert np.all(grid[10, :] == 2)
    assert np.all(np.delete(grid, 10, axis=0) == 3)
    assert scan.lsc_ok
    # mask matches the analytic zero set of u_s = 2 s
    mask = scan.mask.reshape(scan.shape)
    s_vals = scan.points[:, 0].reshape(scan.shape)
    assert np.array_equal(mask, np.abs(s_vals) < 1e-12)


def test_degree_scan_engel_no_singular(engel_graph):
    scan = degree_scan(engel_graph, (12, 12))
    assert scan.degree == 4
    assert scan.singular_count == 0
    assert scan.lsc_ok


def test_degree_scan_rejects_degenerate():
    mani = catalog.manifold("rototrans")
    constant = Immersion(
        mani,
        ("a", "b"),
        (const(0.5), const(0.5), const(0.5)),
        ((0.0, 1.0), (0.0, 1.0)),
    )
    with pytest.raises(DegenerateInputError):
        degree_scan(constant, (4, 4))


def test_tangent_flags(engel_graph, plane):
    dims, deg = tangent_flag(engel_graph, [0.4, 0.6])
    assert dims == (1, 1, 2)
    assert deg == 4
    dims, deg = tangent_flag(plane, [0.2, -0.5])
    assert dims == (1, 2, 2)
    assert deg == 3
    rt = catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")
    dims, deg = tangent_flag(rt, [0.5, 0.5])
    assert dims == (1, 2)
    assert deg == 3


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("engel-graph", {"theta": "0.2*x + 0.3*y"}),
        ("rt-graph", {"u": "0.3*x + 0.2*y^2"}),
        ("isolated-plane", {}),
        ("h1xh1-surface", {"u": "s^2 + 0.5*s"}),
    ],
)
def test_gromov_degree_equals_wedge_degree(name, kwargs):
    imm = catalog.immersion(name, **kwargs)
    for p in imm.sample_points(40, seed=2):
        _, gromov = tangent_flag(imm, p)
        assert gromov == imm.pointwise_degree(p)


def test_lower_semicontinuity_on_refining_grids(h1h1_parabola):
    for shape in ((11, 5), (21, 5), (41, 5)):
        scan = degree_scan(h1h1_parabola, shape)
        assert scan.lsc_ok


def _graph_hypersurface(name, seed):
    rng = np.random.default_rng(seed)
    mani = catalog.manifold(name)
    n = mani.n
    coeffs = rng.uniform(-0.4, 0.4, n - 1)
    params = tuple(f"p{i}" for i in range(n - 1))
    lin = " + ".join(f"{c}*{v}" for c, v in zip(coeffs, params))
    graph_fn = parse(f"0.1 + {lin}", params)
    comps = [var(p) for p in params] + [graph_fn]
    domain = tuple((0.0, 1.0) for _ in params)
    return Immersion(mani, params, tuple(comps), domain, base_coords=tuple(range(n - 1)))


@pytest.mark.parametrize("name", ["rototrans", "engel-structure", "engel-group"])
def test_hypersurface_degree_is_q_minus_one(name):
    mani = catalog.manifold(name)
    q = mani.growth.homogeneous_dimension
    for seed in range(3):
        imm = _graph_hypersurface(name, seed)
        degs = {imm.pointwise_degree(p) for p in imm.sample_points(15, seed=seed)}
        assert degs == {q - 1}


def test_induced_metric_identity_immersion():
    coords = ("x", "y", "z")
    zero, one = const(0.0), const(1.0)
    frame = AdaptedFrame(
        coords,
        [(one, zero, zero), (zero, one, zero), (zero, zero, one)],
        GrowthVector((3,)),
    )
    mani = Manifold(frame, MetricField.frame_orthonormal())
    imm = Immersion(
        mani,
        ("a", "b"),
        (var("a"), var("b"), const(0.0)),
        ((0.0, 1.0), (0.0, 1.0)),
    )
    mu = imm.induced_metric([0.3, 0.7])
    assert np.allclose(mu, np.eye(2), atol=1e-14)


def test_induced_metric_engel_volume(engel_graph):
    # closed-form check: sqrt(det mu) = alpha1 * alpha2 on ruled graphs
    for p in engel_graph.sample_points(5, seed=3):
        td = engel_graph.tangent_data(p)
        f = engel_closed_forms("0.2*x + 0.3*y", p)
        assert td.sqrt_det == pytest.approx(f["a1"] * f["a2"], rel=1e-12)
        assert np.allclose(td.induced, td.induced.T, atol=1e-15)


def test_unit_tangent_mvector_is_normalized(engel_graph):
    for p in engel_graph.sample_points(5, seed=4):
        td = engel_graph.tangent_data(p)
        assert td.tangent_mvector.norm() == pytest.approx(1.0, rel=1e-12)


def test_adapted_tangent_matches_ruled_graph_basis(engel_graph):
    p = [0.4, 0.6]
    amb, par = engel_graph.adapted_tangent_at(p)
    f = engel_closed_forms("0.2*x + 0.3*y", p)
    assert engel_graph.adapted_tangent_pivots(p) == (1, 4)
    # first basis vector: X1 + X1(kappa) X2; second: X4 - X4(theta) X3 + X4(kappa) X2
    assert amb[:, 0] == pytest.approx([1.0, f["x1k"], 0.0, 0.0], abs=1e-12)
    assert amb[:, 1] == pytest.approx([0.0, f["x4k"], -f["x4t"], 1.0], abs=1e-12)


def test_uniform_grid_shape():
    pts, shape = uniform_grid(((0.0, 1.0), (-1.0, 1.0)), (4, 8))
    assert pts.shape == (32, 2)
    assert shape == (4, 8)
    assert pts[:, 0].min() > 0.0 and pts[:, 0].max() < 1.0
