"""Tangent m-vectors, degrees, flags, scans and induced metrics."""

import math

import numpy as np
import pytest

from gradedgeo import catalog
from gradedgeo.admissibility import frames_for
from gradedgeo.area import QuadratureGrid, _minors_and_volume, area_degree, area_singular_set
from gradedgeo.exprs import const, evaluate_many, parse, var
from gradedgeo.immersion import (
    Immersion,
    _lsc_violations,
    _rank_deficient,
    degree_scan,
    uniform_grid,
)
from gradedgeo.manifold import AdaptedFrame, Manifold, MetricField
from gradedgeo.multivec import (
    RANK_TOL,
    DegenerateInputError,
    GrowthVector,
    all_multi_indices,
    d_max,
    index_degrees,
    minors,
    minors_norm,
)
from gradedgeo.verify import engel_closed_forms


CATALOG_IMMERSIONS = ["engel-graph", "h1xh1-surface", "isolated-plane", "rt-graph"]


def tangent_at(imm, p):
    """tau (n, m) and its minors row at one point: the grid path on a (1, m) batch."""
    tau = imm.ortho_tangent_grid(np.asarray(p, dtype=float)[None])
    return tau[0], imm.minors_grid(tau)[0]


def coefficient(imm, p, J):
    """Coefficient of the multi-index J in the tangent minors row at p."""
    return tangent_at(imm, p)[1][list(all_multi_indices(imm.n, len(J))).index(J)]


def gromov_degree(dims):
    """The homogeneous (Gromov) degree sum_j j (dims_j - dims_{j-1}) of a tangent flag."""
    return sum(j * (b - a) for j, (a, b) in enumerate(zip((0, *dims), dims), start=1))


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
    _, row = tangent_at(plane, [0.3, -0.2])
    unit = [1.0 if J == (1, 3) else 0.0 for J in all_multi_indices(4, 2)]
    assert (row / minors_norm(row[None])[0]).tolist() == unit
    assert plane.degrees(np.array([[0.3, -0.2]])).tolist() == [3]


def test_engel_graph_ruling_kills_top_coefficient(engel_graph):
    points = engel_graph.sample_points(10, seed=0)
    for p in points:
        assert abs(coefficient(engel_graph, p, (3, 4))) <= 1e-12
        assert coefficient(engel_graph, p, (1, 4)) != 0.0
    assert engel_graph.degrees(points).tolist() == [4] * 10


def test_h1xh1_tangent_formula(h1h1_parabola):
    # raw wedge before normalization: X ^ Y' + u_s (Z ^ Y' + Z' ^ Y')
    p = [0.4, -0.3]
    u_s = 2 * p[0]
    assert coefficient(h1h1_parabola, p, (1, 4)) == pytest.approx(1.0, abs=1e-12)
    # (4,5) = Y' ^ Z and (4,6) = Y' ^ Z' carry a sign from index ordering
    assert coefficient(h1h1_parabola, p, (4, 5)) == pytest.approx(-u_s, abs=1e-12)
    assert coefficient(h1h1_parabola, p, (4, 6)) == pytest.approx(-u_s, abs=1e-12)
    assert h1h1_parabola.degrees(np.array([p, [0.0, -0.3]])).tolist() == [3, 2]


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


def test_immersion_needs_one_base_coordinate_per_parameter():
    mani = catalog.manifold("rototrans")
    comps = (var("a"), var("b"), const(0.0))
    with pytest.raises(ValueError, match="one base coordinate per parameter"):
        Immersion(mani, ("a", "b"), comps, ((0.0, 1.0), (0.0, 1.0)), base_coords=(0,))


def test_degenerate_point_errors_print_plain_floats():
    mani = catalog.manifold("engel-group")
    cusp = Immersion(
        mani,
        ("x", "y"),
        tuple(parse(src, ("x", "y")) for src in ("x^3", "y", "x^3", "0")),
        ((-1.0, 1.0), (0.0, 1.0)),
    )
    with pytest.raises(DegenerateInputError, match=r"grid point \(0\.0, 0\.125\)$"):
        degree_scan(cusp, (15, 4))
    with pytest.raises(DegenerateInputError, match=r"rank deficient at \(0\.0, 0\.5\)$"):
        cusp.degrees(np.array([[0.5, 0.5], [0.0, 0.5]]))
    # a tangent whose layer-1 rows cannot resolve T cap H^1: the point names
    # the pivot refusal, in plain floats
    tau = np.array([[0.0, 0.0], [0.0, 0.0], [1e-12, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateInputError, match=r"in layer 1 at \(0\.5, 0\.5\)$"):
        cusp._adapted_pivots(tau, np.array([0.5, 0.5]))


def test_tangent_flags(engel_graph, plane):
    rt = catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")
    for imm, p, dims in [
        (engel_graph, [0.4, 0.6], (1, 1, 2)),
        (plane, [0.2, -0.5], (1, 2, 2)),
        (rt, [0.5, 0.5], (1, 2)),
    ]:
        assert imm.flag_dims(np.array([p])) == [dims]
    assert [gromov_degree(d) for d in [(1, 1, 2), (1, 2, 2), (1, 2)]] == [4, 3, 3]


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
    points = imm.sample_points(40, seed=2)
    gromov = [gromov_degree(dims) for dims in imm.flag_dims(points)]
    assert gromov == imm.degrees(points).tolist()


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
    q = d_max(mani.n, mani.weights)  # the homogeneous dimension
    for seed in range(3):
        imm = _graph_hypersurface(name, seed)
        degs = set(imm.degrees(imm.sample_points(15, seed=seed)).tolist())
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
    mu = imm.values_at([e for row in frames_for(imm).mu_param for e in row], [[0.3, 0.7]])
    assert np.allclose(mu.reshape(2, 2), np.eye(2), atol=1e-14)


def test_induced_metric_engel_volume(engel_graph):
    # closed-form check: sqrt(det mu) = alpha1 * alpha2 on ruled graphs
    mu_param = frames_for(engel_graph).mu_param
    points = engel_graph.sample_points(5, seed=3)
    f = engel_closed_forms(engel_graph, points)
    for k, p in enumerate(points):
        volume = minors_norm(tangent_at(engel_graph, p)[1][None])[0]
        assert volume == pytest.approx(f["a1"][k] * f["a2"][k], rel=1e-12)
        mu = engel_graph.values_at([e for row in mu_param for e in row], p[None]).reshape(2, 2)
        assert np.allclose(mu, mu.T, atol=1e-15)


@pytest.mark.parametrize("name", CATALOG_IMMERSIONS)
def test_minors_row_norm_is_sqrt_det(name):
    # Cauchy-Binet: the sum of the squared m x m minors of tau is det(tau^T tau),
    # so minors / sqrt_det is the unit tangent m-vector; the oracle takes the
    # determinant of the Gram matrix itself
    imm = catalog.immersion(name)
    for p in imm.sample_points(5, seed=4):
        tau, row = tangent_at(imm, p)
        oracle = math.sqrt(np.linalg.det(tau.T @ tau))
        assert minors_norm(row[None])[0] == pytest.approx(oracle, rel=1e-12)
        assert np.linalg.norm(row) == pytest.approx(oracle, rel=1e-12)
    points = QuadratureGrid(imm.domain, 8).points
    tau = imm.ortho_tangent_grid(points)
    oracle = np.sqrt(np.linalg.det(np.einsum("pim,pil->pml", tau, tau)))
    minors, _, volume = _minors_and_volume(imm, points)
    assert volume == pytest.approx(oracle, rel=1e-12)
    assert np.linalg.norm(minors, axis=1) == pytest.approx(oracle, rel=1e-12)


def _svd_refuses(tau):
    """The singular-value rank rule: refused unless sigma_min > RANK_TOL * sigma_max."""
    svals = np.linalg.svd(tau, compute_uv=False)
    return ~(svals[:, -1] > RANK_TOL * np.maximum(svals[:, 0], 1e-300))


def test_closed_form_rank_rule_agrees_with_svd():
    rng = np.random.default_rng(19)
    near = RANK_TOL * np.array([1 - 1e-5, 1 - 1e-7, 1.0, 1 + 1e-7, 1 + 1e-5])
    ratios = np.concatenate([np.logspace(0, -14, 57), near])
    for n in (2, 3, 4, 6):
        taus, rows = [], []
        for ratio in ratios:
            for scale in (1e-3, 1.0, 1e3):
                u, _ = np.linalg.qr(rng.normal(size=(n, 2)))
                angle = rng.uniform(0, 2 * np.pi)
                v = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
                taus.append(u @ np.diag([scale, scale * ratio]) @ v.T)
                rows.append(ratio)
        tau = np.array(taus)
        got = _rank_deficient(tau, minors(tau))
        want = _svd_refuses(tau)
        rows = np.array(rows)
        differ = rows[got != want]
        assert np.all(np.abs(differ / RANK_TOL - 1) <= 1e-6), differ
        assert not got[rows > 1e-7].any() and got[rows < 1e-9].all()
        # exact zeros: the zero matrix, a zero column, a column twice the other
        col = rng.normal(size=n)
        zero = np.zeros((n, 2))
        exact = np.array([zero, np.stack([col, 0 * col], 1), np.stack([col, 2 * col], 1)])
        assert _rank_deficient(exact, minors(exact)).all() and _svd_refuses(exact).all()
        # a NaN entry counts as refused
        nan = np.array([np.eye(n, 2)] * 3)
        nan[0, 0, 0] = nan[1, n - 1, 1] = np.nan
        nan[2] = np.nan
        assert _rank_deficient(nan, minors(nan)).all()


def test_grid_reductions_take_no_det_or_svd(monkeypatch):
    # for m = 2 the volume and the rank refusal come from the minors row
    def refused(*args, **kwargs):
        raise AssertionError("the m = 2 grid path took a determinant or an SVD")

    imm = catalog.immersion("engel-graph")
    monkeypatch.setattr(np.linalg, "det", refused)
    monkeypatch.setattr(np.linalg, "svd", refused)
    area_degree(imm, 4, QuadratureGrid(imm.domain, 8))
    area_singular_set(imm, QuadratureGrid(imm.domain, 8))
    assert degree_scan(imm, (8, 8)).degree == 4


def test_adapted_tangent_matches_ruled_graph_basis(engel_graph):
    p = [0.4, 0.6]
    adapted_amb = frames_for(engel_graph).adapted_amb
    amb = engel_graph.values_at([e for row in adapted_amb for e in row], [p]).reshape(4, 2)
    f = {key: value[0] for key, value in engel_closed_forms(engel_graph, [p]).items()}
    assert engel_graph.adapted_pivots(np.array([p])) == [(1, 4)]
    # first basis vector: X1 + X1(kappa) X2; second: X4 - X4(theta) X3 + X4(kappa) X2
    assert amb[:, 0] == pytest.approx([1.0, f["x1k"], 0.0, 0.0], abs=1e-12)
    assert amb[:, 1] == pytest.approx([0.0, f["x4k"], -f["x4t"], 1.0], abs=1e-12)


def test_uniform_grid_shape():
    pts, shape = uniform_grid(((0.0, 1.0), (-1.0, 1.0)), (4, 8))
    assert pts.shape == (32, 2)
    assert shape == (4, 8)
    assert pts[:, 0].min() > 0.0 and pts[:, 0].max() < 1.0


def _dense_columns(exprs, env, N):
    out = np.empty((N, len(exprs)))
    for k, v in enumerate(evaluate_many(exprs, env)):
        out[:, k] = v
    return out


def _dense_tangent_grids(imm, pts):
    """Reference: every coframe entry evaluated, contracted by a dense einsum."""
    N, n, m = pts.shape[0], imm.n, imm.m
    env = imm.grid_env(pts)
    phi = _dense_columns(imm.components, env, N)
    ambient = {name: phi[:, i] for i, name in enumerate(imm.manifold.coords)}
    cof_flat = [e for row in imm.manifold.ortho_coframe_exprs for e in row]
    cof = _dense_columns(cof_flat, ambient, N).reshape(N, n, n)
    jac_flat = [e for row in imm.jacobian_exprs for e in row]
    jac = _dense_columns(jac_flat, env, N).reshape(N, n, m)
    return jac, np.einsum("pij,pjm->pim", cof, jac)


@pytest.mark.parametrize("metric", [None, "euclidean"])
@pytest.mark.parametrize("name", CATALOG_IMMERSIONS)
def test_tangent_grids_bit_identical_to_dense_einsum(name, metric):
    imm = catalog.immersion(name, **({"metric": metric} if metric else {}))
    for pts in (imm.midpoint()[None, :], QuadratureGrid(imm.domain, 33).points):
        got = imm._tangent_grids(pts)
        want = _dense_tangent_grids(imm, pts)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.ascontiguousarray(g).tobytes() == w.tobytes()


def _lsc_violations_by_points(grid):
    """Reference: the per-point neighbour loop."""
    violations = []
    for idx in np.ndindex(*grid.shape):
        best = -1
        for axis in range(grid.ndim):
            for delta in (-1, 1):
                nb = list(idx)
                nb[axis] += delta
                if 0 <= nb[axis] < grid.shape[axis]:
                    best = max(best, int(grid[tuple(nb)]))
        if best >= 0 and grid[idx] > best:
            violations.append(tuple(idx))
    return violations


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (7, 9), (5, 4, 3)])
def test_lsc_violations_match_point_loop(shape):
    rng = np.random.default_rng(7)
    for _ in range(20):
        grid = rng.integers(2, 6, size=shape)
        got = _lsc_violations(grid)
        want = _lsc_violations_by_points(grid)
        assert got == want  # order included
        assert all(type(i) is int for idx in got for i in idx)


def test_adapted_tangent_pivots_evaluate_tangent_grids_once(engel_graph, monkeypatch):
    calls = []
    original = Immersion._tangent_grids

    def counted(self, points):
        calls.append(len(points))
        return original(self, points)

    monkeypatch.setattr(Immersion, "_tangent_grids", counted)
    points = engel_graph.sample_points(5, seed=1)
    assert engel_graph.adapted_pivots(points) == [(1, 4)] * 5
    assert calls == [5]  # all the points in one evaluation


def test_tangent_grids_evaluate_once(engel_graph, monkeypatch):
    # the Jacobian and tau come from one tape pass, not a second coframe pass
    import gradedgeo.immersion as immersion_module

    calls = []
    original = immersion_module.evaluate_many

    def counted(roots, env):
        calls.append(len(roots))
        return original(roots, env)

    monkeypatch.setattr(immersion_module, "evaluate_many", counted)
    engel_graph._tangent_grids(QuadratureGrid(engel_graph.domain, 8).points)
    assert calls == [2 * 4 * 2 + 1]


@pytest.mark.parametrize("metric", [None, "euclidean"])
@pytest.mark.parametrize("name", CATALOG_IMMERSIONS)
def test_multi_index_degrees_is_the_read_only_table(name, metric):
    imm = catalog.immersion(name, **({"metric": metric} if metric else {}))
    degrees = imm.multi_index_degrees
    want = index_degrees(imm.n, imm.m, imm.manifold.weights)
    assert degrees.dtype == want.dtype and np.array_equal(degrees, want)
    assert imm.multi_index_degrees is degrees  # built once per immersion
    assert not degrees.flags.writeable
    with pytest.raises(ValueError):
        degrees[0] = 99
    assert np.array_equal(imm.with_metric(MetricField.euclidean(imm.n)).multi_index_degrees, want)
