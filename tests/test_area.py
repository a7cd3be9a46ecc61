"""Degree-d densities, areas, dilated-metric areas and the scaling probe."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gradedgeo import catalog
from gradedgeo.area import (
    QuadratureGrid,
    area_degree,
    area_singular_set,
    density_theta,
    riemannian_area,
    scaling_limit_probe,
)
from gradedgeo.exprs import const, parse, var
from gradedgeo.immersion import Immersion
from gradedgeo.manifold import AdaptedFrame, Manifold, MetricField
from gradedgeo.multivec import DegenerateInputError, GrowthVector
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


def test_density_engel_closed_form(engel_graph):
    # density equals 1/alpha2 on ruled graphs
    for p in engel_graph.sample_points(10, seed=0):
        f = engel_closed_forms("0.2*x + 0.3*y", p)
        assert density_theta(engel_graph, p, 4) == pytest.approx(
            1 / f["a2"], rel=1e-12
        )


def test_density_range_and_singular_zero():
    h = catalog.immersion("h1xh1-surface", u="s^2")
    assert density_theta(h, [0.0, 0.2], 3) == pytest.approx(0.0, abs=1e-15)
    for p in h.sample_points(10, seed=1):
        val = density_theta(h, p, 3)
        assert 0.0 <= val <= 1.0 + 1e-12


def test_density_contact_matches_unit_normal_projection():
    rt = catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")
    for p in rt.sample_points(10, seed=2):
        td = rt.tangent_data(p)
        # Theta * sqrt(det mu) equals sqrt(1 + X(u)^2), the horizontal-normal density
        u = rt.components[2]
        env = rt.param_env(p)
        t = u.eval(env)
        ux, uy = u.diff("x").eval(env), u.diff("y").eval(env)
        xu = math.cos(t) * ux + math.sin(t) * uy
        theta = density_theta(rt, p, 3)
        assert theta * td.sqrt_det == pytest.approx(math.sqrt(1 + xu * xu), rel=1e-12)


def test_area_rt_graph_vs_1d_oracle(grid64):
    rt = catalog.immersion("rt-graph", u="x")
    a3 = area_degree(rt, 3, grid64)
    oracle = quad(lambda x: math.sqrt(1 + math.cos(x) ** 2), 0.0, 1.0, epsabs=1e-13)[0]
    assert a3.value == pytest.approx(oracle, rel=1e-8)
    assert not a3.divergent_by_theory


def test_area_engel_graph_both_metrics(grid64):
    eg = catalog.immersion("engel-graph", theta="x")
    a4 = area_degree(eg, 4, grid64)
    oracle = quad(
        lambda x: math.sqrt(1 + (math.sin(x) * math.cos(x)) ** 2), 0.0, 1.0, epsabs=1e-13
    )[0]
    assert a4.value == pytest.approx(oracle, rel=1e-8)
    eg0 = catalog.immersion("engel-graph", theta="x", metric="euclidean")
    a40 = area_degree(eg0, 4, grid64)
    oracle0 = quad(
        lambda x: math.sqrt(1 + math.cos(x) ** 2 + (math.sin(x) * math.cos(x)) ** 2),
        0.0,
        1.0,
        epsabs=1e-13,
    )[0]
    assert a40.value == pytest.approx(oracle0, rel=1e-8)


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


def test_riemannian_area_r1_is_plain_area(engel_graph, grid64):
    plain = riemannian_area(engel_graph, 1.0, grid64)
    td_area = grid64.integrate_values(
        np.array([engel_graph.tangent_data(p).sqrt_det for p in grid64.points])
    )
    assert plain == pytest.approx(td_area, rel=1e-12)
    with pytest.raises(ValueError):
        riemannian_area(engel_graph, -1.0, grid64)


def test_riemannian_area_near_limit(engel_graph, grid64):
    a4 = area_degree(engel_graph, 4, grid64).value
    r = 1e-2
    scaled = r ** ((4 - 2) / 2.0) * riemannian_area(engel_graph, r, grid64)
    assert abs(scaled - a4) <= 0.02 * a4


def test_scaling_probe_convergence(engel_graph, grid64):
    rs = [10.0**-i for i in range(1, 6)]
    a4 = area_degree(engel_graph, 4, grid64).value
    probe = scaling_limit_probe(engel_graph, 4, grid64, rs)
    assert probe.converged and not probe.divergent
    assert abs(probe.limit - a4) <= 1e-3 * a4
    assert probe.rate == pytest.approx(1.0, abs=0.2)  # first correction is O(r)


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


def test_scaling_probe_divergence_below_degree(engel_graph, grid64):
    rs = [10.0**-i for i in range(1, 6)]
    probe = scaling_limit_probe(engel_graph, 3, grid64, rs)
    assert probe.divergent


def test_scaling_probe_zero_above_degree(engel_graph, grid64):
    rs = [10.0**-i for i in range(1, 6)]
    probe = scaling_limit_probe(engel_graph, 5, grid64, rs)
    assert probe.zero_limit
    assert abs(probe.limit) <= 1e-6
    with pytest.raises(ValueError):
        scaling_limit_probe(engel_graph, 4, grid64, [0.1, 0.2])


def test_area_singular_set_vanishes():
    h = catalog.immersion("h1xh1-surface", u="s^2")
    grid = QuadratureGrid(h.domain, 64)
    assert area_singular_set(h, grid) <= 1e-10
    eg = catalog.immersion("engel-graph", theta="0.2*x + 0.3*y")
    assert area_singular_set(eg, QuadratureGrid(eg.domain, 32)) == 0.0


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
    oracle = (
        quad(lambda s: abs(2 * s + 0.3), -1.0, -0.15, epsabs=1e-13)[0]
        + quad(lambda s: abs(2 * s + 0.3), -0.15, 1.0, epsabs=1e-13)[0]
    ) * 2.0 * math.sqrt(lam + mu)
    got = area_degree(imm, 3, grid).value
    # the kink at u_s = 0 limits plain Gauss quadrature accuracy
    assert got == pytest.approx(oracle, rel=1e-3)
