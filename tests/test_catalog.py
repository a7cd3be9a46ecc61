"""Catalog entries and the structure-specific operations."""

import math

import numpy as np
import pytest

from gradedgeo import catalog, verify
from gradedgeo.admissibility import frames_for
from gradedgeo.area import QuadratureGrid, area_degree
from gradedgeo.exprs import EvaluationError, const, parse
from gradedgeo.immersion import degree_scan, uniform_grid
from gradedgeo.manifold import verify_filtration


def test_builtin_listing():
    for name in ("h1xh1", "rototrans", "engel-structure", "engel-group"):
        assert catalog.manifold(name).name == name
    for name in ("h1xh1-surface", "rt-graph", "engel-graph", "isolated-plane"):
        assert catalog.immersion(name).name == name
    assert degree_scan(catalog.immersion("engel-graph"), (8, 8)).degree == 4
    for build in (catalog.manifold, catalog.immersion):
        with pytest.raises(KeyError):
            build("nope")


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

    regs = is_strongly_regular(eg, eg.sample_points(10, seed=1), 4)
    assert len(regs) == 10 and all(reg.strongly_regular for reg in regs)


def test_isolated_plane_never_regular():
    plane = catalog.immersion("isolated-plane")
    from gradedgeo.admissibility import is_strongly_regular

    regs = is_strongly_regular(plane, plane.sample_points(10, seed=2), 3)
    assert len(regs) == 10 and not any(reg.strongly_regular for reg in regs)


def test_h1xh1_surface_sign_rule():
    h = catalog.immersion("h1xh1-surface", u="s^3 - 0.25*s")
    # u_s = 3 s^2 - 0.25 vanishes at s = +-1/sqrt(12)
    zero = 1 / math.sqrt(12.0)
    points = [[s, 0.3] for s in (0.5, 0.0, zero, -zero, -0.6)]
    assert h.degrees(np.array(points)).tolist() == [3, 3, 2, 2, 3]


def test_h1xh1_surface_requires_profile_of_s_only():
    with pytest.raises(ValueError, match="u = u"):
        catalog.immersion("h1xh1-surface", u="s + t")


def test_engel_graph_kappa_derivation():
    theta = parse("0.2*x + 0.3*y", ["x", "y"])
    kappa = catalog.engel_graph_kappa(theta)
    env = {"x": 0.4, "y": 0.6}
    t = theta.eval(env)
    assert kappa.eval(env) == pytest.approx(math.cos(t) * 0.2 + math.sin(t) * 0.3)


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
    p = [[0.4, 0.6]]
    hvals = [float(eg.values_at(list(tri), p).sum()) for tri in triples]
    rv = float(eg.values_at([res.vert[0]], p)[0, 0])
    # reconstruct the residual as a linear combination of H-components and
    # their tangent derivatives: with H == 0 everywhere it must vanish
    # (here: scale-check that rv is comparable to the H magnitude)
    assert abs(rv) <= 50 * max(abs(h) for h in hvals)


def test_isolated_plane_probe_cases():
    # any nonzero compactly supported pair violates some constraint; the zero pair none
    bump = parse("(v^2-1)^2*(w^2-1)^2", ["v", "w"])
    zero = parse("0", ["v", "w"])
    cases = [
        (bump, zero),
        (zero, bump),
        (bump, -1.0 * parse("w*((v^2-1)^2*(w^2-1)^2)", ["v", "w"])),
        (bump * parse("sin(3*v)", ["v", "w"]), bump),
        (bump * parse("v", ["v", "w"]), bump * parse("w", ["v", "w"])),
    ]
    result = verify.isolation(cases, 64)
    assert result.passed, result.detail


def test_isolated_plane_probe_partial_satisfaction():
    bump = parse("(v^2-1)^2*(w^2-1)^2", ["v", "w"])
    # psi_w = -w phi_w satisfied exactly; the remaining constraint must fail
    phi = bump
    psi = parse("-(w^2/2 - 1/2)*(4*w*(w^2-1))*(v^2-1)^2", ["v", "w"])
    result = verify.isolation([(phi, psi)], 64)
    assert result.passed, result.detail


def test_isolated_plane_probe_refuses_a_value_that_is_not_finite():
    # sqrt(v-2) is NaN on all of [-1, 1]^2, which a max over the residuals would drop
    pts, _ = uniform_grid(((-1.0, 1.0), (-1.0, 1.0)), (8, 8))
    with pytest.raises(EvaluationError) as exc:
        catalog.isolated_plane_probe(parse("sqrt(v-2)", ["v", "w"]), const(0.0), pts)
    assert str(exc.value) == "domain error in sqrt(-2.875) at grid point (-0.875, -0.875)"


def test_contact_area_and_curvature_consistency():
    surfaces = [catalog.immersion("rt-graph", u=u) for u in ("x", "0.3*x + 0.2*y^2")]
    result = verify.contact(surfaces, 10, 0, 48)
    assert result.passed, result.detail


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
