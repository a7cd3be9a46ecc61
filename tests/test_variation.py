"""First variation, mean curvature and stationarity residuals."""

import math

import numpy as np
import pytest

from gradedgeo import catalog
from gradedgeo.admissibility import VariationField, frames_for
from gradedgeo.area import QuadratureGrid, area_degree
from gradedgeo.exprs import call, const, evaluate_many, parse, var
from gradedgeo.immersion import Immersion
from gradedgeo.symmat import edot, eval_matrix
from gradedgeo.variation import (
    critical_residual_exprs,
    critical_residuals,
    div_degree_d,
    duality_integral,
    f_linear,
    first_variation,
    mean_curvature,
    mean_curvature_bracket_at,
    mean_curvature_field_exprs,
)

THETA = "0.2*x + 0.3*y"


@pytest.fixture(scope="module")
def engel_graph():
    return catalog.immersion("engel-graph", theta=THETA)


@pytest.fixture(scope="module")
def grid48(engel_graph):
    return QuadratureGrid(engel_graph.domain, 48)


def bump_expr(power=2):
    return parse(f"(16*x*(1-x)*y*(1-y))^{power}", ["x", "y"])


def family_field(imm, psi):
    theta = imm.components[2]
    cos_t, sin_t = call("cos", theta), call("sin", theta)
    x1bar_psi = cos_t * psi.diff("x") + sin_t * psi.diff("y")
    x4bar_theta = -sin_t * theta.diff("x") + cos_t * theta.diff("y")
    return VariationField(
        "adapted", (const(0.0), x1bar_psi + x4bar_theta * psi, -psi, const(0.0))
    )


def admissible_normal_field(imm, psi):
    """Solve the one-row normal system for the control component."""
    fr = frames_for(imm)
    sym = fr.normal_system(4)
    deriv = const(0.0)
    for j in range(2):
        pc = [sym.tangent_param[a][j] for a in range(2)]
        deriv = deriv + sym.C[j][0][0] * fr.tangent_derivative(pc, psi)
    psi_ctrl = -(deriv + sym.B[0][0] * psi) / sym.A[0][0]
    return VariationField("normal", (psi_ctrl, psi))


def test_div_degree_d_zero_field(engel_graph):
    V = VariationField("adapted", (const(0.0),) * 4)
    assert div_degree_d(engel_graph, V, [0.4, 0.6], 4) == 0.0


def test_div_degree_d_flat_constant_field():
    from gradedgeo.manifold import AdaptedFrame, Manifold, MetricField
    from gradedgeo.multivec import GrowthVector

    coords = ("x", "y", "z")
    zero, one = const(0.0), const(1.0)
    frame = AdaptedFrame(
        coords,
        [(one, zero, zero), (zero, one, zero), (zero, zero, one)],
        GrowthVector((3,)),
    )
    mani = Manifold(frame, MetricField.frame_orthonormal())
    imm = Immersion(
        mani, ("a", "b"), (var("a"), var("b"), const(0.0)), ((0.0, 1.0), (0.0, 1.0))
    )
    V = VariationField("adapted", (const(0.3), const(-0.2), const(0.9)))
    assert div_degree_d(imm, V, [0.5, 0.5], 2) == pytest.approx(0.0, abs=1e-15)


def test_div_degree_d_against_term_oracle(engel_graph):
    # V = X2: compare against a hand-assembled Leibniz sum
    fr = frames_for(engel_graph)
    V = VariationField("adapted", (const(0.0), const(1.0), const(0.0), const(0.0)))
    p = [0.4, 0.6]
    got = div_degree_d(engel_graph, V, p, 4)
    env = engel_graph.param_env(p)
    coeffs = fr.tangent_coeffs(4)
    coord = fr.coord_comps([const(0.0), const(1.0), const(0.0), const(0.0)])
    total = 0.0
    E_cols = [[fr.E_amb[i][a] for i in range(4)] for a in range(2)]
    for i in range(2):
        pc = [fr.E_param[a][i] for a in range(2)]
        dV = fr.to_ortho_comps(fr.nabla_field_along(pc, coord))
        for J, cJ in coeffs.items():
            mat = np.zeros((2, 2))
            for a in range(2):
                for b, jj in enumerate(J):
                    src = dV if a == i else None
                    mat[a, b] = float(
                        (dV[jj - 1] if a == i else E_cols[a][jj - 1]).eval(env)
                    )
            total += float(cJ.eval(env)) * np.linalg.det(mat)
    assert got == pytest.approx(total, rel=1e-10)


def test_f_linear_flat_frame_vanishes():
    from gradedgeo.manifold import AdaptedFrame, Manifold, MetricField
    from gradedgeo.multivec import GrowthVector

    coords = ("x", "y", "z")
    zero, one = const(0.0), const(1.0)
    frame = AdaptedFrame(
        coords,
        [(one, zero, zero), (zero, one, zero), (zero, zero, one)],
        GrowthVector((3,)),
    )
    mani = Manifold(frame, MetricField.frame_orthonormal())
    imm = Immersion(
        mani, ("a", "b"), (var("a"), var("b"), const(0.0)), ((0.0, 1.0), (0.0, 1.0))
    )
    assert f_linear(imm, [0.3, 0.7, -0.1], [0.5, 0.5], 2) == pytest.approx(0.0, abs=1e-15)


def test_f_linear_is_linear(engel_graph):
    p = [0.4, 0.6]
    rng = np.random.default_rng(0)
    for _ in range(5):
        v1 = rng.uniform(-1, 1, 4)
        v2 = rng.uniform(-1, 1, 4)
        a, b = rng.uniform(-2, 2, 2)
        lhs = f_linear(engel_graph, a * v1 + b * v2, p, 4)
        rhs = a * f_linear(engel_graph, v1, p, 4) + b * f_linear(engel_graph, v2, p, 4)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_f_linear_matches_covariant_mvector_oracle(engel_graph):
    # f(X3) assembled from the manifold-level Leibniz derivative
    p = [0.4, 0.6]
    mani = engel_graph.manifold
    point = engel_graph.phi_at(p)
    fr = frames_for(engel_graph)
    env = engel_graph.param_env(p)
    tau = eval_matrix(fr.E_amb, env)
    coeffs = {J: float(c.eval(env)) for J, c in fr.tangent_coeffs(4).items()}
    x3 = mani.ortho_matrix_at(point)[:, 2]
    total = 0.0
    for J, cJ in coeffs.items():
        dxj = mani.cov_derivative_simple_mvector(x3, J, point)
        # <E-wedge, dxj> with E-wedge expanded over all indices
        from gradedgeo.multivec import wedge

        total += cJ * wedge(tau).dot(dxj)
    got = f_linear(engel_graph, [0.0, 0.0, 1.0, 0.0], p, 4)
    assert got == pytest.approx(total, rel=1e-9)


def test_first_variation_zero_field(engel_graph, grid48):
    V = VariationField("adapted", (const(0.0),) * 4)
    assert first_variation(engel_graph, V, grid48, 4) == 0.0


def test_first_variation_tangent_field(engel_graph, grid48):
    fr = frames_for(engel_graph)
    bump = bump_expr()
    comps = tuple(bump * fr.E_amb[i][0] for i in range(4))
    fv = first_variation(engel_graph, VariationField("adapted", comps), grid48, 4)
    assert abs(fv) <= 1e-6


def test_first_variation_requires_compact_support(engel_graph, grid48):
    V = VariationField("adapted", (const(0.0), const(1.0), const(0.0), const(0.0)))
    with pytest.raises(ValueError, match="vanish"):
        first_variation(engel_graph, V, grid48, 4)


def test_first_variation_matches_family_finite_difference(engel_graph, grid48):
    theta0 = engel_graph.components[2]
    h = 1e-4
    rng = np.random.default_rng(1)
    for k in range(3):
        coeff = rng.uniform(0.5, 1.5)
        freq = rng.integers(1, 4)
        psi = bump_expr() * parse(f"{coeff}*sin({freq}*x + y)", ["x", "y"])
        fv = first_variation(engel_graph, family_field(engel_graph, psi), grid48, 4)
        ap = area_degree(catalog.immersion("engel-graph", theta=theta0 + h * psi), 4, grid48).value
        am = area_degree(catalog.immersion("engel-graph", theta=theta0 + (-h) * psi), 4, grid48).value
        fd = (ap - am) / (2 * h)
        assert fv == pytest.approx(fd, rel=1e-4)


def test_mean_curvature_parts_sum(engel_graph):
    for p in engel_graph.sample_points(5, seed=2):
        mc = mean_curvature(engel_graph, p, 4)
        assert np.allclose(mc.parts.sum(axis=1), mc.components, atol=1e-8)


def test_mean_curvature_bracket_form_agrees(engel_graph):
    for p in engel_graph.sample_points(10, seed=3):
        mc = mean_curvature(engel_graph, p, 4)
        br = mean_curvature_bracket_at(engel_graph, p, 4)
        assert np.allclose(br, mc.components, atol=1e-6)


def test_mean_curvature_duality_random_normal_fields(engel_graph, grid48):
    rng = np.random.default_rng(4)
    bump = bump_expr()
    for _ in range(10):
        c1, c2 = rng.uniform(-1, 1, 2)
        f1, f2 = rng.integers(1, 4, 2)
        psi_ctrl = bump * parse(f"{c1}*sin({f1}*x)*cos(y)", ["x", "y"])
        psi_free = bump * parse(f"{c2}*cos({f2}*y + x)", ["x", "y"])
        V = VariationField("normal", (psi_ctrl, psi_free))
        fv = first_variation(engel_graph, V, grid48, 4)
        dual = duality_integral(engel_graph, V, grid48, 4)
        assert abs(fv - dual) <= 1e-4 * (1 + abs(dual))


def test_first_variation_invariant_under_tangent_addition(engel_graph, grid48):
    psi = bump_expr() * parse("sin(2*x + y)", ["x", "y"])
    base = admissible_normal_field(engel_graph, psi)
    fv0 = first_variation(engel_graph, base, grid48, 4)
    fr = frames_for(engel_graph)
    tangent = tuple(bump_expr() * fr.E_amb[i][1] for i in range(4))
    comps = tuple(
        edot([base.components[0], base.components[1]], [fr.normal_amb[i][0], fr.normal_amb[i][1]])
        + tangent[i]
        for i in range(4)
    )
    fv1 = first_variation(engel_graph, VariationField("adapted", comps), grid48, 4)
    assert fv1 == pytest.approx(fv0, abs=1e-6)


def test_contact_hypersurface_curvature_crosscheck():
    rt = catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")
    H_contact, n_comps = catalog.contact_mean_curvature_exprs(rt)
    fr = frames_for(rt)
    for p in rt.sample_points(10, seed=5):
        env = rt.param_env(p)
        mc = mean_curvature(rt, p, 3)
        hc = float(H_contact.eval(env))
        N = eval_matrix(fr.normal_amb, env)[:, 0]
        ngraph = np.array(evaluate_many(n_comps, env), dtype=float)
        orient = float(N @ ngraph)
        assert abs(abs(orient) - 1.0) <= 1e-10
        assert -mc.components[0] * orient == pytest.approx(hc, abs=1e-6)


def test_minimal_rt_plane_has_zero_curvature():
    rt = catalog.immersion("rt-graph", u="0.2")
    for p in rt.sample_points(5, seed=6):
        mc = mean_curvature(rt, p, 3)
        assert np.allclose(mc.components, 0.0, atol=1e-12)
        iota, vert = critical_residuals(rt, p, 3)
        assert np.allclose(iota, 0.0, atol=1e-12)
        assert vert.size == 0


def test_critical_residual_weak_form(engel_graph, grid48):
    fr = frames_for(engel_graph)
    res = critical_residual_exprs(engel_graph, 4)
    assert not res.iota  # k = ell = 1 leaves no free controls
    env = {nm: grid48.points[:, i] for i, nm in enumerate(engel_graph.params)}
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = rng.uniform(0.5, 1.5)
        f = rng.integers(1, 5)
        psi = bump_expr() * parse(f"{c}*sin({f}*x + 0.5*y)", ["x", "y"])
        V = admissible_normal_field(engel_graph, psi)
        fv = first_variation(engel_graph, V, grid48, 4)
        weak = grid48.integrate_values(
            np.broadcast_to(
                (res.vert[0] * psi * fr.sqrt_detmu).eval(env), (len(grid48),)
            )
        )
        assert abs(fv - weak) <= 1e-4 * (1 + abs(fv))


@pytest.fixture(scope="module")
def twovar_product_surface():
    """Degree-3 surface with one constraint and two usable control pivots.

    A two-variable profile is fine: the two vertical contributions to the
    top-degree wedge coefficient cancel identically, so the degree stays 3
    while the constraint row couples two of the three control directions.
    """
    mani = catalog.manifold("h1xh1")
    u = parse("s^2 + 0.5*s + 0.4*s*t + 0.2*t", ["s", "t"])
    zero = parse("0", ["s", "t"])
    return Immersion(
        mani,
        ("s", "t"),
        (var("s"), zero, u, zero, var("t"), u),
        ((0.1, 1.0), (-1.0, 1.0)),
        base_coords=(0, 4),
        name="h1xh1-2d",
    )


def test_pivot_choice_represents_same_functional(twovar_product_surface):
    imm = twovar_product_surface
    d = 3
    fr = frames_for(imm)
    sym = fr.normal_system(d)
    k, ell = sym.shape.k, sym.shape.ell
    assert (k, ell) == (3, 1)
    grid = QuadratureGrid(imm.domain, 32)
    env = {nm: grid.points[:, i] for i, nm in enumerate(imm.params)}
    bump = parse("(s-0.1)^2*(1-s)^2*(1-t^2)^2*3", ["s", "t"])
    rng = np.random.default_rng(8)
    # admissible field built by solving for the control in column 0
    psi_free = bump * parse(f"{rng.uniform(-1, 1)}*sin(s + t)", ["s", "t"])
    iota_controls = {1: bump * parse("sin(s + 2*t)", ["s", "t"]),
                     2: bump * parse("cos(s*t)", ["s", "t"])}
    deriv = const(0.0)
    for j in range(2):
        pc = [sym.tangent_param[a][j] for a in range(2)]
        deriv = deriv + sym.C[j][0][0] * fr.tangent_derivative(pc, psi_free)
    num = deriv + sym.B[0][0] * psi_free
    for col, val in iota_controls.items():
        num = num + sym.A[0][col] * val
    ctrl0 = -num / sym.A[0][0]
    comps = (ctrl0, iota_controls[1], iota_controls[2], psi_free)
    V = VariationField("normal", comps)
    fv = first_variation(imm, V, grid, d)
    # residual pairing represents the same functional for each usable pivot
    pairings = []
    for cols in ([0], [1]):
        res = critical_residual_exprs(imm, d, columns=cols)
        iota_cols = [j for j in range(k) if j not in cols]
        integrand = res.vert[0] * psi_free
        for pos, j in enumerate(iota_cols):
            integrand = integrand + res.iota[pos] * comps[j]
        integrand = integrand * fr.sqrt_detmu
        pairing = grid.integrate_values(
            np.broadcast_to(integrand.eval(env), (len(grid),))
        )
        pairings.append(pairing)
        assert pairing == pytest.approx(fv, rel=1e-7, abs=1e-10)
    assert pairings[0] == pytest.approx(pairings[1], rel=1e-7)


def test_critical_residuals_engel_nontrivial(engel_graph):
    _, vert = critical_residuals(engel_graph, [0.4, 0.6], 4)
    assert vert.shape == (1,)
    assert abs(vert[0]) > 1e-6  # the linear-ish graph is not stationary


def test_mean_curvature_field_exprs_match_components(engel_graph):
    comps_exprs = mean_curvature_field_exprs(engel_graph, 4)
    fr = frames_for(engel_graph)
    for p in engel_graph.sample_points(5, seed=9):
        env = engel_graph.param_env(p)
        vals = np.array(evaluate_many(comps_exprs, env), dtype=float)
        mc = mean_curvature(engel_graph, p, 4)
        N = eval_matrix(fr.normal_amb, env)
        assert np.allclose(N.T @ vals, mc.components, atol=1e-10)
        # H is normal: no tangent component
        E = eval_matrix(fr.E_amb, env)
        assert np.allclose(E.T @ vals, 0.0, atol=1e-10)
