"""First variation, mean curvature and stationarity residuals."""

import math

import numpy as np
import pytest

import oracles
from gradedgeo import catalog, verify
from gradedgeo.admissibility import VariationField, frames_for
from gradedgeo.area import QuadratureGrid
from gradedgeo.exprs import const, dot, parse, var
from gradedgeo.immersion import Immersion, uniform_grid
from gradedgeo.moving_frames import SymbolicSystem
from gradedgeo.multivec import minors
from gradedgeo.variation import (
    critical_residual_exprs,
    first_variation,
    mean_curvature,
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


def div_degree_d(imm, field, p, d) -> float:
    """Degree-d divergence of a variation field at a point, a summand of the first variation."""
    return float(imm.values_at([frames_for(imm).div_degree_d_expr(field, d)], [p])[0, 0])


def f_linear(imm, vp, p, d) -> float:
    """Curvature pairing f(V_p) of one vector (ortho-frame comps), the other summand."""
    field = VariationField("adapted", tuple(const(float(c)) for c in vp))
    return float(imm.values_at([frames_for(imm).f_linear_expr(field, d)], [p])[0, 0])


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

    def at(e):
        return float(engel_graph.values_at([e], [p])[0, 0])

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
                    mat[a, b] = at(dV[jj - 1] if a == i else E_cols[a][jj - 1])
            total += at(cJ) * np.linalg.det(mat)
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
    point = engel_graph.values_at(engel_graph.components, [p])[:, 0]
    fr = frames_for(engel_graph)
    tau = oracles.param_matrix_at(engel_graph, fr.E_amb, p)
    tangent_coeffs = fr.tangent_coeffs(4)
    coeffs = dict(zip(tangent_coeffs, engel_graph.values_at(list(tangent_coeffs.values()), [p])[:, 0]))
    x3 = oracles.ortho_matrix_at(mani, point)[:, 2]
    total = 0.0
    for J, cJ in coeffs.items():
        dxj = oracles.cov_derivative_simple_mvector(mani, x3, J, point)
        # <E-wedge, dxj> with E-wedge expanded over all indices
        total += cJ * float(np.dot(minors(tau[None])[0], dxj))
    got = f_linear(engel_graph, [0.0, 0.0, 1.0, 0.0], p, 4)
    assert got == pytest.approx(total, rel=1e-9)


def test_first_variation_zero_field(engel_graph, grid48):
    V = VariationField("adapted", (const(0.0),) * 4)
    assert first_variation(engel_graph, V, grid48, 4) == 0.0


def test_first_variation_tangent_field(engel_graph):
    # |FV| at most 1e-6 along a compactly supported tangent field
    fr = frames_for(engel_graph)
    bump = bump_expr()
    comps = tuple(bump * fr.E_amb[i][0] for i in range(4))
    result = verify.variation(engel_graph, 48, [], [], [VariationField("adapted", comps)])
    assert result.passed, result.detail


def test_first_variation_roots_are_built_once_and_bounded(engel_graph, grid48):
    fr = frames_for(engel_graph)
    bump = bump_expr()
    fields = [VariationField("normal", (const(0.0), bump * const(1.0 + k))) for k in range(4)]
    first = fr.first_variation_roots(fields[0], 4)
    assert fr.first_variation_roots(fields[0], 4) is first  # built once
    size = len(fr._memo)
    for field in fields:
        for d in (3, 4):
            fr.first_variation_roots(field, d)
            assert len(fr._memo) <= size + 2  # one slot, and the theta(3) it built
    assert fr._memo["first_variation_roots"][0] == (fields[-1], 4)  # the last pair only
    # rebuilt after it left the slot: the same interned nodes, the same value
    assert fr.first_variation_roots(fields[0], 4) == first
    fv = first_variation(engel_graph, fields[1], grid48, 4)
    assert fr._memo["first_variation_roots"][0] == (fields[1], 4)
    assert first_variation(engel_graph, fields[1], grid48, 4) == fv


def test_first_variation_requires_compact_support(engel_graph, grid48):
    V = VariationField("adapted", (const(0.0), const(1.0), const(0.0), const(0.0)))
    with pytest.raises(ValueError, match="vanish"):
        first_variation(engel_graph, V, grid48, 4)


def test_first_variation_matches_family_finite_difference(engel_graph):
    # along theta + t psi the first variation is the central difference
    # (h = 1e-4) of the area to 1e-4 relative, and the duality integral
    rng = np.random.default_rng(1)
    psis = []
    for k in range(3):
        coeff = rng.uniform(0.5, 1.5)
        freq = rng.integers(1, 4)
        psis.append(bump_expr() * parse(f"{coeff}*sin({freq}*x + y)", ["x", "y"]))
    result = verify.variation(engel_graph, 48, psis, [], [])
    assert result.passed, result.detail


def test_mean_curvature_parts_sum(engel_graph):
    for mc in mean_curvature(engel_graph, engel_graph.sample_points(5, seed=2), 4):
        assert np.allclose(mc.parts.sum(axis=1), mc.components, atol=1e-8)


def test_mean_curvature_bracket_form_agrees(engel_graph):
    points = engel_graph.sample_points(10, seed=3)
    for p, mc in zip(points, mean_curvature(engel_graph, points, 4)):
        br = oracles.mean_curvature_bracket_at(engel_graph, p, 4)
        assert np.allclose(br, mc.components, atol=1e-6)


def test_mean_curvature_duality_random_normal_fields(engel_graph):
    # |FV(V) - <V, H>| <= 1e-4 (1 + |<V, H>|) for each normal field
    rng = np.random.default_rng(4)
    bump = bump_expr()
    fields = []
    for _ in range(10):
        c1, c2 = rng.uniform(-1, 1, 2)
        f1, f2 = rng.integers(1, 4, 2)
        psi_ctrl = bump * parse(f"{c1}*sin({f1}*x)*cos(y)", ["x", "y"])
        psi_free = bump * parse(f"{c2}*cos({f2}*y + x)", ["x", "y"])
        fields.append(VariationField("normal", (psi_ctrl, psi_free)))
    result = verify.variation(engel_graph, 48, [], fields, [])
    assert result.passed, result.detail


def test_first_variation_invariant_under_tangent_addition(engel_graph, grid48):
    psi = bump_expr() * parse("sin(2*x + y)", ["x", "y"])
    base = catalog.engel_admissible_normal_field(engel_graph, psi)
    fv0 = first_variation(engel_graph, base, grid48, 4)
    fr = frames_for(engel_graph)
    tangent = tuple(bump_expr() * fr.E_amb[i][1] for i in range(4))
    comps = tuple(
        dot([base.components[0], base.components[1]], [fr.normal_amb[i][0], fr.normal_amb[i][1]])
        + tangent[i]
        for i in range(4)
    )
    fv1 = first_variation(engel_graph, VariationField("adapted", comps), grid48, 4)
    assert fv1 == pytest.approx(fv0, abs=1e-6)


def test_contact_hypersurface_curvature_crosscheck():
    rt = catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")
    result = verify.contact([rt], 10, 5, 48)
    assert result.passed, result.detail


def test_minimal_rt_plane_has_zero_curvature():
    rt = catalog.immersion("rt-graph", u="0.2")
    points = rt.sample_points(5, seed=6)
    for mc in mean_curvature(rt, points, 3):
        assert np.allclose(mc.components, 0.0, atol=1e-12)
    res = critical_residual_exprs(rt, 3)
    iota, vert = rt.values_at(res.iota, points), rt.values_at(res.vert, points)
    assert np.allclose(iota, 0.0, atol=1e-12)
    assert vert.size == 0


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
        pairing = grid.integrate_values(imm.values_at([integrand], grid.points)[0])
        pairings.append(pairing)
        assert pairing == pytest.approx(fv, rel=1e-7, abs=1e-10)
    assert pairings[0] == pytest.approx(pairings[1], rel=1e-7)


def test_critical_residuals_engel_nontrivial(engel_graph):
    vert = engel_graph.values_at(critical_residual_exprs(engel_graph, 4).vert, [[0.4, 0.6]])[:, 0]
    assert vert.shape == (1,)
    assert abs(vert[0]) > 1e-6  # the linear-ish graph is not stationary


def test_mean_curvature_field_exprs_match_components(engel_graph):
    comps_exprs = mean_curvature_field_exprs(engel_graph, 4)
    fr = frames_for(engel_graph)
    points = engel_graph.sample_points(5, seed=9)
    values = engel_graph.values_at(comps_exprs, points)
    for p, vals, mc in zip(points, values.T, mean_curvature(engel_graph, points, 4)):
        N = oracles.param_matrix_at(engel_graph, fr.normal_amb, p)
        assert np.allclose(N.T @ vals, mc.components, atol=1e-10)
        # H is normal: no tangent component
        E = oracles.param_matrix_at(engel_graph, fr.E_amb, p)
        assert np.allclose(E.T @ vals, 0.0, atol=1e-10)


def test_mean_curvature_grid_loop_chooses_control_columns_once(monkeypatch):
    imm = catalog.immersion("engel-graph", theta=THETA)  # fresh frames, empty memo
    calls = []
    original = SymbolicSystem.at

    def counted(self, imm_, points):
        calls.append(np.asarray(points).tolist())
        return original(self, imm_, points)

    monkeypatch.setattr(SymbolicSystem, "at", counted)
    pts, _ = uniform_grid(imm.domain, (4, 4))
    hats = {mean_curvature(imm, p[None], 4)[0].hat_columns for p in pts}
    assert hats == {(0,)}
    assert calls == [frames_for(imm).base.tolist()]  # one evaluation, at the base point
