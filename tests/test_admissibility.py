"""Admissibility systems, residuals, strong regularity, metric transport."""

import math

import numpy as np
import pytest

from gradedgeo import catalog
from gradedgeo.admissibility import (
    VariationField,
    assemble_adapted,
    assemble_normal,
    frames_for,
    is_strongly_regular,
    metric_change_check,
    residual,
    split_tangent_normal,
    system_shape,
)
from gradedgeo.exprs import call, const, parse, var
from gradedgeo.manifold import MetricField, numeric_rank, lie_bracket_exprs
from gradedgeo.symmat import edot, eval_matrix
from gradedgeo.verify import engel_closed_forms

THETA = "0.2*x + 0.3*y"


@pytest.fixture(scope="module")
def engel_graph():
    return catalog.immersion("engel-graph", theta=THETA)


@pytest.fixture(scope="module")
def plane():
    return catalog.immersion("isolated-plane")


@pytest.fixture(scope="module")
def rt_graph():
    return catalog.immersion("rt-graph", u="0.3*x + 0.2*y^2")


def family_field(imm, psi):
    """Variational field of the ruled-graph family theta -> theta + t psi."""
    theta = imm.components[2]
    cos_t, sin_t = call("cos", theta), call("sin", theta)
    x1bar_psi = cos_t * psi.diff("x") + sin_t * psi.diff("y")
    x4bar_theta = -sin_t * theta.diff("x") + cos_t * theta.diff("y")
    return VariationField(
        "adapted", (const(0.0), x1bar_psi + x4bar_theta * psi, -psi, const(0.0))
    )


def test_system_shape_engel(engel_graph):
    shape = system_shape(engel_graph, engel_graph.sample_points(10, seed=0), 4)
    assert (shape.iota0, shape.rho, shape.ell, shape.k) == (1, 2, 1, 1)
    assert shape.basis == ((3, 4),)


def test_system_shape_plane(plane):
    shape = system_shape(plane, plane.sample_points(5, seed=0), 3)
    assert shape.ell == 3
    assert shape.k == 1
    assert shape.basis == ((1, 4), (2, 4), (3, 4))


def test_system_shape_hypersurface(rt_graph):
    shape = system_shape(rt_graph, rt_graph.sample_points(5, seed=0), 3)
    assert shape.ell == 0
    assert shape.k == 1


def test_assemble_adapted_engel_closed_forms(engel_graph):
    # the zeroth-order coefficients have closed forms; the f3 coefficient is
    # +X4(theta): both the covariant assembly and the commutator table give
    # that sign, and the degree-preserving family is annihilated only with it
    for p in engel_graph.sample_points(100, seed=1):
        f = engel_closed_forms(THETA, p)
        sys = assemble_adapted(engel_graph, p, 4)
        assert sys.A[0, 0] == pytest.approx(-f["x1k"], abs=1e-8)
        assert sys.A[0, 1] == pytest.approx(1.0, abs=1e-8)
        assert sys.B[0, 0] == pytest.approx(f["x4t"], abs=1e-8)
        assert sys.B[0, 1] == pytest.approx(-f["kappa"] ** 2, abs=1e-8)
        assert sys.C[0][0, 0] == pytest.approx(1.0, abs=1e-8)
        assert sys.C[0][0, 1] == pytest.approx(f["x4t"], abs=1e-8)
        assert np.allclose(sys.C[1], 0.0, atol=1e-8)


def test_assemble_adapted_plane_exact(plane):
    for p in plane.sample_points(10, seed=2):
        sys = assemble_adapted(plane, p, 3)
        # rows: d f4 / d x3 + f2 = 0;  0 = 0;  -d f4 / d x1 = 0
        assert np.max(np.abs(sys.A - [[0, 1], [0, 0], [0, 0]])) <= 1e-12
        assert np.max(np.abs(sys.B)) <= 1e-12
        assert np.max(np.abs(sys.C[0] - [[0, 0], [0, 0], [0, -1]])) <= 1e-12
        assert np.max(np.abs(sys.C[1] - [[0, 1], [0, 0], [0, 0]])) <= 1e-12


def test_assemble_hypersurface_empty(rt_graph):
    sys = assemble_adapted(rt_graph, [0.5, 0.5], 3)
    assert sys.A.shape == (0, 2)
    assert sys.B.shape == (0, 1)
    assert all(c.shape == (0, 1) for c in sys.C)


def test_assemble_normal_engel_closed_forms(engel_graph):
    for p in engel_graph.sample_points(100, seed=3):
        f = engel_closed_forms(THETA, p)
        sys = assemble_normal(engel_graph, p, 4)
        xi = sys.C[0][0, 0]
        assert xi == pytest.approx(f["a3"] / f["a2"], abs=1e-8)
        assert abs(sys.C[1][0, 0]) <= 1e-8
        a_hat = f["a1"] * sys.A[0, 0] / xi
        b_hat = f["a1"] * sys.B[0, 0] / xi
        # normalized control coefficient: alpha1 alpha2 / alpha3^2 (positive)
        assert a_hat == pytest.approx(f["a1"] * f["a2"] / f["a3"] ** 2, abs=1e-8)
        assert a_hat > 0
        assert b_hat == pytest.approx(
            f["x4t"] * (1 - f["kappa"] ** 2) / f["a3"] ** 2, abs=1e-8
        )


def test_assemble_normal_plane(plane):
    # one nonzero control entry of unit size; its sign follows the normal
    # orientation (+X2 here).  Ground truth: admissible plane fields have
    # f4 = g(w), f2 = -g'(w), and the first row annihilates them only with
    # the +1 entry.
    for p in plane.sample_points(5, seed=4):
        sys = assemble_normal(plane, p, 3)
        assert sys.A.shape == (3, 1)
        assert np.allclose(sys.A, [[1.0], [0.0], [0.0]], atol=1e-12)
        assert numeric_rank(sys.A) == 1
    g = parse("w^3 - w", ["v", "w"])
    V = VariationField(
        "adapted", (const(0.0), -g.diff("w"), const(0.0), g)
    )
    for p in plane.sample_points(5, seed=5):
        assert np.allclose(residual(plane, V, p, 3), 0.0, atol=1e-12)


def test_rank_a_equals_rank_a_perp():
    cases = [
        (catalog.immersion("engel-graph", theta=THETA), 4),
        (catalog.immersion("isolated-plane"), 3),
        (catalog.immersion("h1xh1-surface", u="s^2 + 0.5*s"), 3),
    ]
    for imm, d in cases:
        for p in imm.sample_points(50, seed=5):
            a = assemble_adapted(imm, p, d).A
            ap = assemble_normal(imm, p, d).A
            assert numeric_rank(a) == numeric_rank(ap), (imm.name, tuple(p))


def test_normal_frame_is_orthonormal_and_normal(engel_graph):
    fr = frames_for(engel_graph)
    for p in engel_graph.sample_points(10, seed=6):
        env = engel_graph.param_env(p)
        N = eval_matrix(fr.normal_amb, env)
        E = eval_matrix(fr.E_amb, env)
        assert np.allclose(N.T @ N, np.eye(2), atol=1e-10)
        assert np.allclose(E.T @ N, 0.0, atol=1e-10)


def test_tangent_columns_of_a_perp_vanish(engel_graph):
    # the analogous coefficients for tangent directions are identically zero;
    # assembled implicitly: residual of any tangent field vanishes (below)
    fr = frames_for(engel_graph)
    sym = fr.normal_system(4)
    # xi entries for tangent slots are zero by wedge degeneracy: check the
    # assembled C matrices only involve the free normal direction
    assert len(sym.C) == 2
    for Cj in sym.C:
        assert len(Cj[0]) == 1


def test_residual_engel_frame_field(engel_graph):
    # V = X3: all derivative terms vanish; the residual is the f3 coefficient
    V = VariationField("adapted", (const(0.0),) * 2 + (const(1.0), const(0.0)))
    for p in engel_graph.sample_points(10, seed=7):
        f = engel_closed_forms(THETA, p)
        r = residual(engel_graph, V, p, 4)
        assert r[0] == pytest.approx(f["x4t"], abs=1e-10)


def test_residual_constant_f4(engel_graph):
    c = 0.7
    V = VariationField("adapted", (const(0.0),) * 3 + (const(c),))
    for p in engel_graph.sample_points(10, seed=8):
        f = engel_closed_forms(THETA, p)
        r = residual(engel_graph, V, p, 4)
        assert r[0] == pytest.approx(-f["kappa"] ** 2 * c, abs=1e-10)


def test_residual_tangent_fields_vanish(engel_graph):
    fr = frames_for(engel_graph)
    rng = np.random.default_rng(9)
    bump = parse("x*(1-x)*y*(1-y)", ["x", "y"])
    for col in range(2):
        comps = tuple(bump * fr.adapted_amb[i][col] for i in range(4))
        V = VariationField("adapted", comps)
        for p in engel_graph.sample_points(5, seed=10 + col):
            r = residual(engel_graph, V, p, 4)
            assert abs(r[0]) <= 1e-8


def test_residual_family_field_vanishes(engel_graph):
    for src in ("x*y*(1-x)*(1-y)", "sin(3*x)*y^2", "x^3 - 2*y*x + 0.5*y^2"):
        V = family_field(engel_graph, parse(src, ["x", "y"]))
        for p in engel_graph.sample_points(5, seed=11):
            r = residual(engel_graph, V, p, 4)
            assert abs(r[0]) <= 1e-12


def test_residual_plane_displayed_system(plane):
    phi = parse("v*w^2", ["v", "w"])  # f4; depends on (v, w) = (x1, x3)
    V = VariationField("adapted", (const(0.0), const(0.2), const(0.0), phi))
    p = [0.3, -0.4]
    r = residual(plane, V, p, 3)
    env = plane.param_env(p)
    expect = np.array(
        [phi.diff("w").eval(env) + 0.2, 0.0, -phi.diff("v").eval(env)]
    )
    assert np.allclose(r, expect, atol=1e-12)


def test_strong_regularity_flags(engel_graph, plane, rt_graph):
    for p in engel_graph.sample_points(20, seed=12):
        reg = is_strongly_regular(engel_graph, p, 4)
        assert reg.strongly_regular and reg.rank == 1 and reg.ell == 1
    for p in plane.sample_points(20, seed=13):
        reg = is_strongly_regular(plane, p, 3)
        assert not reg.strongly_regular
        assert reg.rank == 1 and reg.ell == 3
    reg = is_strongly_regular(rt_graph, [0.5, 0.5], 3)
    assert reg.strongly_regular and reg.ell == 0


def test_split_tangent_normal(engel_graph):
    fr = frames_for(engel_graph)
    p = [0.4, 0.6]
    env = engel_graph.param_env(p)
    # purely normal input has no tangent part
    Vn = VariationField("normal", (parse("1", []), parse("0.5", [])))
    vtan, vperp = split_tangent_normal(engel_graph, Vn, p)
    assert np.allclose(vtan, 0.0, atol=1e-12)
    # tangent input: first orthonormal tangent field
    Vt = VariationField("adapted", tuple(fr.E_amb[i][0] for i in range(4)))
    vtan, vperp = split_tangent_normal(engel_graph, Vt, p)
    assert np.allclose(vperp, 0.0, atol=1e-12)
    # additivity within one fixed system: the residual of V equals the
    # residual of its (symbolically projected) normal part
    comps = tuple(parse(s, ["x", "y"]) for s in ("x*y", "1+x", "y^2", "x-y"))
    V = VariationField("adapted", comps)
    psi_ctrl = edot(list(comps), [fr.normal_amb[i][0] for i in range(4)])
    psi_free = edot(list(comps), [fr.normal_amb[i][1] for i in range(4)])
    perp_adapted = tuple(
        psi_ctrl * fr.normal_amb[i][0] + psi_free * fr.normal_amb[i][1]
        for i in range(4)
    )
    for q in engel_graph.sample_points(5, seed=14):
        r_full = residual(engel_graph, V, q, 4)
        r_perp = residual(engel_graph, VariationField("adapted", perp_adapted), q, 4)
        assert np.allclose(r_full, r_perp, atol=1e-8)
        # and in the normal system, tangent components are inert
        r_n_full = residual(
            engel_graph,
            VariationField(
                "normal",
                (
                    edot(list(comps), [fr.E_amb[i][0] for i in range(4)]),
                    edot(list(comps), [fr.E_amb[i][1] for i in range(4)]),
                    psi_ctrl,
                    psi_free,
                ),
            ),
            q,
            4,
        )
        r_n_perp = residual(
            engel_graph, VariationField("normal", (psi_ctrl, psi_free)), q, 4
        )
        assert np.allclose(r_n_full, r_n_perp, atol=1e-12)


def test_metric_change_engel(engel_graph):
    rng = np.random.default_rng(15)
    pts = engel_graph.sample_points(20, seed=16)
    for trial in range(10):
        coeffs = rng.uniform(-1, 1, (4, 3))
        comps = tuple(
            const(c0) + const(c1) * var("x") + const(c2) * var("y")
            for c0, c1, c2 in coeffs
        )
        rep = metric_change_check(
            engel_graph, pts, MetricField.euclidean(4),
            VariationField("adapted", comps), 4,
        )
        assert rep.residual_transport_error <= 1e-7
        assert rep.a_identity_error <= 1e-7
        assert rep.b_identity_error <= 1e-7
        assert rep.c_identity_error <= 1e-7
        assert rep.rank_equal
        assert rep.block_triangular_error <= 1e-10


def test_metric_change_identity_metric(engel_graph):
    comps = tuple(parse(s, ["x", "y"]) for s in ("x", "y", "x*y", "1"))
    rep = metric_change_check(
        engel_graph,
        engel_graph.sample_points(5, seed=17),
        MetricField.frame_orthonormal(),
        VariationField("adapted", comps),
        4,
    )
    assert rep.residual_transport_error <= 1e-14
    assert rep.ok


def test_beta_nabla_form_matches_bracket_form(engel_graph):
    """The covariant and commutator forms of the zeroth-order block agree.

    The commutator form extends the tangent frame through the graph chart
    with constant frame components; both forms are evaluated independently.
    """
    fr = frames_for(engel_graph)
    n, m = 4, 2
    sym = fr.adapted_system(4)
    coords = engel_graph.manifold.coords
    e_ext = [
        fr.graph_extend_field([fr.adapted_amb[q][j] for q in range(n)])
        for j in range(m)
    ]
    for p in engel_graph.sample_points(10, seed=18):
        env = engel_graph.param_env(p)
        for h in range(n):
            field = [engel_graph.manifold.ortho_matrix_exprs[c][h] for c in range(n)]
            total = 0.0
            for j in range(m):
                lie = lie_bracket_exprs(e_ext[j], field, coords)
                lie_m = fr.to_ortho_comps([fr.compose(c) for c in lie])
                cols = []
                for a in range(m):
                    if a == j:
                        cols.append(lie_m)
                    else:
                        cols.append([fr.adapted_amb[q][a] for q in range(n)])
                mat = [[cols[a][jj - 1] for jj in (3, 4)] for a in range(m)]
                det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
                total += float(det.eval(env))
            nabla_val = float(
                (sym.A[0][h] if h < 2 else sym.B[0][h - 2]).eval(env)
            )
            assert total == pytest.approx(nabla_val, abs=1e-7)


def _c_column_vanishes(imm, h, d):
    fr = frames_for(imm)
    shape = fr.shape_for(d)
    sym = fr.adapted_system(d)
    vals = []
    for p in imm.sample_points(8, seed=19):
        env = imm.param_env(p)
        for j in range(imm.m):
            for i in range(shape.ell):
                vals.append(abs(float(sym.C[j][i][h - shape.rho].eval(env))))
    return max(vals) <= 1e-12


def test_c_coefficients_degree_criterion(engel_graph, plane):
    """Frame fields in layers up to iota0 never carry derivative terms.

    The converse (a field of higher layer always carries one) holds for
    transverse fields; it degenerates when the frame field is tangent to
    the surface, as X3 is along the plane, where the slot wedge vanishes
    identically.
    """
    # engel-graph: both columns (X3 degree 2, X4 degree 3) carry derivatives
    for h, expect_zero in ((2, False), (3, False)):
        assert _c_column_vanishes(engel_graph, h, 4) == expect_zero
    # plane: X4 (degree 3, transverse) carries one; X3 is the tangent
    # degeneration of the converse
    assert not _c_column_vanishes(plane, 3, 3)
    assert _c_column_vanishes(plane, 2, 3)


def test_variation_field_json():
    field = VariationField.from_json(
        '{"frame": "adapted", "components": ["0", "x*y", "1", "0"]}', ["x", "y"]
    )
    assert field.frame == "adapted"
    assert len(field.components) == 4
    with pytest.raises(ValueError):
        VariationField("sideways", (const(0.0),))
