"""Admissibility systems, residuals, strong regularity, metric transport."""

import math

import numpy as np
import pytest

from gradedgeo import catalog, verify
from gradedgeo.admissibility import (
    VariationField,
    frames_for,
    metric_change_check,
    residual,
    system_shape,
)
from gradedgeo.exprs import const, dot, parse, var
from gradedgeo.manifold import MetricField, numeric_rank, lie_bracket_exprs
from gradedgeo.multivec import all_multi_indices, compound, d_max
from gradedgeo.symmat import edet, emat_mul, upper_triangular_inverse
from gradedgeo.verify import engel_closed_forms
from oracles import param_matrix_at

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


def test_assemble_adapted_engel_closed_forms(engel_graph, plane):
    # the zeroth-order coefficients have closed forms; the f3 coefficient is
    # +X4(theta): both the covariant assembly and the commutator table give
    # that sign, and the degree-preserving family is annihilated only with it
    no_points = np.empty((0, 2))
    result = verify.admissibility_matrices(
        engel_graph, engel_graph.sample_points(100, seed=1), plane, no_points
    )
    assert result.passed, result.detail


def test_assemble_adapted_plane_exact(engel_graph, plane):
    # rows: d f4 / d x3 + f2 = 0;  0 = 0;  -d f4 / d x1 = 0
    no_points = np.empty((0, 2))
    result = verify.admissibility_matrices(
        engel_graph, no_points, plane, plane.sample_points(10, seed=2)
    )
    assert result.passed, result.detail


def test_assemble_hypersurface_empty(rt_graph):
    A, B, C, _ = frames_for(rt_graph).adapted_system(3).at(rt_graph, [[0.5, 0.5]])
    assert A.shape == (1, 0, 2)
    assert B.shape == (1, 0, 1)
    assert all(c.shape == (1, 0, 1) for c in C)


def test_assemble_normal_plane(plane):
    # one nonzero control entry of unit size; its sign follows the normal
    # orientation (+X2 here).  Ground truth: admissible plane fields have
    # f4 = g(w), f2 = -g'(w), and the first row annihilates them only with
    # the +1 entry.
    A = frames_for(plane).normal_system(3).at(plane, plane.sample_points(5, seed=4))[0]
    assert A.shape == (5, 3, 1)
    for a in A:
        assert np.allclose(a, [[1.0], [0.0], [0.0]], atol=1e-12)
        assert numeric_rank(a) == 1
    g = parse("w^3 - w", ["v", "w"])
    V = VariationField(
        "adapted", (const(0.0), -g.diff("w"), const(0.0), g)
    )
    r = residual(plane, V, plane.sample_points(5, seed=5), 3)
    assert r.shape == (5, 3)
    assert np.allclose(r, 0.0, atol=1e-12)


def test_rank_a_equals_rank_a_perp():
    cases = [
        (catalog.immersion("engel-graph", theta=THETA), 4),
        (catalog.immersion("isolated-plane"), 3),
        (catalog.immersion("h1xh1-surface", u="s^2 + 0.5*s"), 3),
    ]
    result = verify.regularity([], [(imm, imm.sample_points(50, seed=5), d) for imm, d in cases])
    assert result.passed, result.detail


def test_normal_frame_is_orthonormal_and_normal(engel_graph):
    fr = frames_for(engel_graph)
    for p in engel_graph.sample_points(10, seed=6):
        N = param_matrix_at(engel_graph, fr.normal_amb, p)
        E = param_matrix_at(engel_graph, fr.E_amb, p)
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
    points = engel_graph.sample_points(10, seed=7)
    f = engel_closed_forms(engel_graph, points)
    assert residual(engel_graph, V, points, 4)[:, 0] == pytest.approx(f["x4t"], abs=1e-10)


def test_residual_constant_f4(engel_graph):
    c = 0.7
    V = VariationField("adapted", (const(0.0),) * 3 + (const(c),))
    points = engel_graph.sample_points(10, seed=8)
    f = engel_closed_forms(engel_graph, points)
    r = residual(engel_graph, V, points, 4)
    assert r[:, 0] == pytest.approx(-f["kappa"] ** 2 * c, abs=1e-10)


def test_residual_tangent_fields_vanish(engel_graph):
    fr = frames_for(engel_graph)
    rng = np.random.default_rng(9)
    bump = parse("x*(1-x)*y*(1-y)", ["x", "y"])
    for col in range(2):
        comps = tuple(bump * fr.adapted_amb[i][col] for i in range(4))
        V = VariationField("adapted", comps)
        r = residual(engel_graph, V, engel_graph.sample_points(5, seed=10 + col), 4)
        assert np.abs(r).max() <= 1e-8


def test_residual_family_field_vanishes(engel_graph):
    for src in ("x*y*(1-x)*(1-y)", "sin(3*x)*y^2", "x^3 - 2*y*x + 0.5*y^2"):
        V = catalog.engel_family_field(engel_graph, parse(src, ["x", "y"]))
        r = residual(engel_graph, V, engel_graph.sample_points(5, seed=11), 4)
        assert np.abs(r).max() <= 1e-12


def test_residual_plane_displayed_system(plane):
    phi = parse("v*w^2", ["v", "w"])  # f4; depends on (v, w) = (x1, x3)
    V = VariationField("adapted", (const(0.0), const(0.2), const(0.0), phi))
    p = [[0.3, -0.4]]
    (r,) = residual(plane, V, p, 3)
    phi_w, phi_v = plane.values_at([phi.diff("w"), phi.diff("v")], p)[:, 0]
    assert np.allclose(r, [phi_w + 0.2, 0.0, -phi_v], atol=1e-12)


def test_strong_regularity_flags(engel_graph, plane, rt_graph):
    # (strongly regular, rank, ell) at every point of each set
    result = verify.regularity(
        [
            ("engel", engel_graph, engel_graph.sample_points(20, seed=12), 4, (True, 1, 1)),
            ("plane", plane, plane.sample_points(20, seed=13), 3, (False, 1, 3)),
            ("hypersurface", rt_graph, np.array([[0.5, 0.5]]), 3, (True, 0, 0)),
        ],
        [],
    )
    assert result.passed, result.detail


def test_split_tangent_normal(engel_graph):
    fr = frames_for(engel_graph)
    p = [0.4, 0.6]
    E = param_matrix_at(engel_graph, fr.E_amb, p)

    def split(field):
        """g-orthogonal split of the field's value at p (ortho-frame comps)."""
        v = engel_graph.values_at(fr.ambient_field_from_variation(field), [p])[:, 0]
        vtan = E @ (E.T @ v)
        return vtan, v - vtan

    # purely normal input has no tangent part
    Vn = VariationField("normal", (parse("1", []), parse("0.5", [])))
    vtan, vperp = split(Vn)
    assert np.allclose(vtan, 0.0, atol=1e-12)
    # tangent input: first orthonormal tangent field
    Vt = VariationField("adapted", tuple(fr.E_amb[i][0] for i in range(4)))
    vtan, vperp = split(Vt)
    assert np.allclose(vperp, 0.0, atol=1e-12)
    # additivity within one fixed system: the residual of V equals the
    # residual of its (symbolically projected) normal part
    comps = tuple(parse(s, ["x", "y"]) for s in ("x*y", "1+x", "y^2", "x-y"))
    V = VariationField("adapted", comps)
    psi_ctrl = dot(list(comps), [fr.normal_amb[i][0] for i in range(4)])
    psi_free = dot(list(comps), [fr.normal_amb[i][1] for i in range(4)])
    perp_adapted = tuple(
        psi_ctrl * fr.normal_amb[i][0] + psi_free * fr.normal_amb[i][1]
        for i in range(4)
    )
    q = engel_graph.sample_points(5, seed=14)
    r_full = residual(engel_graph, V, q, 4)
    r_perp = residual(engel_graph, VariationField("adapted", perp_adapted), q, 4)
    assert np.allclose(r_full, r_perp, atol=1e-8)
    # and in the normal system, tangent components are inert
    r_n_full = residual(
        engel_graph,
        VariationField(
            "normal",
            (
                dot(list(comps), [fr.E_amb[i][0] for i in range(4)]),
                dot(list(comps), [fr.E_amb[i][1] for i in range(4)]),
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
    # per field, to the euclidean metric: residual, A, B and C transport errors
    # at most 1e-7 (``TRANSPORT_TOL``), equal ranks, and Lambda's off block at
    # most 1e-10
    rng = np.random.default_rng(15)
    pts = engel_graph.sample_points(20, seed=16)
    fields = [
        tuple(const(c0) + const(c1) * var("x") + const(c2) * var("y") for c0, c1, c2 in coeffs)
        for coeffs in rng.uniform(-1, 1, (10, 4, 3))
    ]
    result = verify.transport(engel_graph, 4, fields, pts)
    assert result.passed, result.detail


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
    points = engel_graph.sample_points(10, seed=18)
    for h in range(n):
        field = [engel_graph.manifold.ortho_matrix_exprs[c][h] for c in range(n)]
        total = np.zeros(len(points))
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
            total += engel_graph.values_at([det], points)[0]
        nabla = engel_graph.values_at([sym.A[0][h] if h < 2 else sym.B[0][h - 2]], points)[0]
        assert total == pytest.approx(nabla, abs=1e-7)


def _c_column_vanishes(imm, h, d):
    fr = frames_for(imm)
    shape = fr.shape_for(d)
    sym = fr.adapted_system(d)
    column = [sym.C[j][i][h - shape.rho] for j in range(imm.m) for i in range(shape.ell)]
    return np.abs(imm.values_at(column, imm.sample_points(8, seed=19))).max() <= 1e-12


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


def test_frames_cache_drops_collected_immersions():
    import gc

    from gradedgeo import admissibility

    imm = catalog.immersion("isolated-plane")
    frames = frames_for(imm)
    assert frames_for(imm) is frames
    key = id(imm)
    assert admissibility._FRAMES_CACHE.get(key) is frames
    del imm, frames
    gc.collect()
    assert admissibility._FRAMES_CACHE.get(key) is None


def test_system_shape_error_prints_plain_floats():
    h = catalog.immersion("h1xh1-surface", u="s^2")  # singular at the base point s = 0
    with pytest.raises(ValueError, match=r"at \(0\.5, 0\.5\)$"):
        system_shape(h, np.array([[0.5, 0.5]]), 3)


def test_variation_field_json():
    field = VariationField.from_json(
        '{"frame": "adapted", "components": ["0", "x*y", "1", "0"]}', ["x", "y"]
    )
    assert field.frame == "adapted"
    assert len(field.components) == 4
    with pytest.raises(ValueError):
        VariationField("sideways", (const(0.0),))


CATALOG_IMMERSIONS = ["engel-graph", "h1xh1-surface", "isolated-plane", "rt-graph"]


def _per_matrix(imm, sym, p):
    """The system's matrices at one point, one evaluation per matrix; zeros for an empty block."""
    ell = sym.shape.ell

    def one(M, cols):
        if ell == 0 or cols == 0:
            return np.zeros((ell, cols))
        return param_matrix_at(imm, M, p)

    return (
        one(sym.A, sym.control_cols),
        one(sym.B, sym.other_cols),
        [one(Cj, sym.other_cols) for Cj in sym.C],
        param_matrix_at(imm, sym.tangent_param, p),
    )


@pytest.mark.parametrize("name", CATALOG_IMMERSIONS)
def test_system_at_is_bit_identical_to_per_matrix_evaluation(name):
    imm = catalog.immersion(name)
    fr = frames_for(imm)
    (degree,) = imm.degrees(imm.midpoint()[None]).tolist()
    empty = 0
    points = np.array([imm.midpoint(), *imm.sample_points(3, seed=20)])
    # every degree from the immersion's own to d_max, whose system has ell = 0
    for d in range(degree, d_max(imm.m, imm.manifold.weights) + 1):
        for sym in (fr.adapted_system(d), fr.normal_system(d)):
            A, B, C, tparam = sym.at(imm, points)
            assert len(C) == imm.m
            for k, p in enumerate(points):
                rA, rB, rC, rt = _per_matrix(imm, sym, p)
                assert len(rC) == imm.m
                for got, want in zip([A[k], B[k], *(Cj[k] for Cj in C), tparam[k]],
                                     [rA, rB, *rC, rt]):
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
                    empty += got.size == 0
    assert empty > 0  # the ell = 0 blocks were among the cases


def _symbolic_lambda(imm, metric_b, p):
    """Lambda[J][I] = det D[J, I], one symbolic ``edet`` per (J, I) pair, evaluated at ``p``."""
    fr = frames_for(imm)
    n, m = imm.n, imm.m
    Ub = imm.with_metric(metric_b).manifold.ortho_change_exprs
    D = emat_mul(upper_triangular_inverse(imm.manifold.ortho_change_exprs), Ub)
    Dm = [[fr.compose(D[i][j]) for j in range(n)] for i in range(n)]
    idx = list(all_multi_indices(n, m))
    lam = [[edet([[Dm[a - 1][b - 1] for b in I] for a in J]) for I in idx] for J in idx]
    return param_matrix_at(imm, lam, p), param_matrix_at(imm, Dm, p)


@pytest.mark.parametrize(
    "name,d,metric_b",
    [
        ("engel-graph", 4, MetricField.euclidean(4)),
        ("h1xh1-surface", 3, MetricField.euclidean(6)),
        ("isolated-plane", 3, MetricField.euclidean(4)),
    ],
)
def test_minors_lambda_matches_symbolic_edet(name, d, metric_b):
    imm = catalog.immersion(name)
    for p in imm.sample_points(5, seed=21):
        want, Dp = _symbolic_lambda(imm, metric_b, p)
        (got,) = compound(Dp[None], imm.m)
        assert np.array_equal(got, want)
        assert not np.allclose(want, want.T)  # a transposed Lambda would fail
