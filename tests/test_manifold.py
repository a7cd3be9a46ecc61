"""Frames, brackets, filtrations, metrics and connections."""

import math

import numpy as np
import pytest

import oracles
from gradedgeo import catalog
from gradedgeo.exprs import EvaluationError, const, evaluate_many, parse, var
from gradedgeo.manifold import (
    AdaptedFrame,
    Manifold,
    MetricField,
    carnot_flag,
    lie_bracket_exprs,
    verify_filtration,
)
from gradedgeo.multivec import GrowthVector, all_multi_indices, minors
from gradedgeo.symmat import eidentity, emat_mul, etranspose


@pytest.fixture(scope="module")
def engel():
    return catalog.manifold("engel-structure")


@pytest.fixture(scope="module")
def rototrans():
    return catalog.manifold("rototrans")


def bracket_at(x_comps, y_comps, coords, point) -> np.ndarray:
    """[X, Y] evaluated at one point through the symbolic bracket the frames use."""
    env = dict(zip(coords, np.asarray(point, dtype=float)))
    return np.array(evaluate_many(lie_bracket_exprs(x_comps, y_comps, coords), env), dtype=float)


def test_engel_bracket(engel):
    p = [0.3, 0.2, 0.4, 0.15]
    b = bracket_at(engel.frame.fields[0], engel.frame.fields[1], engel.coords, p)
    assert np.allclose(b, [0, 0, -1, 0])  # [X1, X2] = -d/dtheta
    b2 = bracket_at(engel.frame.fields[0], engel.frame.fields[2], engel.coords, p)
    assert np.allclose(b2, [-math.sin(0.4), math.cos(0.4), 0, 0])


def test_rototrans_bracket(rototrans):
    p = [1.0, -2.0, 0.0]
    b = bracket_at(rototrans.frame.fields[0], rototrans.frame.fields[1], rototrans.coords, p)
    # [X, Y] at theta = 0 is sin(0) dx - cos(0) dy = (0, -1, 0)
    assert np.allclose(b, [0.0, -1.0, 0.0])


def test_bracket_antisymmetry(engel):
    p = [0.1, 0.7, -0.3, 0.9]
    x = engel.frame.fields[0]
    assert np.allclose(bracket_at(x, x, engel.coords, p), 0.0)


def test_filtration_catalog_structures():
    rng = np.random.default_rng(0)
    for name in ("h1xh1", "rototrans", "engel-structure", "engel-group"):
        mani = catalog.manifold(name)
        samples = rng.uniform(-1, 1, (100, mani.n))
        report = verify_filtration(mani.frame, samples)
        assert report.ok, f"{name}: {report.violations[:3]}"


def test_filtration_detects_forged_weights():
    # declare X4 (not X3) as the layer-2 field: then [X1, X2] = X3 sticks out
    # of the declared H^2 = span{X1, X2, X4}, which the bracket check sees
    base = catalog.manifold("engel-structure").frame
    fields = [base.fields[0], base.fields[1], base.fields[3], base.fields[2]]
    forged = AdaptedFrame(base.coords, fields, GrowthVector((2, 3, 4)))
    rng = np.random.default_rng(1)
    report = verify_filtration(forged, rng.uniform(-1, 1, (10, 4)))
    assert not report.ok
    assert any(v.layer_i == 1 and v.layer_j == 1 for v in report.violations)


def test_filtration_top_layer_trivial(engel):
    # pairs with i + j >= step always project onto the full tangent space
    rng = np.random.default_rng(2)
    report = verify_filtration(engel.frame, rng.uniform(-1, 1, (5, 4)))
    assert report.ok


def test_filtration_refusal_names_cause_and_sample():
    # sqrt(x) in a frame field is not finite at a sample with x < 0; the
    # refusal is the evaluator's own, with the sample appended
    frame = AdaptedFrame.from_json({
        "coordinates": ["x", "y", "theta"],
        "frame": [
            {"degree": 1, "components": ["cos(theta)", "sin(theta)", "0"]},
            {"degree": 1, "components": ["0", "0", "1"]},
            {"degree": 2, "components": ["sin(theta)", "-cos(theta)", "sqrt(x)"]},
        ],
    })
    with pytest.raises(EvaluationError) as exc:
        verify_filtration(frame, np.array([[0.5, 0.0, 0.0], [-0.25, 0.0, 0.0]]))
    assert str(exc.value) == "domain error in sqrt(-0.25) at grid point (-0.25, 0.0, 0.0)"


def test_carnot_flag_examples(engel, rototrans):
    res = carnot_flag(
        [list(rototrans.frame.fields[0]), list(rototrans.frame.fields[1])],
        rototrans.coords,
        [0.1, 0.2, 0.3],
    )
    assert res.growth == (2, 3) and res.hormander
    res = carnot_flag(
        [list(engel.frame.fields[0]), list(engel.frame.fields[1])],
        engel.coords,
        [0.1, 0.2, 0.3, 0.4],
    )
    assert res.growth == (2, 3, 4) and res.hormander


def test_carnot_flag_stalls_on_integrable_distribution():
    coords = ("x", "y", "z")
    zero = const(0.0)
    one = const(1.0)
    dx = [one, zero, zero]
    dy = [zero, one, zero]
    res = carnot_flag([dx, dy], coords, [0.0, 0.0, 0.0])
    assert res.growth == (2, 2)
    assert not res.hormander


def test_flag_constant_over_samples(engel):
    rng = np.random.default_rng(3)
    horiz = [list(engel.frame.fields[0]), list(engel.frame.fields[1])]
    for p in rng.uniform(-1, 1, (50, 4)):
        assert carnot_flag(horiz, engel.coords, p).growth == (2, 3, 4)


def test_orthonormalize_identity_for_frame_metric(engel):
    U = oracles.matrix_at(engel.ortho_change_exprs, engel.coords, [0.2, -0.1, 0.5, 0.3])
    assert np.allclose(U, np.eye(4))


@pytest.mark.parametrize("name", ["rototrans", "engel-structure", "engel-group"])
def test_frame_orthonormal_is_unit_frame_diagonal(name):
    # the general Gram-Schmidt path folds the unit lengths away: it builds the
    # raw frame, its coframe and the identity change, and every metric DAG is
    # the same interned object as for the explicit unit frame-diagonal metric
    mani = catalog.manifold(name)
    assert mani.metric.kind == "frame-orthonormal"
    unit = mani.with_metric(MetricField.frame_diagonal((1.0,) * mani.n))
    F, C = mani.frame.matrix_exprs, mani.frame.coframe_exprs
    expected = {
        "ortho_change_exprs": eidentity(mani.n),
        "ortho_matrix_exprs": F,
        "ortho_coframe_exprs": C,
        "metric_exprs": emat_mul(etranspose(C), C),
        "metric_inverse_exprs": emat_mul(F, etranspose(F)),
    }

    def same(a, b):
        if isinstance(a, list):
            return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
        return a is b

    for attr in (*expected, "christoffel_exprs"):
        assert same(getattr(mani, attr), getattr(unit, attr)), attr
        if attr in expected:
            assert same(getattr(mani, attr), expected[attr]), attr


def test_orthonormalize_h1xh1_layer_scaling():
    lam = 4.0
    mani = catalog.manifold("h1xh1", lam=lam, mu=1.0)
    p = [0.1, 0.2, 0.3, -0.1, 0.4, 0.0]
    U = oracles.matrix_at(mani.ortho_change_exprs, mani.coords, p)
    # layer-2 field Z is rescaled to Z / sqrt(lam)
    assert U[4, 4] == pytest.approx(1.0 / math.sqrt(lam), rel=1e-12)
    F = oracles.ortho_matrix_at(mani, p)
    G = oracles.metric_at(mani, p)
    assert np.allclose(F.T @ G @ F, np.eye(6), atol=1e-10)


def test_orthonormalize_engel_euclidean_block_triangular():
    mani = catalog.manifold("engel-structure", metric="euclidean")
    p = [0.3, 0.2, 0.4, 0.6]
    U = oracles.matrix_at(mani.ortho_change_exprs, mani.coords, p)
    assert np.allclose(U, np.triu(U), atol=1e-14)  # adapted change stays triangular
    F = oracles.ortho_matrix_at(mani, p)
    assert np.allclose(F.T @ F, np.eye(4), atol=1e-10)
    # oracle: plain Gram-Schmidt of the raw frame columns in order
    raw = oracles.frame_matrix_at(mani.frame, p)
    q = np.zeros_like(raw)
    for j in range(4):
        v = raw[:, j].copy()
        for i in range(j):
            v -= (q[:, i] @ raw[:, j]) * q[:, i]
        q[:, j] = v / np.linalg.norm(v)
    assert np.allclose(F, q, atol=1e-10)


def test_orthonormalized_frame_preserves_filtration():
    mani = catalog.manifold("engel-structure", metric="euclidean")
    ortho_fields = []
    F = mani.ortho_matrix_exprs
    for j in range(4):
        ortho_fields.append(tuple(F[c][j] for c in range(4)))
    frame = AdaptedFrame(mani.coords, ortho_fields, mani.growth)
    rng = np.random.default_rng(4)
    report = verify_filtration(frame, rng.uniform(-0.8, 0.8, (20, 4)))
    assert report.ok


def test_christoffel_constant_metric_vanishes():
    coords = ("x", "y")
    frame = AdaptedFrame(
        coords,
        [(const(1.0), const(0.0)), (const(0.0), const(1.0))],
        GrowthVector((2,)),
    )
    matrix = [
        [parse("2", coords), parse("0.5", coords)],
        [parse("0.5", coords), parse("1", coords)],
    ]
    mani = Manifold(frame, MetricField.coordinate(matrix))
    gamma = oracles.christoffel_at(mani, [0.3, 0.4])
    assert np.allclose(gamma, 0.0)


def test_christoffel_metric_compatibility(engel):
    # finite-difference oracle: d_k <Xi, Xj> = <nabla_k Xi, Xj> + <Xi, nabla_k Xj>
    p = np.array([0.3, 0.2, 0.4, 0.6])
    h = 1e-6
    G = lambda q: oracles.metric_at(engel, q)
    gamma = oracles.christoffel_at(engel, p)
    n = 4
    for k in range(n):
        dp = np.zeros(n)
        dp[k] = h
        dG = (G(p + dp) - G(p - dp)) / (2 * h)
        # compatibility in coordinates: d_k g_ij = Gamma^l_ki g_lj + Gamma^l_kj g_il
        Gp = G(p)
        recon = np.einsum("lki,lj->kij", gamma, Gp)[k] + np.einsum(
            "lkj,il->kij", gamma, Gp
        )[k]
        assert np.allclose(dG, recon, atol=1e-7)


def test_christoffel_torsion_free_via_brackets(engel):
    rng = np.random.default_rng(6)
    for p in rng.uniform(-0.5, 0.5, (3, 4)):
        gamma = oracles.christoffel_at(engel, p)
        assert np.allclose(gamma, gamma.transpose(0, 2, 1), atol=1e-12)
        # coordinate fields commute, so torsion-freeness is the symmetry above;
        # cross-check on frame fields: nabla_X Y - nabla_Y X = [X, Y]
        for a, b in ((0, 1), (0, 2), (1, 3)):
            va = oracles.ortho_matrix_at(engel, p)[:, a]
            dxy = oracles.covariant_derivative_field(engel, va, b, p)
            vb = oracles.ortho_matrix_at(engel, p)[:, b]
            dyx = oracles.covariant_derivative_field(engel, vb, a, p)
            lie = bracket_at(
                [engel.ortho_matrix_exprs[c][a] for c in range(4)],
                [engel.ortho_matrix_exprs[c][b] for c in range(4)],
                engel.coords,
                p,
            )
            assert np.allclose(dxy - dyx, lie, atol=1e-8)


def test_covariant_mvector_flat_frame():
    coords = ("x", "y", "z")
    zero, one = const(0.0), const(1.0)
    frame = AdaptedFrame(
        coords,
        [(one, zero, zero), (zero, one, zero), (zero, zero, one)],
        GrowthVector((3,)),
    )
    mani = Manifold(frame, MetricField.frame_orthonormal())
    out = oracles.cov_derivative_simple_mvector(mani, [1.0, 2.0, 3.0], (1, 2), [0.1, 0.2, 0.3])
    assert out.shape == (3,) and not np.any(out)


def test_covariant_mvector_norm_preservation(engel):
    rng = np.random.default_rng(7)
    for p in rng.uniform(-0.5, 0.5, (3, 4)):
        v = rng.uniform(-1, 1, 4)
        for J in ((1, 2), (3, 4), (1, 4)):
            out = oracles.cov_derivative_simple_mvector(engel, v, J, p)
            # <nabla_v X_J, X_J> = 0 for unit simple m-vectors
            assert abs(out[list(all_multi_indices(4, 2)).index(J)]) <= 1e-10


def test_covariant_mvector_leibniz_oracle(engel):
    p = [0.3, 0.2, 0.4, 0.6]
    v = oracles.ortho_matrix_at(engel, p)[:, 0]  # direction X1
    out = oracles.cov_derivative_simple_mvector(engel, v, (3, 4), p)
    # term-by-term oracle
    d3 = oracles.expand_in_ortho(engel, oracles.covariant_derivative_field(engel, v, 2, p), p)
    d4 = oracles.expand_in_ortho(engel, oracles.covariant_derivative_field(engel, v, 3, p), p)
    cols = np.zeros((4, 2))
    cols[:, 0] = d3
    cols[2, 1] = 0.0
    cols[3, 1] = 1.0
    term1 = minors(cols[None])[0]
    cols2 = np.zeros((4, 2))
    cols2[2, 0] = 1.0
    cols2[:, 1] = d4
    term2 = minors(cols2[None])[0]
    assert out == pytest.approx(term1 + term2, abs=1e-10)


def test_manifold_json_roundtrip():
    spec = {
        "coordinates": ["x", "y", "theta"],
        "frame": [
            {"degree": 1, "components": ["cos(theta)", "sin(theta)", "0"]},
            {"degree": 1, "components": ["0", "0", "1"]},
            {"degree": 2, "components": ["sin(theta)", "-cos(theta)", "0"]},
        ],
        "metric": "frame-orthonormal",
    }
    frame = AdaptedFrame.from_json(spec)
    assert frame.growth.dims == (2, 3)
    ref = catalog.manifold("rototrans")
    p = [0.4, -0.2, 0.7]
    assert np.allclose(oracles.frame_matrix_at(frame, p), oracles.frame_matrix_at(ref.frame, p))
    del spec["frame"][1]["degree"]
    with pytest.raises(ValueError, match="^manifold spec frame entry 1 is missing the key 'degree'$"):
        AdaptedFrame.from_json(spec)
