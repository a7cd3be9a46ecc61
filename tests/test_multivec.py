"""Multi-index combinatorics and sparse m-vector algebra."""

import itertools
import math

import numpy as np
import pytest

from gradedgeo.multivec import (
    DEGREE_EPS,
    DegenerateInputError,
    GrowthVector,
    MVector,
    all_multi_indices,
    d_max,
    degree_of_index,
    dim_gt,
    dim_leq,
    gram_inner,
    index_degrees,
    max_degrees,
    minors,
    wedge,
    wedge_from_columns,
)

ENGEL = GrowthVector((2, 3, 4))
H1H1 = GrowthVector((4, 6))


def brute_force_dims(growth, m, d):
    w = growth.weights()
    degs = [degree_of_index(J, w) for J in all_multi_indices(growth.n, m)]
    return sum(1 for x in degs if x <= d), sum(1 for x in degs if x > d)


def test_degree_of_index():
    w = ENGEL.weights()
    assert w == (1, 1, 2, 3)
    assert degree_of_index((3, 4), w) == 5
    assert degree_of_index((1, 4), w) == 4
    assert degree_of_index((1, 2), (1, 1, 2)) == 2
    with pytest.raises(ValueError):
        degree_of_index((2, 1), w)
    with pytest.raises(ValueError):
        degree_of_index((1, 9), w)


def test_growth_vector_data():
    assert ENGEL.homogeneous_dimension == 7
    assert H1H1.homogeneous_dimension == 8
    assert GrowthVector((2, 3)).homogeneous_dimension == 4
    assert ENGEL.layer_of(3) == 2 and ENGEL.layer_of(4) == 3
    with pytest.raises(ValueError):
        GrowthVector((3, 3))


def test_mvector_degree_h1h1_tangent():
    # frame order (X, Y, X', Y', Z, Z'); tangent 2-vector of the product
    # surface: X ^ Y' + u_s (Z ^ Y' + Z' ^ Y')
    w = H1H1.weights()
    for u_s in (0.7, -0.2):
        x = MVector(2, {(1, 4): 1.0, (4, 5): -u_s, (4, 6): -u_s})
        assert x.degree(w) == 3
    x0 = MVector(2, {(1, 4): 1.0})
    assert x0.degree(w) == 2
    assert MVector.single((3, 4)).degree(ENGEL.weights()) == 5
    with pytest.raises(DegenerateInputError):
        MVector.zero(2).degree(w)


def test_degree_threshold_is_relative():
    w = ENGEL.weights()
    noisy = MVector(2, {(1, 2): 1.0, (3, 4): 1e-12})
    assert noisy.degree(w) == 2
    assert noisy.degree(w, eps=0.0) == 5


def test_projections():
    w = H1H1.weights()
    u_s = 0.4
    x = MVector(2, {(1, 4): 1.0, (4, 5): u_s, (4, 6): u_s})
    p3 = x.project_degree_eq(3, w)
    assert p3.terms == {(4, 5): u_s, (4, 6): u_s}
    p2 = x.project_degree_eq(2, w)
    assert p2.terms == {(1, 4): 1.0}
    assert MVector.zero(2).project_degree_eq(3, w).is_zero()
    # reassembly: eq-parts over all degrees recover the original
    total = MVector.zero(2)
    for d in range(2, 7):
        total = total.plus(x.project_degree_eq(d, w))
    assert total.terms == x.terms


def test_project_gt():
    w = ENGEL.weights()
    x = MVector(2, {(1, 2): 0.3, (1, 4): 1.0, (3, 4): 0.0})
    assert x.project_degree_gt(4, w).is_zero()
    assert x.project_degree_gt(1, w).terms == {(1, 2): 0.3, (1, 4): 1.0}
    assert x.project_degree_gt(d_max(2, w), w).is_zero()


def test_d_max():
    assert d_max(2, ENGEL.weights()) == 5
    assert d_max(4, ENGEL.weights()) == ENGEL.homogeneous_dimension
    for n_half in (1, 2, 3):
        contact = GrowthVector((2 * n_half, 2 * n_half + 1))
        assert d_max(2 * n_half, contact.weights()) == 2 * n_half + 1


def test_dim_counts_engel():
    assert dim_gt(ENGEL, 2, 3) == 3  # (1,4), (2,4), (3,4)
    assert dim_gt(ENGEL, 2, 4) == 1  # (3,4)
    assert dim_gt(ENGEL, 2, d_max(2, ENGEL.weights())) == 0


def test_dim_counts_match_brute_force():
    for dims in [(2, 3), (2, 3, 4), (4, 6), (1, 3, 5), (3, 4, 6, 8)]:
        g = GrowthVector(dims)
        wmax = sum(g.weights())
        for m in range(1, g.n + 1):
            for d in range(m, wmax + 1):
                leq, gt = brute_force_dims(g, m, d)
                assert dim_leq(g, m, d) == leq
                assert dim_gt(g, m, d) == gt
                assert leq + gt == math.comb(g.n, m)


def test_wedge_from_columns_units():
    cols = np.zeros((4, 2))
    cols[0, 0] = 1.0
    cols[3, 1] = 1.0
    x = wedge_from_columns(cols)
    assert x.terms == {(1, 4): 1.0}
    swapped = wedge_from_columns(cols[:, ::-1])
    for J, c in x.terms.items():
        assert swapped.coefficient(J) == -c


def test_wedge_engel_graph_columns():
    # tangent columns of a ruled (theta, kappa)-graph expanded in the frame;
    # the six wedge coefficients have closed forms, and the ruling condition
    # kills the top-degree one exactly.
    rng = np.random.default_rng(3)
    for _ in range(5):
        th, thx, thy = rng.uniform(-1, 1, 3)
        kap = math.cos(th) * thx + math.sin(th) * thy  # ruling condition
        kapx, kapy = rng.uniform(-1, 1, 2)
        cols = np.array(
            [
                [math.cos(th), math.sin(th)],
                [kapx, kapy],
                [kap * math.cos(th) - thx, kap * math.sin(th) - thy],
                [-math.sin(th), math.cos(th)],
            ]
        )
        x = wedge_from_columns(cols)
        assert x.coefficient((1, 2)) == pytest.approx(
            math.cos(th) * kapy - math.sin(th) * kapx, abs=1e-12
        )
        assert x.coefficient((1, 3)) == pytest.approx(
            -(math.cos(th) * thy - math.sin(th) * thx), abs=1e-12
        )
        assert x.coefficient((1, 4)) == pytest.approx(1.0, abs=1e-12)
        assert x.coefficient((2, 3)) == pytest.approx(
            thx * kapy
            - thy * kapx
            - kap * (math.cos(th) * kapy - math.sin(th) * kapx),
            abs=1e-12,
        )
        assert x.coefficient((2, 4)) == pytest.approx(
            math.sin(th) * kapy + math.cos(th) * kapx, abs=1e-12
        )
        assert x.coefficient((3, 4)) == pytest.approx(0.0, abs=1e-12)


def test_wedge_rejects_rank_deficient():
    cols = np.ones((3, 2))
    with pytest.raises(DegenerateInputError):
        wedge_from_columns(cols)


@pytest.mark.parametrize("n,m", [(4, 1), (4, 2), (6, 2), (5, 3), (6, 3)])
def test_minors_kernel_matches_pointwise_wedge(n, m):
    rng = np.random.default_rng(11)
    tau = rng.uniform(-1, 1, (7, n, m))
    batch = minors(tau)
    assert batch.shape == (7, math.comb(n, m))
    for p in range(7):
        point = wedge(tau[p])
        row = [point.coefficient(J) for J in all_multi_indices(n, m)]
        assert batch[p].tolist() == row
        assert minors(tau[p : p + 1])[0].tolist() == batch[p].tolist()
        # loop reference: the entry, ad - bc, or the determinant of the rows J
        for k, J in enumerate(all_multi_indices(n, m)):
            sub = tau[p, [j - 1 for j in J], :]
            if m == 1:
                ref = sub[0, 0]
            elif m == 2:
                ref = sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
            else:
                ref = np.linalg.det(sub)
            assert batch[p, k] == ref


def test_minors_columns_follow_multi_index_order():
    n, m = 5, 2
    for k, J in enumerate(all_multi_indices(n, m)):
        tau = np.zeros((1, n, m))
        tau[0, J[0] - 1, 0] = 1.0
        tau[0, J[1] - 1, 1] = 1.0
        expect = np.zeros(math.comb(n, m))
        expect[k] = 1.0
        assert minors(tau)[0].tolist() == expect.tolist()
    tau = np.arange(1.0, 5.0).reshape(1, 4, 1)
    assert minors(tau)[0].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_max_degrees_matches_mvector_degree():
    rng = np.random.default_rng(12)
    w = ENGEL.weights()
    tau = rng.uniform(-1, 1, (20, 4, 2))
    tau[:10, 2:, :] = 0.0  # horizontal tangent planes: degree 2
    got = max_degrees(minors(tau), index_degrees(4, 2, w), DEGREE_EPS)
    assert got.tolist() == [wedge(t).degree(w) for t in tau]
    assert set(got[:10].tolist()) == {2}


def test_gram_inner_orthonormal():
    g = np.eye(4)
    a = MVector.single((1, 3))
    b = MVector.single((1, 4))
    assert gram_inner(a, a, g) == 1.0
    assert gram_inner(a, b, g) == 0.0


def test_gram_inner_weighted():
    # <Z ^ Y', Z ^ Y'> with |Z|^2 = lam: 2x2 Gram determinant oracle
    lam, mu = 2.5, 0.7
    g = np.diag([1.0, 1.0, 1.0, 1.0, lam, mu])
    zy = MVector.single((4, 5))
    oracle = np.linalg.det(np.array([[g[3, 3], 0.0], [0.0, g[4, 4]]]))
    assert gram_inner(zy, zy, g) == pytest.approx(oracle, rel=1e-15)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = float(rng.uniform(-2, 2))
        x = MVector(2, {(1, 2): float(rng.uniform(-1, 1)), (4, 5): float(rng.uniform(-1, 1))})
        y = MVector(2, {(1, 2): float(rng.uniform(-1, 1)), (2, 3): float(rng.uniform(-1, 1))})
        assert gram_inner(x.scaled(a), y, g) == pytest.approx(
            a * gram_inner(x, y, g), rel=1e-12, abs=1e-14
        )


def _random_block_triangular(rng, growth):
    """Degree-preserving change: upper block-triangular with invertible blocks."""
    n = growth.n
    D = np.zeros((n, n))
    prev = 0
    for ni in growth.dims:
        size = ni - prev
        while True:
            block = rng.uniform(-1, 1, (size, size))
            if abs(np.linalg.det(block)) > 0.2:
                break
        D[prev:ni, prev:ni] = block
        D[prev:ni, ni:] = rng.uniform(-1, 1, (size, n - ni))
        prev = ni
    return D


@pytest.mark.parametrize("growth", [ENGEL, H1H1, GrowthVector((2, 3))])
def test_degree_invariant_under_adapted_change(growth):
    rng = np.random.default_rng(5)
    w = growth.weights()
    n = growth.n
    for _ in range(10):
        D = _random_block_triangular(rng, growth)
        cols_new = rng.uniform(-1, 1, (n, 2))
        x_new = wedge_from_columns(cols_new)
        # same geometric 2-vector expressed in the original frame
        x_old = wedge_from_columns(D @ cols_new)
        assert x_new.degree(w) == x_old.degree(w)


def test_json_roundtrip():
    x = MVector(2, {(1, 4): 1.0, (3, 4): -0.25})
    back = MVector.from_json(x.to_json())
    assert back.terms == x.terms
    assert back.m == 2
