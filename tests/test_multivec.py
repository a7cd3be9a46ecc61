"""Multi-index combinatorics, the minors kernel and dense m-vector rows."""

import math

import numpy as np
import pytest

from gradedgeo.multivec import (
    DEGREE_EPS,
    GrowthVector,
    all_multi_indices,
    d_max,
    degree_of_index,
    dim_gt,
    dim_leq,
    compound,
    index_degrees,
    max_degrees,
    minors,
)

ENGEL = GrowthVector((2, 3, 4))
H1H1 = GrowthVector((4, 6))


def row(n, terms):
    """Dense 2-vector row in ``all_multi_indices(n, 2)`` order from {J: coefficient}."""
    return np.array([terms.get(J, 0.0) for J in all_multi_indices(n, 2)])


def degree(values, weights, eps=DEGREE_EPS):
    """Degree of one dense 2-vector row by the grid rule on a batch of one."""
    return int(max_degrees(values[None], index_degrees(len(weights), 2, weights), eps)[0])


def position(n, m, J):
    """Column of the multi-index J in a dense row."""
    return list(all_multi_indices(n, m)).index(J)


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
    # the homogeneous dimension is the sum of the weights
    assert sum(ENGEL.weights()) == 7
    assert sum(H1H1.weights()) == 8
    assert sum(GrowthVector((2, 3)).weights()) == 4
    assert ENGEL.layer_of(3) == 2 and ENGEL.layer_of(4) == 3
    with pytest.raises(ValueError):
        GrowthVector((3, 3))


def test_mvector_degree_h1h1_tangent():
    # frame order (X, Y, X', Y', Z, Z'); tangent 2-vector of the product
    # surface: X ^ Y' + u_s (Z ^ Y' + Z' ^ Y')
    w = H1H1.weights()
    for u_s in (0.7, -0.2):
        assert degree(row(6, {(1, 4): 1.0, (4, 5): -u_s, (4, 6): -u_s}), w) == 3
    assert degree(row(6, {(1, 4): 1.0}), w) == 2
    assert degree(row(4, {(3, 4): 1.0}), ENGEL.weights()) == 5


def test_degree_threshold_is_relative():
    w = ENGEL.weights()
    noisy = row(4, {(1, 2): 1.0, (3, 4): 1e-12})
    assert degree(noisy, w) == 2
    assert degree(noisy, w, eps=0.0) == 5


def test_projections():
    # the degree-d part of a row is the row masked by index_degrees == d
    w = H1H1.weights()
    degs = index_degrees(6, 2, w)
    u_s = 0.4
    x = row(6, {(1, 4): 1.0, (4, 5): u_s, (4, 6): u_s})
    assert (x * (degs == 3)).tolist() == row(6, {(4, 5): u_s, (4, 6): u_s}).tolist()
    assert (x * (degs == 2)).tolist() == row(6, {(1, 4): 1.0}).tolist()
    assert not np.any(row(6, {}) * (degs == 3))
    # reassembly: eq-parts over all degrees recover the original
    total = np.zeros_like(x)
    for d in range(2, 7):
        total = total + x * (degs == d)
    assert total.tolist() == x.tolist()


def test_project_gt():
    w = ENGEL.weights()
    degs = index_degrees(4, 2, w)
    x = row(4, {(1, 2): 0.3, (1, 4): 1.0, (3, 4): 0.0})
    assert not np.any(x * (degs > 4))
    assert (x * (degs > 1)).tolist() == row(4, {(1, 2): 0.3, (1, 4): 1.0}).tolist()
    assert not np.any(x * (degs > d_max(2, w)))


def test_d_max():
    assert d_max(2, ENGEL.weights()) == 5
    assert d_max(4, ENGEL.weights()) == 7  # the homogeneous dimension
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


def test_minors_units():
    cols = np.zeros((4, 2))
    cols[0, 0] = 1.0
    cols[3, 1] = 1.0
    x = minors(cols[None])[0]
    assert x.tolist() == row(4, {(1, 4): 1.0}).tolist()
    swapped = minors(cols[None, :, ::-1])[0]
    assert swapped.tolist() == (-x).tolist()


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
        x = minors(cols[None])[0]
        assert x[position(4, 2, (1, 2))] == pytest.approx(
            math.cos(th) * kapy - math.sin(th) * kapx, abs=1e-12
        )
        assert x[position(4, 2, (1, 3))] == pytest.approx(
            -(math.cos(th) * thy - math.sin(th) * thx), abs=1e-12
        )
        assert x[position(4, 2, (1, 4))] == pytest.approx(1.0, abs=1e-12)
        assert x[position(4, 2, (2, 3))] == pytest.approx(
            thx * kapy
            - thy * kapx
            - kap * (math.cos(th) * kapy - math.sin(th) * kapx),
            abs=1e-12,
        )
        assert x[position(4, 2, (2, 4))] == pytest.approx(
            math.sin(th) * kapy + math.cos(th) * kapx, abs=1e-12
        )
        assert x[position(4, 2, (3, 4))] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n,m", [(4, 1), (4, 2), (6, 2), (5, 3), (6, 3)])
def test_minors_kernel_matches_pointwise_wedge(n, m):
    rng = np.random.default_rng(11)
    tau = rng.uniform(-1, 1, (7, n, m))
    batch = minors(tau)
    assert batch.shape == (7, math.comb(n, m))
    for p in range(7):
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


def _gather_minors(tau):
    """The earlier kernel for m <= 2, kept as the bit-for-bit reference.

    It gathers a (C, m, m, N) copy of the points-last rows with the
    multi-index rows, then takes the entry or ad - bc.
    """
    tau = np.asarray(tau, dtype=float)
    _, n, m = tau.shape
    rows = np.array(list(all_multi_indices(n, m))) - 1
    sub = np.ascontiguousarray(np.moveaxis(tau, 0, -1))[rows]
    if m == 1:
        return sub[:, 0, 0].T
    return (sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]).T


@pytest.mark.parametrize("N", [1, 33 * 33])
@pytest.mark.parametrize("n,m", [(2, 1), (4, 1), (2, 2), (4, 2), (6, 2)])
def test_minors_matches_gather_kernel_bit_for_bit(n, m, N):
    rng = np.random.default_rng(n * 10 + m)
    points_last = rng.uniform(-2, 2, (n, m, N))
    points_last[:, :, ::5] = np.round(points_last[:, :, ::5])  # exact zeros and cancellations
    if N > 1:
        points_last[0, 0, 1] = np.inf
        points_last[n - 1, m - 1, 2] = np.nan
    grid_view = points_last.transpose(2, 0, 1)  # how the tangent grids hand tau over
    for tau in (grid_view, np.ascontiguousarray(grid_view)):
        with np.errstate(invalid="ignore"):  # inf * 0
            got, want = minors(tau), _gather_minors(tau)
        assert got.shape == (N, math.comb(n, m))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,m", [(3, 1), (4, 2), (6, 2)])
def test_compound_matches_gather_kernel_bit_for_bit(n, m):
    D = np.random.default_rng(n + m).uniform(-1, 1, (n, n))
    cols = np.array(list(all_multi_indices(n, m))) - 1
    want = _gather_minors(np.moveaxis(D[:, cols], 1, 0)).T
    assert compound(D, m).tobytes() == want.tobytes()


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
    # loop reference: the largest degree of an index whose |coefficient|
    # exceeds DEGREE_EPS times the row's largest |coefficient|
    rng = np.random.default_rng(12)
    w = ENGEL.weights()
    tau = rng.uniform(-1, 1, (20, 4, 2))
    tau[:10, 2:, :] = 0.0  # horizontal tangent planes: degree 2
    values = minors(tau)
    got = max_degrees(values, index_degrees(4, 2, w), DEGREE_EPS)
    expect = []
    for x in values:
        cut = DEGREE_EPS * np.abs(x).max()
        expect.append(
            max(degree_of_index(J, w) for J, c in zip(all_multi_indices(4, 2), x) if abs(c) > cut)
        )
    assert got.tolist() == expect
    assert set(got[:10].tolist()) == {2}


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
        x_new = minors(cols_new[None])[0]
        # same geometric 2-vector expressed in the original frame
        x_old = minors((D @ cols_new)[None])[0]
        assert degree(x_new, w) == degree(x_old, w)
