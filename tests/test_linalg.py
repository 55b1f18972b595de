"""Point clouds, checked eigensystems, MDS realizations, and the distance
kernel."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_union import (ConvergenceError, InputError, LengthMismatchError,
                          NotEuclidean, NotSymmetricError, PointCloud,
                          direct_sum, mds_best_effort, mds_isometric_embed,
                          pairwise_distances, stream, sym_eigen,
                          validate_metric)
from metric_union.metric import _BLOCK, _min_plus


def test_point_cloud_is_immutable_copy():
    raw = np.zeros((3, 2))
    cloud = PointCloud(raw)
    assert not cloud.points.flags.writeable
    raw[0, 0] = 5.0  # caller's array stays writable and detached
    assert cloud.points[0, 0] == 0.0
    assert (cloud.m, cloud.dim) == (3, 2)


def test_point_cloud_take_scaled():
    cloud = PointCloud(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]]))
    np.testing.assert_array_equal(cloud.take([2, 0]).points,
                                  [[3.0, 3.0], [1.0, 0.0]])
    np.testing.assert_array_equal(cloud.scaled(2.0).points[1], [0.0, 4.0])


def test_point_cloud_rejects_bad_shapes():
    with pytest.raises(InputError):
        PointCloud(np.zeros(3))
    with pytest.raises(InputError):
        PointCloud(np.array([[np.nan, 0.0]]))


def test_sym_eigen_descending_and_reconstructs():
    rng = stream(2, "test.eigen")
    B = rng.normal(size=(6, 6))
    A = B + B.T
    eig = sym_eigen(A)
    assert np.all(np.diff(eig.values) <= 0)
    np.testing.assert_allclose(
        eig.vectors @ np.diag(eig.values) @ eig.vectors.T, A, atol=1e-12)


def test_sym_eigen_known_spectrum():
    # 2x2 with analytic eigenvalues 3 and 1
    eig = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(eig.values, [3.0, 1.0], atol=1e-14)


def test_sym_eigen_rejects_asymmetry():
    with pytest.raises(NotSymmetricError):
        sym_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(InputError):
        sym_eigen(np.zeros((2, 3)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 10), st.integers(1, 4))
def test_mds_recovers_euclidean_metrics(seed, n, dim):
    pts = stream(seed, "test.mds").normal(size=(n, dim))
    X = validate_metric(pairwise_distances(pts), tol=1e-9)
    cloud = mds_isometric_embed(X)
    np.testing.assert_allclose(pairwise_distances(cloud), X.dist,
                               atol=1e-9 * max(1.0, X.diameter))
    assert cloud.dim <= n - 1


def test_mds_exact_on_regular_simplex():
    # all pairwise distances equal: realizable in n-1 dimensions, exactly
    n = 7
    D = np.full((n, n), 2.0)
    np.fill_diagonal(D, 0.0)
    cloud = mds_isometric_embed(validate_metric(D))
    assert cloud.dim == n - 1
    np.testing.assert_allclose(pairwise_distances(cloud), D, atol=1e-12)


def test_mds_rejects_star_metric():
    # center at distance 1 from three leaves, leaves mutually at 2: the
    # leaves force an equilateral triangle of circumradius 2/sqrt(3) > 1,
    # so no Euclidean realization exists in any dimension
    D = np.array([[0.0, 1.0, 1.0, 1.0],
                  [1.0, 0.0, 2.0, 2.0],
                  [1.0, 2.0, 0.0, 2.0],
                  [1.0, 2.0, 2.0, 0.0]])
    X = validate_metric(D)
    with pytest.raises(NotEuclidean) as ei:
        mds_isometric_embed(X)
    assert ei.value.min_eigenvalue < 0

    cloud = mds_best_effort(X)  # clipped version still yields points
    assert cloud.m == 4
    rep_dist = pairwise_distances(cloud)
    assert np.abs(rep_dist - D).max() > 1e-3  # lossy, as expected


def test_direct_sum_pythagoras():
    a = PointCloud(np.array([[0.0], [3.0]]))
    b = PointCloud(np.array([[0.0], [4.0]]))
    s = direct_sum([a, b])
    assert s.dim == 2
    assert pairwise_distances(s)[0, 1] == pytest.approx(5.0)
    with pytest.raises(LengthMismatchError):
        direct_sum([a, PointCloud(np.zeros((3, 1)))])
    with pytest.raises(InputError):
        direct_sum([])


def test_convergence_error_is_exported():
    assert issubclass(ConvergenceError, Exception)


def _one_shot(p, q):
    diff = p[:, None, :] - q[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def test_pairwise_distances_independent_of_row_blocks():
    rng = stream(0, "test.pairwise_blocks")
    sq = rng.normal(size=(200, 100))
    p, q = rng.normal(size=(300, 120)), rng.normal(size=(90, 120))
    for a, b in ((sq, sq), (p, q)):
        assert a.shape[0] >= 3 * (_BLOCK // b.size)   # three or more blocks
    D = pairwise_distances(sq)
    assert np.array_equal(D, _one_shot(sq, sq))
    assert np.array_equal(D, D.T)
    assert not np.diagonal(D).any()
    R = pairwise_distances(p, q)
    assert R.shape == (300, 90)
    assert np.array_equal(R, _one_shot(p, q))
    assert np.array_equal(pairwise_distances(PointCloud(sq)), D)
    assert np.array_equal(pairwise_distances(PointCloud(p), PointCloud(q)), R)


def test_pairwise_distances_independent_of_memory_layout():
    rng = stream(0, "test.pairwise_layout")
    for shape in ((64, 63), (256, 255), (100, 7), (50, 3)):
        p = rng.normal(size=shape)
        D = pairwise_distances(p)
        assert np.array_equal(pairwise_distances(np.asfortranarray(p)), D)
        q = rng.normal(size=(9, shape[1]))
        assert np.array_equal(
            pairwise_distances(np.asfortranarray(p), np.asfortranarray(q)),
            pairwise_distances(p, q))


def test_pairwise_distances_of_rows_reindex_the_full_matrix():
    # an MDS cloud is Fortran-ordered and its take() copies are C-ordered;
    # an entry must not depend on either, nor on which other rows are there
    X = validate_metric(pairwise_distances(
        stream(2, "test.pairwise_take").normal(size=(60, 40))))
    cloud = mds_isometric_embed(X)
    assert not cloud.points.flags.c_contiguous
    D = pairwise_distances(cloud)
    rng = stream(3, "test.pairwise_take")
    for _ in range(10):
        i = rng.integers(0, cloud.m, size=int(rng.integers(2, cloud.m)))
        assert np.array_equal(pairwise_distances(cloud.take(i)),
                              D[np.ix_(i, i)])


def test_pairwise_distances_memory_is_bounded():
    pts = stream(1, "test.pairwise_memory").normal(size=(300, 300))
    tracemalloc.start()
    try:
        pairwise_distances(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20   # a one-shot difference tensor is 216 MB


def _one_shot_min_plus(a, b):
    return (a[:, :, None] + b[None]).min(axis=1)


def _min_plus_blocks(a, b):
    """(row blocks, k blocks) that ``_min_plus`` takes for a @ b."""
    cols = b.shape[1]
    budget = min(_BLOCK, a.shape[0] * cols)
    ks = min(b.shape[0], max(1, budget // cols))
    rows = max(1, budget // (ks * cols))
    return -(-a.shape[0] // rows), -(-b.shape[0] // ks)


def test_min_plus_independent_of_blocks():
    rng = stream(0, "test.min_plus_blocks")
    sq = rng.uniform(0.0, 10.0, size=(160, 160))
    p, q = rng.uniform(size=(700, 50)), rng.uniform(size=(90, 50))
    tall = rng.normal(size=(1100, 3)), rng.normal(size=(3, 1000))
    wide = rng.normal(size=(3, 40)), rng.normal(size=(40, 30000))
    cases = [(sq, sq), (p, q.T), tall, wide]  # q.T: a transposed view
    for a, b in cases:
        assert _min_plus_blocks(a, b)[0] >= 3
    assert tall[0].shape[0] * tall[1].shape[1] > _BLOCK  # capped by _BLOCK
    assert _min_plus_blocks(*wide)[1] >= 3               # splits k too
    cases += [(rng.normal(size=(1, 1)), rng.normal(size=(1, 1))),
              (rng.normal(size=(5, 1)), rng.normal(size=(1, 7)))]
    for a, b in cases:
        M = _min_plus(a, b)
        assert M.shape == (a.shape[0], b.shape[1])
        assert np.array_equal(M, _one_shot_min_plus(a, b))


def test_min_plus_memory_is_bounded():
    # the quotient blocks of the largest seed-0 glue benchmark instance:
    # 159 U' points, 231 V' points, 113 pairs
    rng = stream(1, "test.min_plus_memory")
    ua = rng.uniform(size=(159, 113))
    bp = rng.uniform(size=(231, 113))
    aa = rng.uniform(size=(113, 113))
    tracemalloc.start()
    try:
        _min_plus(ua, bp.T)
        half = _min_plus(bp, aa)
        _min_plus(half, bp.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20   # one-shot sum tensors are 33 to 48 MB

    D = rng.uniform(size=(120, 120))
    tracemalloc.start()
    try:
        _min_plus(D, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * D.nbytes  # a small square takes no 8 MB block
