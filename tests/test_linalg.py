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
from metric_union.metric import _BLOCK


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


def test_pairwise_distances_memory_is_bounded():
    pts = stream(1, "test.pairwise_memory").normal(size=(300, 300))
    tracemalloc.start()
    try:
        pairwise_distances(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20   # a one-shot difference tensor is 216 MB
