"""Point clouds, checked eigensystems, MDS realizations, and the distance
kernel."""

import math
import subprocess
import sys
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
from metric_union.linalg import _measured
from metric_union.metric import (_TILE, _min_plus,
                                 _squared_distances)


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


@pytest.mark.parametrize("mds", [mds_isometric_embed, mds_best_effort])
def test_mds_of_one_point_carries_its_matrix(mds):
    cloud = mds(validate_metric([[0.0]]))
    assert cloud.points.shape == (1, 0)
    assert np.array_equal(cloud.sq_dist, [[0.0]])
    assert not cloud.sq_dist.flags.writeable


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


def test_direct_sum_carries_a_matrix_only_when_every_summand_does():
    rng = stream(0, "test.direct_sum")
    a, b = (PointCloud(rng.normal(size=(6, dim))) for dim in (2, 3))
    ma, mb = _measured(a), _measured(b)
    for clouds in ([a, b], [ma, b], [a, mb], [ma, mb, a]):
        assert direct_sum(clouds).sq_dist is None
    s = direct_sum([ma, mb])
    assert np.array_equal(s.sq_dist, ma.sq_dist + mb.sq_dist)
    assert not s.sq_dist.flags.writeable
    np.testing.assert_allclose(pairwise_distances(s),
                               pairwise_distances(s.points), rtol=1e-14)


def test_convergence_error_is_exported():
    assert issubclass(ConvergenceError, Exception)


def _one_shot(p, q):
    p, q = np.ascontiguousarray(p), np.ascontiguousarray(q)
    diff = p[:, None, :] - q[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _tiles(p, q=None):
    """(row tiles, column tiles) that the kernel takes for p against q."""
    (n, _), (m, dim) = p.shape, (p if q is None else q).shape
    cols = min(max(1, math.isqrt(_TILE // max(dim, 1))), max(m, 1))
    rows = cols if q is None else max(1, _TILE // (cols * max(dim, 1)))
    if q is not None and 0 < n < rows:
        cols = min(max(1, _TILE // (n * max(dim, 1))), max(m, 1))
    return -(-n // rows), -(-m // cols)


def test_pairwise_distances_independent_of_row_blocks():
    rng = stream(0, "test.pairwise_blocks")
    sq = rng.normal(size=(200, 100))
    p, q = rng.normal(size=(300, 120)), rng.normal(size=(90, 120))
    for a, b in ((sq, None), (p, q)):
        assert min(_tiles(a, b)) >= 3   # three or more tiles each way
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
        assert np.array_equal(pairwise_distances(cloud.take(i).points),
                              D[np.ix_(i, i)])


def test_pairwise_distances_across_tiles():
    # every shape spans three or more row and column tiles, most with a
    # ragged last tile; 8000 coordinates take two-by-two tiles, and the
    # cross pair's corner tile is one row by one column
    rng = stream(0, "test.pairwise_tiles")

    def draw(m, dim):   # rows with magnitudes from 1e-3 to 1e3
        return rng.normal(size=(m, dim)) * 10.0 ** rng.uniform(
            -3.0, 3.0, size=(m, 1))

    big = draw(260, 120)
    selfs = [draw(100, 37), draw(61, 267), draw(600, 1), draw(30, 1500),
             draw(9, 8000), np.asfortranarray(draw(70, 40)),
             big[::2, 1::3], big[::-2, ::2]]
    crosses = [(draw(70, 37), draw(100, 37)), (draw(200, 267), draw(40, 267)),
               (draw(5, 8000), draw(7, 8000)),
               (np.asfortranarray(draw(90, 20)), big[1::2, ::6]),
               (big[::3, ::-4], np.asfortranarray(draw(150, 30)))]
    for p in selfs:
        assert min(_tiles(p)) >= 3
        D = pairwise_distances(p)
        assert np.array_equal(D, _one_shot(p, p))
        assert np.array_equal(D, D.T)
        assert not np.diagonal(D).any()
    for p, q in crosses:
        assert min(_tiles(p, q)) >= 3
        R = pairwise_distances(p, q)
        assert R.shape == (p.shape[0], q.shape[0])
        assert np.array_equal(R, _one_shot(p, q))


def test_narrow_cross_calls_fill_the_tile_with_columns():
    # p with fewer rows than one tile sizes its column tiles from the
    # whole budget: 40 x 4 against 300 x 4 takes 2 column tiles, not 4
    rng = stream(0, "test.pairwise_narrow")
    assert _tiles(np.ones((40, 4)), np.ones((300, 4))) == (1, 2)
    for n, m, dim in ((40, 300, 4), (5, 170, 3), (1, 900, 2), (3, 50, 267),
                      (1, 7, 8000), (2, 2000, 1), (90, 400, 4)):
        p, q = rng.normal(size=(n, dim)), rng.normal(size=(m, dim))
        R = pairwise_distances(p, q)
        assert np.array_equal(R, _one_shot(p, q))
        assert np.array_equal(R, pairwise_distances(np.vstack((p, q)))[:n, n:])


@pytest.mark.parametrize("p_shape,q_shape", [
    ((0, 3), None), ((0, 3), (4, 3)), ((4, 3), (0, 3)), ((0, 0), None),
    ((5, 0), None), ((5, 0), (3, 0)), ((1, 4), None), ((1, 4), (1, 4)),
    ((1, 4), (6, 4)), ((6, 4), (1, 4)),
])
def test_pairwise_distances_of_degenerate_shapes(p_shape, q_shape):
    # one row against itself, or no coordinates, measures zeros; no rows
    # on either side leaves no tile to run, and the result still exists
    p = np.ones(p_shape)
    q = None if q_shape is None else np.ones(q_shape)
    shape = (p_shape[0], (p_shape if q is None else q_shape)[0])
    for out in (_squared_distances(p, q), pairwise_distances(p, q)):
        assert isinstance(out, np.ndarray)
        assert out.shape == shape
        assert not out.any()


def test_pairwise_distances_memory_is_bounded():
    # (512, 267): the spectral leg's best-effort cloud at n = 256
    rng = stream(1, "test.pairwise_memory")
    for shape in ((300, 300), (512, 267)):
        pts = rng.normal(size=shape)
        tracemalloc.start()
        try:
            pairwise_distances(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result, tile = shape[0] ** 2 * 8, _TILE * 8
        # the result and one tile, with room for the next tile's
        # difference and numpy's own temporaries; a one-shot difference
        # tensor is 216 or 560 MB
        assert peak < 2 * (result + tile)


_BLAS_PROBE = """
import hashlib
from metric_union import pairwise_distances, stream
rng = stream(0, "test.pairwise_blas")
p, q = rng.normal(size=(512, 267)), rng.normal(size=(40, 267))
print(hashlib.sha256(pairwise_distances(p).tobytes()
                     + pairwise_distances(p, q).tobytes()).hexdigest())
"""


def test_pairwise_distances_independent_of_blas_threads(src_env):
    # the kernel sums each entry itself; a BLAS Gram form would make its
    # bits depend on the thread count
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], capture_output=True,
            text=True, check=True,
            env=dict(src_env, OPENBLAS_NUM_THREADS=threads))
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def _one_shot_min_plus(a, b):
    return (a[:, :, None] + b[None]).min(axis=1)


def _min_plus_bands(a, b):
    """Row bands that ``_min_plus`` takes for a @ b."""
    budget = min(_TILE, max(_TILE // 4, a.shape[0] * b.shape[1] // 2))
    return -(-a.shape[0] // max(1, budget // max(b.shape[1], 1)))


def test_min_plus_independent_of_blocks():
    rng = stream(0, "test.min_plus_blocks")
    sq = rng.uniform(0.0, 10.0, size=(160, 160))
    p, q = rng.uniform(size=(700, 50)), rng.uniform(size=(90, 50))
    tall = rng.normal(size=(1100, 3)), rng.normal(size=(3, 1000))
    wide = rng.normal(size=(3, 40)), rng.normal(size=(40, 30000))
    cases = [(sq, sq), (p, q.T), tall, wide]  # q.T: a transposed view
    bands = [_min_plus_bands(a, b) for a, b in cases]
    assert min(bands) >= 2 and bands[2:] == [35, 3]   # tall and wide
    assert 2 * wide[1].shape[1] > _TILE               # one row per band
    cases += [(rng.normal(size=(1, 1)), rng.normal(size=(1, 1))),
              (rng.normal(size=(5, 1)), rng.normal(size=(1, 7)))]
    for a, b in cases:
        M = _min_plus(a, b)
        assert M.shape == (a.shape[0], b.shape[1])
        assert np.array_equal(M, _one_shot_min_plus(a, b))


def test_min_plus_with_no_columns_is_empty():
    a = stream(0, "test.min_plus_empty").uniform(size=(3, 3))
    assert _min_plus(a, np.zeros((3, 0))).shape == (3, 0)


def test_min_plus_over_no_shared_index_is_inf():
    M = _min_plus(np.zeros((3, 0)), np.zeros((0, 4)))
    assert M.shape == (3, 4)
    assert np.all(M == np.inf)


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
