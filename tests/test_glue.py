"""Gluing along a pairing: quotient metric and common-target extension."""

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

import metric_union.glue as glue
from metric_union import (InputError, ZeroOffDiagonal, distortion_of,
                          external_extend, glue_instance, glued_metric,
                          metric, pairwise_distances, sample_glue_instance,
                          stream, validate_metric)
from metric_union.acceptance import _Context


def _oracle_quotient(G):
    """Shortest paths on the explicit union graph: complete within each
    side, zero-weight edges across matched pairs, merged rows dropped.
    Built as a sparse matrix with stored zeros so the pairing edges
    survive (dense zeros mean "no edge" to scipy)."""
    from scipy.sparse import coo_matrix
    U, V = G.u_points.points, G.v_points.points
    nu, nv = U.shape[0], V.shape[0]
    rows, cols, data = [], [], []

    def add_block(D, roff, coff):
        i, j = np.nonzero(np.triu(np.ones_like(D), k=1))
        rows.extend(i + roff)
        cols.extend(j + coff)
        data.extend(D[i, j])

    add_block(cdist(U, U), 0, 0)
    add_block(cdist(V, V), nu, nu)
    rows.extend(G.a_idx)
    cols.extend(nu + G.pairing)
    data.extend(np.zeros(G.a_idx.size))
    W = coo_matrix((data, (rows, cols)), shape=(nu + nv, nu + nv)).tocsr()
    D = dijkstra(W, directed=False)
    keep = np.concatenate([np.arange(nu),
                           nu + np.setdiff1d(np.arange(nv), G.pairing)])
    return D[np.ix_(keep, keep)]


def test_full_identification_recovers_one_side():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
    G = glue_instance(pts, pts, [0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3])
    assert G.d_f == 1.0 and G.v_scale == 1.0
    X, P = glued_metric(G)
    assert X.n == 4
    np.testing.assert_allclose(X.dist, cdist(pts, pts), atol=1e-12)
    np.testing.assert_array_equal(P.idx_a, P.idx_b)


def test_two_intervals_share_one_point():
    G = glue_instance([[0.0], [1.0]], [[0.0], [1.0]], [0], [0], [0])
    X, _ = glued_metric(G)
    assert X.n == 3
    # the two far endpoints connect only through the shared origin
    assert X.dist[1, 2] == pytest.approx(2.0, abs=1e-12)
    assert X.labels == (("u", 0), ("u", 1), ("v", 1))


def test_within_v_detour_through_u():
    # the pairing stretches unevenly (never contracts), so the walk
    # through U' undercuts the direct V' distance between two unmatched
    # points sitting near opposite pairing points
    U = [[0.0], [1.0], [2.0]]
    V = [[0.0], [1.0], [4.0], [1.1], [3.9]]
    G = glue_instance(U, V, [0, 1, 2], [0, 1, 2], [0, 1, 2])
    assert G.d_f == 3.0 and G.v_scale == 1.0
    X, _ = glued_metric(G)
    np.testing.assert_allclose(X.dist, _oracle_quotient(G), atol=1e-12)
    i, j = X.labels.index(("v", 3)), X.labels.index(("v", 4))
    # 0.1 to the near pairing point, 1 through U', 0.1 back out
    assert X.dist[i, j] == pytest.approx(1.2, abs=1e-12)
    assert X.dist[i, j] < 2.8


def test_order_reversing_line_map():
    G = glue_instance([[0.0], [1.0], [2.0]], [[0.0], [2.0], [1.0]],
                      [0, 1, 2], [0, 1, 2], [0, 1, 2])
    assert G.d_f == 4.0
    assert G.v_scale == 2.0
    # stored coordinates carry the rescale
    np.testing.assert_array_equal(G.v_points.points,
                                  [[0.0], [4.0], [2.0]])
    X, _ = glued_metric(G)
    assert X.n == 3
    np.testing.assert_allclose(X.dist, _oracle_quotient(G), atol=1e-12)


def test_singleton_pairing_is_isometry():
    G = glue_instance([[0.0, 0.0], [5.0, 0.0]], [[7.0], [9.0]],
                      [1], [0], [0])
    assert G.d_f == 1.0 and G.v_scale == 1.0
    X, _ = glued_metric(G)
    assert X.n == 3


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_quotient_matches_graph_oracle(seed):
    G = sample_glue_instance(4, 5, 6, 2, 3, seed=seed)
    X, P = glued_metric(G)
    assert X.n == 9 + 10 - 4
    np.testing.assert_allclose(X.dist, _oracle_quotient(G),
                               atol=1e-9 * max(1.0, X.diameter))
    assert P.idx_a.size == 9 and P.idx_b.size == 10


@pytest.mark.parametrize("seed", [0, 5])
def test_external_extension_certificates(seed):
    G = sample_glue_instance(5, 4, 4, 2, 2, seed=seed)
    ext = external_extend(G)
    assert ext.bound == 9.0 * G.d_f + 2.0
    assert ext.distortion_f1 <= ext.bound + 1e-6
    assert ext.distortion_f2 <= ext.bound + 1e-6
    # matched rows land on bitwise-identical images
    np.testing.assert_array_equal(ext.f1.points[G.a_idx],
                                  ext.f2.points[G.pairing])
    # f2 never contracts the stored V' geometry
    dv = cdist(G.v_points.points, G.v_points.points)
    di = cdist(ext.f2.points, ext.f2.points)
    iu, jv = np.triu_indices(dv.shape[0], k=1)
    assert (di[iu, jv] / dv[iu, jv]).min() >= 1.0 - 1e-9


def test_extension_deterministic():
    G = sample_glue_instance(4, 3, 3, 2, 2, seed=9)
    a, b = external_extend(G), external_extend(G)
    np.testing.assert_array_equal(a.f1.points, b.f1.points)
    np.testing.assert_array_equal(a.f2.points, b.f2.points)


def test_malformed_pairings_rejected():
    U = [[0.0], [1.0], [2.0]]
    V = [[0.0], [1.5], [3.0]]
    with pytest.raises(InputError):
        glue_instance(U, V, [0, 1], [0, 1], [0, 0])      # repeated entry
    with pytest.raises(InputError):
        glue_instance(U, V, [0, 1], [0, 1], [0, 5])      # out of range
    with pytest.raises(InputError):
        glue_instance(U, V, [0, 1, 2], [0, 1], [0, 1])   # length mismatch
    with pytest.raises(InputError):
        glue_instance(U, V, [0, 1], [0, 1], [1, 2])      # not onto b_idx
    with pytest.raises(InputError):
        glue_instance(U, V, [], [], [])                  # empty pairing
    with pytest.raises(InputError):
        glue_instance([[0.0], [0.0], [1.0]], V,
                      [0, 1], [0, 1], [0, 1])            # coincident pair


def test_glue_rejects_bad_point_arrays():
    with pytest.raises(InputError):
        glue_instance(np.zeros((0, 2)), [[0.0]], [0], [0], [0])
    with pytest.raises(InputError):
        glue_instance([0.0, 1.0], [[0.0]], [0], [0], [0])   # 1-d array


def test_external_extend_measures_each_cloud_once(kernel_calls):
    # U' and V' once each, then only what embed_union cannot re-index
    # (psi's placed rows, the extension's final gate, psi_Delta); f1 and
    # f2 re-index full's matrix: 11 and 8 calls when the sides and f2
    # were measured again, 7 and 4 when f1 was
    for sizes, most in (((40, 40, 40, 3, 4), 6), ((12, 10, 9, 2, 3), 3)):
        G = sample_glue_instance(*sizes, seed=4, wobble=0.2)
        kernel_calls.clear()
        external_extend(G)
        assert 0 < len(kernel_calls) <= most


def test_build_glued_keeps_v_matrix():
    G = sample_glue_instance(12, 10, 9, 2, 3, seed=4, wobble=0.2)
    X, P, phi_a, phi_b, vv_direct, v_global = glue._build_glued(G)
    assert np.array_equal(vv_direct, pairwise_distances(G.v_points.points))
    # the sides embed_union gets carry their matrices, in partition order
    assert np.array_equal(pairwise_distances(phi_a),
                          pairwise_distances(G.u_points.points))
    assert np.array_equal(phi_b.points,
                          G.v_points.points[np.argsort(v_global)])
    assert phi_b.sq_dist is not None
    assert G.u_points.sq_dist is None and G.v_points.sq_dist is None


def _scan_f2(G, ext):
    """f2's certificates as a triu scan of freshly measured matrices."""
    dv = pairwise_distances(G.v_points.points)
    dimg = pairwise_distances(ext.f2.points)
    iu, jv = np.triu_indices(dv.shape[0], k=1)
    ratios = dimg[iu, jv] / dv[iu, jv]
    lo, hi = int(np.argmin(ratios)), int(np.argmax(ratios))
    d2 = float(ratios[hi]) * max(float(1.0 / ratios.min()), 1.0)
    return (1.0 - float(ratios[lo]), (int(iu[lo]), int(jv[lo])),
            d2, (int(iu[hi]), int(jv[hi])))


def _certified(ext):
    """(witness, measured) of each glue certificate, by entry name."""
    return {e.name: (e.witness, e.measured) for e in ext.audit}


@pytest.mark.parametrize("seed", [0, 1, 4, 7])
def test_f2_certificates_match_the_pairwise_scan(seed):
    G = sample_glue_instance(8, 6, 7, 2, 3, seed=seed, wobble=0.3)
    ext = external_extend(G)
    certified = _certified(ext)
    shortfall, lo_pair, d2, hi_pair = _scan_f2(G, ext)
    assert ext.distortion_f2 == d2
    assert certified["glue.extension_bound_f2"] == (hi_pair, d2)
    witness, measured = certified["glue.f2_noncontracting"]
    assert witness == lo_pair
    # 1 - 1/contraction against 1 - min ratio: they differ only by the
    # rounding of the two reciprocals
    assert abs(measured - shortfall) <= 2 * np.spacing(max(1.0,
                                                           1.0 - shortfall))


def _ulps(a, b):
    """|a - b| in units of b's relative rounding."""
    return abs(a - b) / (np.finfo(float).eps * abs(b))


@pytest.mark.parametrize("seed", [0, 1, 4, 7])
def test_f1_certificate_matches_measuring_f1(seed):
    # f1's report re-indexes full's matrix, a sum of its summands', so it
    # rounds within a few ulps of measuring f1 again; its witness may move
    # between pairs that tie within rounding, but attains the maximum
    G = sample_glue_instance(8, 6, 7, 2, 3, seed=seed, wobble=0.3)
    ext = external_extend(G)
    X, P = glued_metric(G)
    again = distortion_of(X, ext.f1.points, subset=P.idx_a)
    assert _ulps(ext.distortion_f1, again.distortion) <= 8
    witness, measured = _certified(ext)["glue.extension_bound_f1"]
    assert measured == ext.distortion_f1
    i, j = witness
    fresh = pairwise_distances(ext.f1.points[[i, j]])[0, 1] / X.dist[i, j]
    assert _ulps(fresh, again.expansion) <= 8


def test_f2_certificates_with_one_v_row():
    G = glue_instance([[0.0, 0.0], [5.0, 0.0]], [[7.0]], [1], [0], [0])
    ext = external_extend(G)
    assert ext.distortion_f2 == 1.0
    assert _certified(ext)["glue.extension_bound_f2"] == (None, 1.0)


def _drawn_glue_instances():
    """Every glue instance the glue and instance tests draw, selftest's 20
    at seed 0 and the glue workload's 40 at seed 0 (its recipe in
    bench/workloads.py)."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
    out = [glue_instance(pts, pts, [0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3]),
           glue_instance([[0.0], [1.0]], [[0.0], [1.0]], [0], [0], [0]),
           glue_instance([[0.0], [1.0], [2.0]],
                         [[0.0], [1.0], [4.0], [1.1], [3.9]],
                         [0, 1, 2], [0, 1, 2], [0, 1, 2]),
           glue_instance([[0.0, 0.0], [5.0, 0.0]], [[7.0], [9.0]],
                         [1], [0], [0]),
           glue_instance([[0.0, 0.0], [5.0, 0.0]], [[7.0]], [1], [0], [0])]
    out += [sample_glue_instance(4, 5, 6, 2, 3, seed=s) for s in range(4)]
    out += [sample_glue_instance(5, 4, 4, 2, 2, seed=s) for s in (0, 5)]
    out += [sample_glue_instance(8, 6, 7, 2, 3, seed=s, wobble=0.3)
            for s in (0, 1, 4, 7)]
    out += [sample_glue_instance(4, 3, 3, 2, 2, seed=9),
            sample_glue_instance(12, 10, 9, 2, 3, seed=4, wobble=0.2),
            sample_glue_instance(40, 40, 40, 3, 4, seed=4, wobble=0.2),
            sample_glue_instance(5, 7, 4, 2, 3, seed=6),
            sample_glue_instance(6, 2, 2, 3, 5, seed=7, wobble=0.0)]
    out += _Context(seed=0).glue
    for k in range(40):
        rng = stream(0, "bench.glue", k)
        out.append(sample_glue_instance(
            int(rng.integers(40, 121)), int(rng.integers(40, 121)),
            int(rng.integers(40, 121)), int(rng.integers(2, 6)),
            int(rng.integers(2, 6)), seed=k,
            wobble=float(rng.uniform(0.0, 0.5))))
    return out


def test_glued_spaces_pass_full_validation(monkeypatch):
    # the quotient is a metric by construction and is built without the
    # triangle scan; the full validation finds nothing to refuse in it
    screens = []
    check = metric._check_triangles

    def counted(D, *args):
        screens.append(D.shape)
        return check(D, *args)

    monkeypatch.setattr(metric, "_check_triangles", counted)
    drawn = _drawn_glue_instances()
    assert len(drawn) == 80
    for G in drawn:
        X, _ = glued_metric(G)
        assert not screens
        assert not X.dist.flags.writeable
        assert np.array_equal(X.dist, validate_metric(
            np.array(X.dist), labels=X.labels).dist)
        screens.clear()


@pytest.mark.parametrize("u, v, witness", [
    ([[0.0], [1.0], [2.0], [2.0]], [[0.0], [1.0]], (2, 3)),
    ([[0.0], [1.0], [2.0]], [[0.0], [1.0], [3.0], [3.0]], (3, 4)),
])
def test_coinciding_points_still_refused(u, v, witness):
    # the axiom checks still run on the quotient: an unmatched duplicate
    # point is a zero off the diagonal, witnessed as before
    G = glue_instance(u, v, [0, 1], [0, 1], [0, 1])
    for build in (glued_metric, external_extend):
        with pytest.raises(ZeroOffDiagonal) as err:
            build(G)
        assert (err.value.i, err.value.j) == witness
        assert err.value.total == 1


def _rowwise_min_plus(a, b):
    """min_k (a[i, k] + b[k, j]), one row of a at a time."""
    return np.array([(row[:, None] + b).min(axis=0) for row in a]
                    ).reshape(a.shape[0], b.shape[1])


def _all_rows_quotient(G):
    """The quotient's matrix by routing every V' row, as it was built
    before only the kept rows were: the kept rows are read out at the
    end."""
    nu = G.u_points.m
    keep_v = np.setdiff1d(np.arange(G.v_points.m), G.pairing)
    uu = pairwise_distances(G.u_points.points)
    vv_direct = pairwise_distances(G.v_points.points)
    ua = uu[:, G.a_idx]
    bp = vv_direct[:, G.pairing]
    aa = uu[np.ix_(G.a_idx, G.a_idx)]
    cross = _rowwise_min_plus(ua, bp.T)
    routed = _rowwise_min_plus(_rowwise_min_plus(bp, aa), bp.T)
    vv = np.minimum(vv_direct, np.minimum(routed, routed.T))
    D = np.zeros((nu + keep_v.size,) * 2)
    D[:nu, :nu] = uu
    D[:nu, nu:] = cross[:, keep_v]
    D[nu:, :nu] = cross[:, keep_v].T
    D[nu:, nu:] = vv[np.ix_(keep_v, keep_v)]
    return D


def test_kept_rows_quotient_is_the_all_rows_one():
    for G in _drawn_glue_instances():
        X = glue._build_glued(G)[0]
        assert np.array_equal(X.dist, _all_rows_quotient(G))


def test_quotient_routes_only_kept_v_rows(monkeypatch):
    # each product's result has rows and columns for U' points, kept V'
    # points and pairing points only, never for a merged V' row
    shapes = []
    kernel = glue._min_plus

    def recorded(a, b):
        shapes.append((a.shape[0], b.shape[1]))
        return kernel(a, b)

    monkeypatch.setattr(glue, "_min_plus", recorded)
    for G in _drawn_glue_instances():
        nu, m = G.u_points.m, G.n_pairs
        kept = G.v_points.m - m
        shapes.clear()
        glue._build_glued(G)
        assert sorted(shapes) == sorted([(nu, kept), (kept, m),
                                         (kept, kept)])
