"""Gluing along a pairing: quotient metric and common-target extension."""

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

import metric_union.glue as glue
from metric_union import (InputError, external_extend, glue_instance,
                          glued_metric, pairwise_distances,
                          sample_glue_instance)


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
    # (psi's placed rows, the extension's final gate, full) and f1's
    # report: 11 and 8 calls when the sides and f2 were measured again
    for sizes, most in (((40, 40, 40, 3, 4), 7), ((12, 10, 9, 2, 3), 4)):
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


@pytest.fixture()
def certified(monkeypatch):
    """(witness, measured) of each glue certificate checked in the test."""
    checked = {}
    certify = glue._certify

    def record(name, witness, measured, bound):
        checked[name] = (witness, measured)
        return certify(name, witness, measured, bound)

    monkeypatch.setattr(glue, "_certify", record)
    return checked


@pytest.mark.parametrize("seed", [0, 1, 4, 7])
def test_f2_certificates_match_the_pairwise_scan(seed, certified):
    G = sample_glue_instance(8, 6, 7, 2, 3, seed=seed, wobble=0.3)
    ext = external_extend(G)
    shortfall, lo_pair, d2, hi_pair = _scan_f2(G, ext)
    assert ext.distortion_f2 == d2
    assert certified["glue.extension_bound_f2"] == (hi_pair, d2)
    witness, measured = certified["glue.f2_noncontracting"]
    assert witness == lo_pair
    # 1 - 1/contraction against 1 - min ratio: they differ only by the
    # rounding of the two reciprocals
    assert abs(measured - shortfall) <= 2 * np.spacing(max(1.0,
                                                           1.0 - shortfall))


def test_f2_certificates_with_one_v_row(certified):
    G = glue_instance([[0.0, 0.0], [5.0, 0.0]], [[7.0]], [1], [0], [0])
    ext = external_extend(G)
    assert ext.distortion_f2 == 1.0
    assert certified["glue.extension_bound_f2"] == (None, 1.0)
