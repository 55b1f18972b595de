"""Seeded test-instance generators and the shortest-path closure."""

import numpy as np
import pytest
from scipy.sparse.csgraph import floyd_warshall

from metric_union import (InputError, ZeroOffDiagonal, distortion_of,
                          distort_sides, metric, pairwise_distances,
                          sample_glue_instance, shortest_path_closure, stream,
                          union_instance, validate_metric)
from metric_union.instances import _drawn


def test_closure_matches_scipy():
    rng = stream(1, "test.closure")
    for _ in range(5):
        n = int(rng.integers(3, 15))
        w = rng.uniform(0.5, 3.0, size=(n, n))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        ours = shortest_path_closure(w)
        ref = floyd_warshall(w, directed=False)
        np.testing.assert_allclose(ours, ref, atol=1e-12)


def _sized(size_seed, stream_name, k, hi, seed):
    rng = stream(size_seed, stream_name, k)
    return (int(rng.integers(10, hi)), int(rng.integers(10, hi)),
            int(rng.integers(2, 9)), int(rng.integers(2, 9)), seed, 0)


def _recipes():
    """(n_a, n_b, dim_a, dim_b, seed, overlap) of every ``union_instance``
    call in the package, its demos, tests and bench at seeds 0 and 3, plus
    overlap edge cases."""
    out = []
    for s in (0, 3):
        out += [_sized(s, "acceptance.sizes", k, 61, s + k)
                for k in range(50)]                  # selftest battery
        out += [_sized(0, "acceptance.sizes", k, 61, s + k)
                for k in range(50)]                  # bench battery
        out += [_sized(s, "acceptance.distorted", k, 41, s + 500 + k)
                for k in range(20)]
        out += [(14, 17, 3, 4, s + 77, 0), (12, 14, 3, 3, s + 7, 0)]
    out.append((300, 300, 4, 4, 0, 0))               # bench large, seed 0
    out += [(8 + 3 * k, 6 + 2 * k, 2 + k % 4, 2 + k % 3, 100 + k, k % 4)
            for k in range(20)]                      # test_audit_parity
    out += [(20, 16, 3, 4, 7, 0),                    # embed_walkthrough
            (8, 7, 2, 3, 31, 0), (7, 6, 2, 2, 32, 0), (8, 9, 2, 3, 33, 0),
            (30, 25, 3, 4, 1, 0), (12, 10, 2, 3, 9, 4), (18, 22, 2, 2, 5, 0),
            (15, 15, 2, 2, 6, 0), (30, 25, 3, 3, 8, 0), (12, 10, 3, 4, 21, 0),
            (10, 9, 2, 3, 22, 4), (14, 12, 3, 3, 23, 0), (10, 10, 2, 2, 24, 0),
            (14, 11, 3, 5, 2, 0), (10, 12, 2, 2, 3, 0), (9, 8, 2, 4, 4, 3),
            (8, 9, 2, 3, 11, 0), (8, 9, 2, 3, 12, 0), (12, 10, 3, 3, 5, 0)]
    out += [(25, 20, 3, 2, s, 0) for s in range(4)]  # test_cover
    out += [(1, 1, 2, 2, 0, 0), (1, 6, 3, 2, 1, 0), (6, 1, 3, 2, 1, 1),
            (1, 7, 2, 2, 4, 1)]                      # one-point sides
    out += [(1, 1, 2, 2, 0, 1), (6, 6, 3, 3, 2, 6), (6, 4, 3, 3, 2, 4),
            (4, 6, 2, 5, 3, 4)]                      # full overlap
    return sorted(set(out))


def test_one_crossing_closure_equals_floyd_warshall():
    differ = []
    for n_a, n_b, dim_a, dim_b, seed, overlap in _recipes():
        w = _drawn(n_a, n_b, dim_a, dim_b, seed, overlap)[0]
        X = union_instance(n_a, n_b, dim_a, dim_b, seed=seed,
                           overlap=overlap).space
        if not np.array_equal(X.dist, shortest_path_closure(w)):
            differ.append((n_a, n_b, dim_a, dim_b, seed, overlap))
    assert differ == []


def test_union_instances_pass_full_validation(monkeypatch):
    # the closure is a metric by construction and is built without the
    # triangle scan; the full validation finds nothing to refuse in it
    screens = []
    check = metric._check_triangles

    def counted(D, *args):
        screens.append(D.shape)
        return check(D, *args)

    monkeypatch.setattr(metric, "_check_triangles", counted)
    for n_a, n_b, dim_a, dim_b, seed, overlap in _recipes():
        X = union_instance(n_a, n_b, dim_a, dim_b, seed=seed,
                           overlap=overlap).space
        assert not screens
        assert not X.dist.flags.writeable
        assert np.array_equal(X.dist, validate_metric(np.array(X.dist)).dist)
        screens.clear()


def test_coinciding_drawn_points_still_refused():
    # zero-dimensional A points all coincide: the axiom checks still run
    with pytest.raises(ZeroOffDiagonal) as err:
        union_instance(5, 5, 0, 2, seed=0)
    assert (err.value.i, err.value.j) == (0, 1)


def test_one_crossing_closure_keeps_sides_as_drawn():
    # on a one-dimensional side, Floyd-Warshall's sums along collinear
    # points can come out an ulp below the drawn distance; the one-crossing
    # closure keeps every side block equal to its coordinates' distances
    inst = union_instance(11, 8, 1, 3, seed=679181)
    X, P = inst.space, inst.partition
    assert np.array_equal(X.sub(P.idx_a), pairwise_distances(inst.phi_a))
    assert np.array_equal(X.sub(P.idx_b), pairwise_distances(inst.phi_b))
    ref = shortest_path_closure(_drawn(11, 8, 1, 3, 679181, 0)[0])
    assert np.all(ref <= X.dist)
    np.testing.assert_allclose(X.dist, ref, rtol=1e-15)


def test_union_instance_sides_are_exact():
    inst = union_instance(14, 11, 3, 5, seed=2)
    X, P = inst.space, inst.partition
    assert X.n == 25
    # the coordinates realize each side of the metric exactly
    np.testing.assert_allclose(
        pairwise_distances(inst.phi_a), X.sub(P.idx_a), atol=1e-12)
    np.testing.assert_allclose(
        pairwise_distances(inst.phi_b), X.sub(P.idx_b), atol=1e-12)
    assert distortion_of(X, inst.phi_a, subset=P.idx_a).distortion \
        == pytest.approx(1.0, abs=1e-9)


def test_union_instance_cross_distances_dominate():
    # cross weights are drawn at side-diameter scale and cannot shorten
    # within-side paths
    inst = union_instance(10, 12, 2, 2, seed=3)
    X, P = inst.space, inst.partition
    only_a = np.setdiff1d(P.idx_a, P.idx_b)
    only_b = np.setdiff1d(P.idx_b, P.idx_a)
    cross = X.dist[np.ix_(only_a, only_b)]
    side_max = max(X.sub(P.idx_a).max(), X.sub(P.idx_b).max())
    assert cross.min() >= side_max - 1e-12


def test_union_instance_overlap_points_coincide():
    inst = union_instance(9, 8, 2, 4, seed=4, overlap=3)
    P = inst.partition
    np.testing.assert_array_equal(P.overlap, [0, 1, 2])
    assert inst.space.n == 9 + 8 - 3
    pos_b = {int(v): k for k, v in enumerate(P.idx_b)}
    for k in range(3):
        # a shared point sits at distance zero from the other side
        assert P.r_a[k] == 0.0
        assert P.r_b[pos_b[k]] == 0.0


def test_union_instance_validation():
    with pytest.raises(InputError):
        union_instance(0, 5, 2, 2, seed=0)
    with pytest.raises(InputError):
        union_instance(5, 5, 2, 2, seed=0, overlap=6)


def test_union_instance_deterministic():
    a = union_instance(8, 9, 2, 3, seed=11)
    b = union_instance(8, 9, 2, 3, seed=11)
    np.testing.assert_array_equal(a.space.dist, b.space.dist)
    np.testing.assert_array_equal(a.phi_b.points, b.phi_b.points)
    c = union_instance(8, 9, 2, 3, seed=12)
    assert not np.array_equal(a.space.dist, c.space.dist)


def test_distort_sides_bounds_measured_distortion():
    inst = union_instance(12, 10, 3, 3, seed=5)
    for da, db in [(1.5, 3.0), (2.0, 2.0)]:
        scaled = distort_sides(inst, da, db)
        rep_a = distortion_of(scaled.space, scaled.phi_a,
                              subset=scaled.partition.idx_a)
        rep_b = distortion_of(scaled.space, scaled.phi_b,
                              subset=scaled.partition.idx_b)
        # stretching one coordinate never contracts and stays below the
        # nominal factor
        assert rep_a.contraction <= 1.0 + 1e-9
        assert rep_a.expansion <= da * (1.0 + 1e-9)
        assert rep_b.expansion <= db * (1.0 + 1e-9)
        assert rep_a.distortion <= da * (1.0 + 1e-9)
    with pytest.raises(InputError):
        distort_sides(inst, 0.9, 2.0)


def test_sample_glue_instance_shapes_and_normalization():
    G = sample_glue_instance(5, 7, 4, 2, 3, seed=6)
    assert G.u_points.m == 12 and G.v_points.m == 9
    assert G.n_pairs == 5
    # pairing is a bijection onto b_idx
    np.testing.assert_array_equal(np.sort(G.pairing), G.b_idx)
    assert G.d_f >= 1.0
    # stored coordinates are already normalized: pairing never contracts
    du = pairwise_distances(G.u_points.points[G.a_idx])
    dv = pairwise_distances(G.v_points.points[G.pairing])
    iu, ju = np.triu_indices(5, k=1)
    ratios = dv[iu, ju] / du[iu, ju]
    assert ratios.min() >= 1.0 - 1e-12
    assert ratios.max() <= G.d_f * (1.0 + 1e-12)


def test_sample_glue_instance_zero_wobble_is_isometric():
    G = sample_glue_instance(6, 2, 2, 3, 5, seed=7, wobble=0.0)
    assert G.d_f == pytest.approx(1.0, abs=1e-9)


def test_sample_glue_instance_validation():
    with pytest.raises(InputError):
        sample_glue_instance(0, 1, 1, 2, 2, seed=0)
    with pytest.raises(InputError):
        sample_glue_instance(3, -1, 0, 2, 2, seed=0)
