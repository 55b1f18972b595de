"""Greedy covers of one side: witness property, separation, nearest map."""

import numpy as np
import pytest

from metric_union import (CertificateViolation, CoverResult, InputError,
                          build_cover, build_partition, f_lip_bound,
                          pairwise_distances, union_instance, validate_metric,
                          verify_cover)


def test_f_lip_bound_values():
    assert f_lip_bound(0.5) == 6.0
    assert f_lip_bound(1.0) == 4.0


def test_alpha_range_enforced():
    X = validate_metric([[0, 1], [1, 0]])
    P = build_partition(X, [0], [1])
    for alpha in (0.0, -0.5, 1.5):
        with pytest.raises(InputError):
            build_cover(X, P, alpha)


def test_greedy_cover_hand_case():
    # A = three points on a line at 0, 0.4, 5; B = single point at 10.
    # R = (10, 9.6, 5); greedy starts at the smallest R (the point at 5,
    # ball radius 2.5 covers nothing else), then 0.4 covers 0 (within
    # alpha * 9.6 = 4.8), so the cover is {5, 0.4}.
    coords = np.array([[0.0], [0.4], [5.0], [10.0]])
    X = validate_metric(pairwise_distances(coords))
    P = build_partition(X, [0, 1, 2], [3])
    C = build_cover(X, P, 0.5)
    np.testing.assert_array_equal(C.cover_idx, [1, 2])
    np.testing.assert_array_equal(C.nearest, [3, 3])
    assert C.lip_f <= C.lip_bound


def test_whole_side_when_separation_large():
    # mutual distances far above alpha * R: nothing gets retired
    coords = np.array([[0.0], [10.0], [20.0], [21.0]])
    X = validate_metric(pairwise_distances(coords))
    P = build_partition(X, [0, 1, 2], [3])
    C = build_cover(X, P, 0.3)
    np.testing.assert_array_equal(C.cover_idx, [0, 1, 2])


def test_overlap_points_map_to_themselves():
    inst = union_instance(12, 10, 2, 3, seed=9, overlap=4)
    C = build_cover(inst.space, inst.partition, 0.5)
    overlap = set(inst.partition.overlap.tolist())
    for c, f_c in zip(C.cover_idx, C.nearest):
        if int(c) in overlap:
            assert int(f_c) == int(c)
            assert inst.space.dist[c, f_c] == 0.0


def _independent_property_check(X, P, C):
    """Recheck both cover properties with plain loops (no shared code)."""
    ia = list(map(int, P.idx_a))
    r = {int(a): float(P.r_a[k]) for k, a in enumerate(P.idx_a)}
    cov = list(map(int, C.cover_idx))
    for a in ia:
        assert any(r[c] <= r[a] and X.dist[a, c] <= C.alpha * r[a]
                   for c in cov), f"no witness for {a}"
    for i, u in enumerate(cov):
        for v in cov[i + 1:]:
            assert X.dist[u, v] >= C.alpha * min(r[u], r[v]) - 1e-15


@pytest.mark.parametrize("seed,alpha", [(0, 0.5), (1, 0.3114), (2, 1.0),
                                        (3, 0.05)])
def test_cover_properties_random(seed, alpha):
    inst = union_instance(25, 20, 3, 2, seed=seed)
    for P in (inst.partition, inst.partition.swapped()):
        C = build_cover(inst.space, P, alpha)
        lip = verify_cover(inst.space, P, C)[-1].measured
        _independent_property_check(inst.space, P, C)
        assert lip <= f_lip_bound(alpha) * (1.0 + 1e-9)
        assert lip == C.lip_f


def test_nearest_realizes_distance_to_b_exactly():
    inst = union_instance(18, 22, 2, 2, seed=5)
    P = inst.partition
    C = build_cover(inst.space, P, 0.5)
    pos = {int(a): k for k, a in enumerate(P.idx_a)}
    for c, f_c in zip(C.cover_idx, C.nearest):
        assert inst.space.dist[c, f_c] == P.r_a[pos[int(c)]]  # bitwise


def test_verify_cover_catches_tampering():
    inst = union_instance(15, 15, 2, 2, seed=6)
    P = inst.partition
    C = build_cover(inst.space, P, 0.5)
    # drop a cover point: some a loses its witness
    if C.cover_idx.size > 1:
        broken = CoverResult(alpha=C.alpha, cover_idx=C.cover_idx[1:],
                             nearest=C.nearest[1:], lip_f=C.lip_f,
                             lip_bound=C.lip_bound)
        with pytest.raises(CertificateViolation):
            verify_cover(inst.space, P, broken)
    # corrupt the nearest map: realization check must fire
    wrong = np.array(C.nearest)
    far = int(P.idx_b[np.argmax(inst.space.dist[C.cover_idx[0], P.idx_b])])
    wrong[0] = far
    broken = CoverResult(alpha=C.alpha, cover_idx=C.cover_idx,
                         nearest=wrong, lip_f=C.lip_f, lip_bound=C.lip_bound)
    with pytest.raises(CertificateViolation) as ei:
        verify_cover(inst.space, P, broken)
    assert "nearest" in ei.value.name


def test_alpha_one_cover_is_sparsest():
    # larger alpha retires more points, so covers shrink monotonically
    inst = union_instance(30, 25, 3, 3, seed=8)
    sizes = [build_cover(inst.space, inst.partition, a).cover_idx.size
             for a in (0.1, 0.5, 1.0)]
    assert sizes[0] >= sizes[1] >= sizes[2]


@pytest.mark.parametrize("cover", [[17], [10], [0, 10], [-1]])
def test_verify_cover_names_a_cover_point_outside_side_a(cover):
    # a cover point outside side A ended in a bare KeyError
    inst = union_instance(10, 8, 2, 2, seed=0)
    with pytest.raises(InputError, match="outside side A"):
        verify_cover(inst.space, inst.partition,
                     CoverResult(0.5, cover, cover, 0.0, 6.0))


def test_verify_cover_takes_index_lists():
    # lists (and integral floats) give the entries arrays give; a bad
    # nearest list is an InputError, not an AttributeError or IndexError
    inst = union_instance(10, 8, 2, 2, seed=0)
    X, P = inst.space, inst.partition
    C = build_cover(X, P, 0.5)
    entries = verify_cover(X, P, C)
    for cov, near in ((C.cover_idx.tolist(), C.nearest.tolist()),
                      (C.cover_idx.astype(float), list(C.nearest))):
        got = verify_cover(X, P, CoverResult(0.5, cov, near, 0.0, 6.0))
        assert [e.measured for e in got] == [e.measured for e in entries]
    for near in ([99] * C.nearest.size, [-1] * C.nearest.size,
                 C.nearest[:-1], C.nearest + 0.5):
        with pytest.raises(InputError, match="nearest"):
            verify_cover(X, P, CoverResult(0.5, C.cover_idx, near, 0.0, 6.0))
