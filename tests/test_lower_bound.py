"""Spectral split sampling, delta measurement, and the certified bound."""

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components
from scipy.sparse import csr_matrix

import metric_union.lower_bound as lower_bound
from metric_union import (BipartiteSplit, InputError, RangeViolation,
                          RetryBudgetExceeded, SingularPencil,
                          build_123_metric, certified_lower_bound,
                          choose_n_for_epsilon, distortion_of,
                          mds_best_effort, measure_delta, ratio_check,
                          sample_split, stream, validate_metric)


def _oracle_delta(L, L1, L2):
    """Sandwich parameter via scipy's generalized eigensolver, using an
    independently constructed basis of the ones-complement."""
    Q = scipy.linalg.null_space(np.ones((1, L.shape[0])))
    M = Q.T @ (L / 2.0) @ Q
    out = []
    for Li in (L1, L2):
        K = Q.T @ Li @ Q
        mu = scipy.linalg.eigh(M, K, eigvals_only=True)
        out.append(max(mu[-1] - 1.0, 1.0 / mu[0] - 1.0))
    return max(out)


def _raw_masks(n, seed, count):
    """First ``count`` biadjacency masks whose both edge classes are
    connected, judged by scipy."""
    masks, k = [], 0
    while len(masks) < count:
        rng = stream(seed, "test.rawmask", k)
        k += 1
        mask = rng.random((n, n)) < 0.5
        ok = True
        for m in (mask, ~mask):
            bi = np.zeros((2 * n, 2 * n))
            bi[:n, n:] = m
            bi[n:, :n] = m.T
            ncomp, _ = connected_components(csr_matrix(bi), directed=False)
            ok = ok and ncomp == 1
        if ok:
            masks.append(mask)
    return masks


def _mask_laplacians(mask):
    """L, L1 and L2 of K_{n,n} and its two edge classes, each as degree
    minus adjacency over the 2n vertices."""
    n = mask.shape[0]
    out = []
    for m in (np.ones_like(mask), mask, ~mask):
        adj = np.zeros((2 * n, 2 * n))
        adj[:n, n:] = m
        adj[n:, :n] = m.T
        out.append(np.diag(adj.sum(axis=1)) - adj)
    return tuple(out)


def test_measure_delta_matches_generalized_eig_oracle():
    masks = [m for n in (8, 32) for m in _raw_masks(n, seed=4, count=4)]
    # and one mask the library samples itself
    for mask in masks + [sample_split(64, seed=1).mask]:
        L, L1, L2 = _mask_laplacians(mask)
        ours = measure_delta(mask)
        assert ours == pytest.approx(_oracle_delta(L, L1, L2), abs=1e-9)


def test_measure_delta_disconnected_class_is_singular():
    # an isolated vertex in e1 is a full row or column of e2, and the
    # complementary mask swaps the roles
    for n in (8, 16, 32):
        for k, mask in enumerate(_raw_masks(n, seed=5, count=6)):
            if k % 2:
                mask[k % n, :] = False
            else:
                mask[:, k % n] = False
            for m, which in ((mask, "e1"), (~mask, "e2")):
                with pytest.raises(SingularPencil) as info:
                    measure_delta(m)
                assert info.value.which == which
    with pytest.raises(InputError):
        measure_delta(np.ones((3, 4), dtype=bool))


def test_sample_split_certificate_recomputes():
    split = sample_split(64, seed=2)
    assert split.attempts >= 1
    mask = split.mask
    assert split.delta_star == measure_delta(mask) + 1e-9
    assert certified_lower_bound(split) == 3.0 / (1.0 + split.delta_star) ** 2


# a hand mask of K_{4,4} whose two edge classes are both 8-cycles
_RING_MASK = np.array([[1, 1, 0, 0], [0, 1, 1, 0],
                       [0, 0, 1, 1], [1, 0, 0, 1]], dtype=bool)


def test_split_measures_its_own_delta():
    masks = [sample_split(n, seed).mask for n, seed in ((32, 0), (64, 5))]
    for mask in masks + [_RING_MASK]:
        given = np.array(mask)
        split = BipartiteSplit(given, 1)
        assert split.delta_star == measure_delta(mask) + 1e-9
        assert split.n == mask.shape[0]
        np.testing.assert_array_equal(split.mask, mask)
        assert not split.mask.flags.writeable and given.flags.writeable
    with pytest.raises(TypeError):
        BipartiteSplit(_RING_MASK, 1, delta_star=0.1)
    with pytest.raises(AttributeError):
        split.delta_star = 0.1


def test_split_rejects_masks_without_a_certificate():
    hand = _RING_MASK
    for bad in (hand.astype(np.float64), hand[:, :3], hand.ravel(),
                np.zeros((0, 0), dtype=bool)):
        with pytest.raises(InputError):
            BipartiteSplit(bad, 1)
    # a vertex with no e1 edge, and one with no e2 edge
    for mask, which in ((hand & [[0], [1], [1], [1]], "e1"),
                        (hand | [[1], [0], [0], [0]], "e2")):
        with pytest.raises(SingularPencil) as info:
            BipartiteSplit(mask.astype(bool), 1)
        assert info.value.which == which


def test_sample_split_measures_each_attempt_once(monkeypatch):
    # the traced bench counts lower_bound.measure_delta by this name
    calls = []
    inner = lower_bound.measure_delta

    def counting(mask):
        calls.append(mask.shape)
        return inner(mask)

    monkeypatch.setattr(lower_bound, "measure_delta", counting)
    for n, seed in ((64, 0), (64, 1), (64, 2), (32, 3)):
        calls.clear()
        split = sample_split(n, seed)
        assert len(calls) == split.attempts
    assert split.attempts > 1
    calls.clear()
    with pytest.raises(RetryBudgetExceeded) as info:
        sample_split(16, seed=0)
    assert len(calls) == info.value.attempts == 64


def test_sample_split_small_n_exhausts_budget():
    with pytest.raises(RetryBudgetExceeded) as info:
        sample_split(16, seed=0)
    assert info.value.attempts == 64
    with pytest.raises(InputError):
        sample_split(3, seed=0)
    for seed in (-1, 2 ** 64):   # outside every stream's seed range
        with pytest.raises(InputError):
            sample_split(64, seed)


def test_raw_delta_shrinks_with_n():
    meds = []
    for n in (16, 64):
        vals = []
        for mask in _raw_masks(n, seed=6, count=3):
            vals.append(measure_delta(mask))
        meds.append(sorted(vals)[1])
    assert meds[1] < meds[0]


def test_123_metric_structure():
    split = sample_split(64, seed=3)
    X, P = build_123_metric(split)
    assert X.n == 128
    n = split.n
    side_a, side_b = X.dist[:n, :n], X.dist[n:, n:]
    off = ~np.eye(n, dtype=bool)
    assert np.all(side_a[off] == 2.0) and np.all(side_b[off] == 2.0)
    cross = X.dist[:n, n:]
    assert set(np.unique(cross)) == {1.0, 3.0}
    assert np.all(cross[split.mask] == 1.0)
    assert np.all(cross[~split.mask] == 3.0)
    np.testing.assert_array_equal(X.dist[n:, :n], cross.T)
    np.testing.assert_array_equal(P.idx_a, np.arange(n))
    np.testing.assert_array_equal(P.idx_b, np.arange(n, 2 * n))


def test_123_structure_check_matches_full_validation(monkeypatch):
    full_scans = []
    validate = lower_bound.validate_metric

    def counted(D):
        full_scans.append(D.shape)
        return validate(D)

    monkeypatch.setattr(lower_bound, "validate_metric", counted)
    built = 0
    for n in (4, 8, 16, 32):
        for seed in range(5):
            mask = stream(seed, "test.123_mask", n).random((n, n)) < 0.5
            try:
                split = BipartiteSplit(mask, 1)
            except SingularPencil:
                continue   # a class is disconnected: no split, no bound
            X, _ = build_123_metric(split)
            assert not full_scans
            assert np.array_equal(X.dist, validate(np.array(X.dist)).dist)
            assert not X.dist.flags.writeable
            assert X.labels == tuple(range(2 * n))
            built += 1
    assert built == 18   # two n = 4 masks disconnect a class


def test_best_effort_embedding_respects_bound():
    split = sample_split(64, seed=4)
    X, _ = build_123_metric(split)
    img = mds_best_effort(X)
    rep = distortion_of(X, img)
    assert rep.distortion >= certified_lower_bound(split) - 1e-9
    r1, r2 = ratio_check(split, img)
    lo, hi = (1 + split.delta_star) ** -2, (1 + split.delta_star) ** 2
    assert lo <= r1 <= hi and lo <= r2 <= hi


def test_ratio_check_rejects_malformed_images():
    split = sample_split(64, seed=4)
    with pytest.raises(InputError):
        ratio_check(split, np.zeros((5, 2)))         # wrong row count
    with pytest.raises(InputError):
        ratio_check(split, np.zeros((2 * split.n, 3)))   # all coincide


def test_ratio_check_flags_impossible_images(monkeypatch):
    # a measured delta* bounds every image's ratios, so a violation can
    # only be injected: a window shut to 1 leaves the MDS image's e1 pairs
    # (distance 1, so short) with a ratio far below it
    split = sample_split(64, seed=4)
    X, _ = build_123_metric(split)
    img = mds_best_effort(X)
    monkeypatch.setattr(lower_bound, "_ratio_window", lambda d: (1.0, 1.0))
    with pytest.raises(RangeViolation) as info:
        ratio_check(split, img)
    assert info.value.which == "e1"
    assert info.value.measured < info.value.lo


def test_choose_n_validation(monkeypatch):
    with pytest.raises(InputError):
        choose_n_for_epsilon(0.0, seed=0)
    with pytest.raises(InputError):
        choose_n_for_epsilon(1.0, seed=0)
    # a cap of 32 keeps the unreachable case fast: 16 and 32 are tried
    monkeypatch.setattr(lower_bound, "_N_CAP", 32)
    with pytest.raises(RetryBudgetExceeded) as info:
        choose_n_for_epsilon(0.01, seed=0)
    assert "n <= 32" in str(info.value)


def test_choose_n_meets_loose_target(monkeypatch):
    monkeypatch.setattr(lower_bound, "_SAMPLES", 3)
    n, med, split = choose_n_for_epsilon(0.95, seed=7)
    assert n <= 512
    assert 3.0 / (1.0 + med) ** 2 >= 3.0 - 0.95
    # the returned split is the first sample, sample_split(n, seed)
    first = sample_split(n, seed=7)
    np.testing.assert_array_equal(split.mask, first.mask)
    assert (split.delta_star, split.attempts) == (first.delta_star,
                                                  first.attempts)


def test_split_deterministic():
    a = sample_split(64, seed=9)
    b = sample_split(64, seed=9)
    np.testing.assert_array_equal(a.mask, b.mask)
    assert a.delta_star == b.delta_star
    assert a.attempts == b.attempts
    c = sample_split(64, seed=10)
    assert not np.array_equal(a.mask, c.mask)
