"""Spectral split sampling, delta measurement, and the certified bound."""

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components
from scipy.sparse import csr_matrix

import metric_union.lower_bound as lower_bound
from metric_union import (DuplicateEdge, InputError, MetricUnionError,
                          RangeViolation, RetryBudgetExceeded, SelfLoop,
                          SingularPencil, build_123_metric,
                          certified_lower_bound, choose_n_for_epsilon,
                          distortion_of, laplacian, mds_best_effort,
                          measure_delta, ratio_check, sample_split,
                          sandwich_margin, stream, validate_metric)


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
    n = mask.shape[0]
    r, c = np.nonzero(mask)
    e1 = np.column_stack([r, c + n])
    r, c = np.nonzero(~mask)
    e2 = np.column_stack([r, c + n])
    L = laplacian(2 * n, np.concatenate([e1, e2]))
    return L, laplacian(2 * n, e1), laplacian(2 * n, e2), e1, e2


def test_laplacian_path_graph():
    L = laplacian(4, [(0, 1), (1, 2), (2, 3)])
    expected = np.array([[1., -1., 0., 0.],
                         [-1., 2., -1., 0.],
                         [0., -1., 2., -1.],
                         [0., 0., -1., 1.]])
    np.testing.assert_array_equal(L, expected)


def test_laplacian_quadratic_form():
    rng = stream(3, "test.lapquad")
    for _ in range(10):
        n = int(rng.integers(3, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.random(len(pairs)) < 0.5
        edges = [p for p, t in zip(pairs, take) if t]
        if not edges:
            continue
        L = laplacian(n, edges)
        x = rng.normal(size=n)
        direct = sum((x[u] - x[v]) ** 2 for u, v in edges)
        assert x @ L @ x == pytest.approx(direct, rel=1e-12)


def test_laplacian_rejects_bad_edges():
    with pytest.raises(SelfLoop):
        laplacian(3, [(0, 1), (2, 2)])
    with pytest.raises(DuplicateEdge):
        laplacian(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        laplacian(3, [(0, 5)])


def test_measure_delta_matches_generalized_eig_oracle():
    for n in (8, 32):
        for mask in _raw_masks(n, seed=4, count=4):
            L, L1, L2, _, _ = _mask_laplacians(mask)
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


def test_sandwich_margin_sign():
    split = sample_split(64, seed=1)
    L, L1, L2, _, _ = _mask_laplacians(_split_mask(split))
    measured = split.delta_star - 1e-9
    at_star = min(sandwich_margin(L, Li, split.delta_star) for Li in (L1, L2))
    below = min(sandwich_margin(L, Li, measured - 1e-5) for Li in (L1, L2))
    assert at_star >= -1e-12
    assert below < 0.0
    assert below < at_star


def _split_mask(split):
    mask = np.zeros((split.n, split.n), dtype=bool)
    mask[split.e1[:, 0], split.e1[:, 1] - split.n] = True
    return mask


def test_sample_split_certificate_recomputes():
    split = sample_split(64, seed=2)
    assert split.attempts >= 1
    mask = _split_mask(split)
    _, _, _, e1, e2 = _mask_laplacians(mask)
    np.testing.assert_array_equal(e1, split.e1)
    np.testing.assert_array_equal(e2, split.e2)
    assert split.delta_star == measure_delta(mask) + 1e-9
    assert certified_lower_bound(split) == 3.0 / (1.0 + split.delta_star) ** 2
    # every cross pair appears in exactly one edge class
    assert split.e1.shape[0] + split.e2.shape[0] == split.n ** 2


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
    assert np.all(X.dist[split.e1[:, 0], split.e1[:, 1]] == 1.0)
    assert np.all(X.dist[split.e2[:, 0], split.e2[:, 1]] == 3.0)
    np.testing.assert_array_equal(P.idx_a, np.arange(n))
    np.testing.assert_array_equal(P.idx_b, np.arange(n, 2 * n))


def _hand_split(e1, e2, n):
    return lower_bound.BipartiteSplit(
        n=n, e1=np.asarray(e1, dtype=np.intp).reshape(-1, 2),
        e2=np.asarray(e2, dtype=np.intp).reshape(-1, 2), delta_star=0.5,
        seed=0, attempts=1)


def _validated_123(split):
    """(dist, None) from validate_metric on the 1/2/3 matrix filled edge by
    edge, or (None, the error type it raises)."""
    n2 = 2 * split.n
    D = 2.0 * (1.0 - np.eye(n2))
    for edges, value in ((split.e1, 1.0), (split.e2, 3.0)):
        for u, v in edges:
            D[u, v] = D[v, u] = value
    try:
        return validate_metric(D).dist, None
    except MetricUnionError as exc:
        return None, type(exc)


def test_123_structure_check_matches_full_validation(monkeypatch):
    full_scans = []
    validate = lower_bound.validate_metric

    def counted(D):
        full_scans.append(D.shape)
        return validate(D)

    monkeypatch.setattr(lower_bound, "validate_metric", counted)
    cases = []
    for n in (4, 8, 16, 32):
        for seed in range(5):
            mask = stream(seed, "test.123_mask", n).random((n, n)) < 0.5
            e1 = lower_bound._mask_edges(mask, n)
            e2 = lower_bound._mask_edges(~mask, n)
            cases.append((_hand_split(e1, e2, n), 0))
            if seed:
                continue
            # hand-broken: an edge inside a side (of either class) takes
            # the full scan; an edge in both classes (the 3 wins) and a
            # missing edge (left at 2) keep the structure, and a metric
            cases += [
                (_hand_split(np.vstack([e1, [[0, 1]]]), e2, n), 1),
                (_hand_split(e1, np.vstack([e2, [[n, n + 1]]]), n), 1),
                (_hand_split(e1, np.vstack([e2, e1[:1]]), n), 0),
                (_hand_split(e1[1:], e2, n), 0),
            ]
    raised = 0
    for split, scans in cases:
        want, error = _validated_123(split)
        full_scans.clear()
        try:
            X, _ = build_123_metric(split)
        except MetricUnionError as exc:
            assert type(exc) is error
            raised += 1
        else:
            assert error is None
            assert np.array_equal(X.dist, want)
            assert not X.dist.flags.writeable
            assert X.labels == tuple(range(2 * split.n))
        assert len(full_scans) == scans
    assert raised > 0


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


def test_ratio_check_flags_impossible_images():
    from metric_union import BipartiteSplit
    split = BipartiteSplit(
        n=2, e1=np.array([[0, 2]]),
        e2=np.array([[0, 3], [1, 2], [1, 3]]),
        delta_star=0.1, seed=0, attempts=1)
    # the lone e1 pair is nearly collapsed while e2 pairs stay long, so
    # the e1 energy ratio falls far below (1 + delta*)^-2
    pts = np.array([[0.0, 0.0], [0.0, 10.0], [0.1, 0.0], [5.0, 5.0]])
    with pytest.raises(RangeViolation) as info:
        ratio_check(split, pts)
    assert info.value.which == "e1"
    assert info.value.measured < info.value.lo


def test_choose_n_validation():
    with pytest.raises(InputError):
        choose_n_for_epsilon(0.0, seed=0)
    with pytest.raises(InputError):
        choose_n_for_epsilon(1.0, seed=0)
    with pytest.raises(RetryBudgetExceeded):
        choose_n_for_epsilon(0.01, seed=0, samples=1, n_cap=32)


def test_choose_n_meets_loose_target():
    n, med = choose_n_for_epsilon(0.95, seed=7, samples=3)
    assert n <= 512
    assert 3.0 / (1.0 + med) ** 2 >= 3.0 - 0.95


def test_split_deterministic():
    a = sample_split(64, seed=9)
    b = sample_split(64, seed=9)
    np.testing.assert_array_equal(a.e1, b.e1)
    assert a.delta_star == b.delta_star
    assert a.attempts == b.attempts
    c = sample_split(64, seed=10)
    assert not np.array_equal(a.e1, c.e1)
