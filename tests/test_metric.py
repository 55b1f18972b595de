"""Metric validation, partitions, and distortion measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_union import (AsymmetryError, CollapsedPairError, CoverageError,
                          EmptySideError, InputError, NegativeDistanceError,
                          NonzeroDiagonal, TriangleViolation, ZeroOffDiagonal,
                          build_partition, distortion_of, stream,
                          validate_metric)
from metric_union.metric import _MAX_RECORDED, _min_plus


def _euclidean(points):
    pts = np.asarray(points, dtype=np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def test_valid_metric_roundtrip():
    D = np.array([[0.0, 1.0, 2.0],
                  [1.0, 0.0, 1.5],
                  [2.0, 1.5, 0.0]])
    X = validate_metric(D, labels=["p", "q", "r"])
    assert X.n == 3
    assert X.labels == ("p", "q", "r")
    assert X.diameter == 2.0
    assert not X.dist.flags.writeable
    np.testing.assert_array_equal(X.sub([0, 2]),
                                  [[0.0, 2.0], [2.0, 0.0]])


def test_default_labels_are_indices():
    X = validate_metric([[0, 1], [1, 0]])
    assert X.labels == (0, 1)


def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(InputError):
        validate_metric(np.zeros((2, 3)))
    with pytest.raises(InputError):
        validate_metric([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(InputError):
        validate_metric(np.zeros((0, 0)))
    with pytest.raises(InputError):
        validate_metric([[0, 1], [1, 0]], labels=["only-one"])


def test_axiom_violations_carry_witnesses():
    with pytest.raises(AsymmetryError) as ei:
        validate_metric([[0.0, 1.0], [1.5, 0.0]])
    assert (ei.value.i, ei.value.j) == (0, 1)

    with pytest.raises(NegativeDistanceError):
        validate_metric([[0.0, -1.0], [-1.0, 0.0]])

    with pytest.raises(NonzeroDiagonal) as ei:
        validate_metric([[0.5, 1.0], [1.0, 0.0]])
    assert ei.value.i == 0

    with pytest.raises(ZeroOffDiagonal) as ei:
        validate_metric([[0.0, 0.0], [0.0, 0.0]])
    assert (ei.value.i, ei.value.j) == (0, 1)


def test_triangle_violation_one_three_one():
    # d(0,2) = 3 > d(0,1) + d(1,2) = 2, witnessed through k = 1
    with pytest.raises(TriangleViolation) as ei:
        validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    v = ei.value
    assert (v.i, v.j, v.k) == (0, 2, 1)
    assert v.slack == pytest.approx(1.0)
    assert v.total == 2  # the (2,0,1) mirror is recorded too


def test_triangle_tolerance_scales_with_diameter():
    D = np.array([[0.0, 1.0, 2.0],
                  [1.0, 0.0, 1.0],
                  [2.0, 1.0, 0.0]])
    D[0, 2] = D[2, 0] = 2.0 + 1e-13 * 2.0  # inside the relative slack
    validate_metric(D, tol=1e-12)
    D[0, 2] = D[2, 0] = 2.0 + 1e-9
    with pytest.raises(TriangleViolation):
        validate_metric(D, tol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 12), st.integers(1, 5))
def test_euclidean_matrices_always_validate(seed, n, dim):
    pts = stream(seed, "test.metric").normal(size=(n, dim))
    D = _euclidean(pts)
    X = validate_metric(D, tol=1e-9)
    assert X.n == n


def _per_k_scan(D, tol=1e-12):
    """Reference: every axiom check of ``validate_metric`` with the full
    per-k triangle loop over all rows, as it ran before the screen."""
    n = D.shape[0]
    violations = []
    total = 0

    def record(v):
        nonlocal total
        total += 1
        if len(violations) < _MAX_RECORDED:
            violations.append(v)

    gap = D - D.T
    for i, j in np.argwhere(gap != 0.0):
        if i < j:
            record(AsymmetryError(int(i), int(j), float(abs(gap[i, j]))))
    for i, j in np.argwhere(D < 0.0):
        record(NegativeDistanceError(int(i), int(j), float(D[i, j])))
    diag = np.diagonal(D)
    for i in np.nonzero(diag != 0.0)[0]:
        if diag[i] >= 0.0:
            record(NonzeroDiagonal(int(i), float(diag[i])))
    for i, j in np.argwhere((D == 0.0) & ~np.eye(n, dtype=bool)):
        if i < j:
            record(ZeroOffDiagonal(int(i), int(j)))
    slack_abs = tol * float(np.abs(D).max())
    for k in range(n):
        excess = D - (D[:, k:k + 1] + D[k:k + 1, :])
        for i, j in np.argwhere(excess > slack_abs):
            if i != k and j != k and i != j:
                record(TriangleViolation(int(i), int(j), int(k),
                                         float(excess[i, j])))
        if total > _MAX_RECORDED:
            break
    return violations, total


def _fields(v):
    return (type(v), {key: val for key, val in vars(v).items()
                      if key not in ("violations", "total")})


def test_validate_metric_matches_per_k_scan():
    rng = stream(0, "test.validate_parity")

    def euclid(n):
        return _euclidean(rng.normal(size=(n, 3)))

    cases = []
    for _ in range(3):
        D = euclid(40)                                   # asymmetric entries
        for i, j in rng.integers(0, 40, size=(3, 2)):
            D[i, j] *= 1.0 + rng.uniform(0.01, 2.0)
        cases.append(D)
        D = euclid(30)                                   # negative entries
        for i, j in rng.integers(0, 30, size=(2, 2)):
            D[i, j] = D[j, i] = -D[i, j]
        cases.append(D)
        D = euclid(25)                                   # triangle breaks
        for i, j in rng.integers(0, 25, size=(2, 2)):
            D[i, j] = D[j, i] = D[i, j] + rng.uniform(1.0, 5.0)
        cases.append(D)
    diag_cases = []
    for sign in (1.0, -1.0):    # nonzero diagonal, no off-diagonal break
        D = euclid(35)
        idx = rng.choice(35, size=4, replace=False)
        D[idx, idx] = sign * 3.0 * D.max()
        diag_cases.append(D)
    crowded = rng.uniform(1.0, 10.0, size=(80, 80))  # over the record cap
    crowded = crowded + crowded.T
    np.fill_diagonal(crowded, 0.0)
    cases += diag_cases + [crowded]

    for D in diag_cases:
        # the screen flags rows here, yet no triangle is really broken
        slack_abs = 1e-12 * np.abs(D).max()
        assert (D - _min_plus(D, D) > slack_abs).any()
        assert not any(isinstance(v, TriangleViolation)
                       for v in _per_k_scan(D)[0])

    for D in cases:
        ref, ref_total = _per_k_scan(D)
        assert ref
        with pytest.raises(type(ref[0])) as ei:
            validate_metric(D)
        err = ei.value
        assert type(err) is type(ref[0])
        assert [_fields(v) for v in err.violations] == \
            [_fields(v) for v in ref]
        assert err.total == ref_total
    assert ref_total > _MAX_RECORDED == len(err.violations)

    D = euclid(320)                                      # valid, n >= 300
    assert _per_k_scan(D) == ([], 0)
    assert np.array_equal(validate_metric(D).dist, D)


def _agrees_with_per_k_scan(D, tol=1e-12):
    """validate_metric raises what the per-k scan finds: the same type,
    violations in the same order, and the same total."""
    ref, ref_total = _per_k_scan(D, tol)
    if not ref:
        validate_metric(D, tol=tol)
        return 0
    with pytest.raises(type(ref[0])) as ei:
        validate_metric(D, tol=tol)
    err = ei.value
    assert type(err) is type(ref[0])
    assert [_fields(v) for v in err.violations] == [_fields(v) for v in ref]
    assert err.total == ref_total
    return ref_total


def test_half_screen_matches_per_k_scan():
    # the screen takes each unordered pair once, in blocks of 128 rows or
    # more from n = 256 on; a symmetric matrix flags both ends of a pair,
    # an asymmetric one screens its transpose too
    rng = stream(1, "test.half_screen")

    # d(2,0) = 5 > d(2,1) + d(1,0) sits below the diagonal only
    assert _agrees_with_per_k_scan(
        np.array([[0.0, 1, 1], [1, 0, 1], [5, 1, 0]])) == 2

    for n in (5, 200, 256, 300):
        pts = rng.normal(size=(n, 3))
        D = _euclidean(pts)
        for i, j in rng.integers(0, n, size=(3, 2)):     # symmetric breaks
            if i != j:
                D[i, j] = D[j, i] = D[i, j] + rng.uniform(1.0, 5.0)
        assert _agrees_with_per_k_scan(D) > 0
        D = _euclidean(pts)                              # asymmetric breaks
        r = rng.integers(n // 2, n, size=2)              # below the diagonal,
        c = rng.integers(0, n // 3, size=2)              # across blocks
        D[r, c] += rng.uniform(1.0, 5.0, size=2)
        D[c[0], r[1]] += rng.uniform(1.0, 5.0)           # and one above it
        assert _agrees_with_per_k_scan(D) > 3

    # collinear integer points with one pair stretched by exactly the
    # slack tol * max (not a violation), then by one ulp more (a violation)
    x = np.arange(256.0)
    tol = 2.0 ** -20
    for i, j in ((3, 40), (150, 250), (10, 253)):
        D = np.abs(x[:, None] - x[None, :])
        D[i, j] = D[j, i] = D[i, j] + tol * D.max()
        assert _agrees_with_per_k_scan(D, tol) == 0
        D[i, j] = D[j, i] = np.nextafter(D[i, j], np.inf)
        assert _agrees_with_per_k_scan(D, tol) > 0
        D[j, i] = np.nextafter(D[j, i], -np.inf)         # one side only
        assert _agrees_with_per_k_scan(D, tol) > 0


def test_partition_basics():
    X = validate_metric(_euclidean(stream(3, "test.part").normal(size=(8, 2))))
    P = build_partition(X, [4, 0, 2], [1, 3, 5, 6, 7, 2])
    np.testing.assert_array_equal(P.idx_a, [0, 2, 4])  # sorted
    np.testing.assert_array_equal(P.overlap, [2])
    # r_a is the exact rowwise min over the other side
    expect = X.dist[np.ix_(P.idx_a, P.idx_b)].min(axis=1)
    np.testing.assert_array_equal(P.r_a, expect)
    assert P.r_a[list(P.idx_a).index(2)] == 0.0  # overlap point touches B
    S = P.swapped()
    np.testing.assert_array_equal(S.idx_a, P.idx_b)
    np.testing.assert_array_equal(S.r_b, P.r_a)


def test_partition_errors():
    X = validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(CoverageError) as ei:
        build_partition(X, [0], [1])
    assert ei.value.missing == [2]
    with pytest.raises(EmptySideError):
        build_partition(X, [], [0, 1, 2])
    with pytest.raises(InputError):
        build_partition(X, [0, 3], [1, 2])
    with pytest.raises(InputError):
        build_partition(X, [0, 0], [1, 2])


def test_distortion_identity_and_scaling():
    pts = stream(11, "test.dist").normal(size=(10, 3))
    X = validate_metric(_euclidean(pts))
    rep = distortion_of(X, pts)
    assert rep.expansion == pytest.approx(1.0, abs=1e-12)
    assert rep.contraction == pytest.approx(1.0, abs=1e-12)
    rep2 = distortion_of(X, 2.0 * pts)
    assert rep2.expansion == pytest.approx(2.0, rel=1e-12)
    assert rep2.contraction == pytest.approx(0.5, rel=1e-12)
    assert rep2.distortion == pytest.approx(1.0, rel=1e-12)


def test_distortion_known_witness():
    # collinear points with the last image pulled halfway back: the pair
    # (1,2) is squeezed from 1 to 0.5 while (0,1) keeps its length
    X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    images = np.array([[0.0], [1.0], [1.5]])
    rep = distortion_of(X, images)
    assert rep.expansion == pytest.approx(1.0)
    assert rep.expansion_pair == (0, 1)
    assert rep.contraction == pytest.approx(2.0)
    assert rep.contraction_pair == (1, 2)
    assert rep.distortion == pytest.approx(2.0)


def test_distortion_subset_and_errors():
    pts = stream(5, "test.sub").normal(size=(6, 2))
    X = validate_metric(_euclidean(pts))
    sub = [1, 3, 4]
    rep = distortion_of(X, pts[sub], subset=sub)
    assert rep.distortion == pytest.approx(1.0, abs=1e-9)
    assert rep.n_points == 3
    with pytest.raises(InputError):
        distortion_of(X, pts[:3])
    with pytest.raises(CollapsedPairError) as ei:
        distortion_of(X, np.zeros((6, 2)))
    assert (ei.value.i, ei.value.j) == (0, 1)


def test_distortion_singleton_is_trivial():
    X = validate_metric([[0, 1], [1, 0]])
    rep = distortion_of(X, np.zeros((1, 2)), subset=[0])
    assert rep.distortion == 1.0
    assert rep.expansion_pair is None
