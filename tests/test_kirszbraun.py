"""One-point and sequential Lipschitz extension between point clouds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_union import (EmbedParams, InconsistentDuplicate, InputError,
                          PartialMap, PointCloud, SolverStall, embed_union,
                          extend_one_point, extend_sequential, kirszbraun,
                          metric, pairwise_distances, stream)
from metric_union.acceptance import _Context
from metric_union.linalg import _measured


def _max_ratio(y, tgt, d):
    return float((np.sqrt(((y - tgt) ** 2).sum(axis=1)) / d).max())


def _lip_of(src, tgt):
    DS, DT = pairwise_distances(src), pairwise_distances(tgt)
    iu, ju = np.triu_indices(src.shape[0], k=1)
    live = DS[iu, ju] > 0
    return float((DT[iu, ju][live] / DS[iu, ju][live]).max())


def test_partial_map_measures_lip():
    M = PartialMap(PointCloud(np.array([[0.0], [1.0], [3.0]])),
                   PointCloud(np.array([[0.0], [2.0], [4.0]])))
    # ratios: 2/1, 4/3, 2/2 -> lip = 2
    assert M.lip == pytest.approx(2.0)
    assert M.m == 3


def test_partial_map_lip_is_measured_never_given(kernel_calls):
    with pytest.raises(TypeError):
        PartialMap(PointCloud(np.zeros((2, 1))), PointCloud(np.ones((2, 1))),
                   lip=1.0)
    rng = stream(5, "test.kirsz.lip")
    src, tgt = rng.normal(size=(30, 3)), rng.normal(size=(30, 4))
    i = rng.permutation(30)[:20]
    S = metric._squared_distances(src[i])
    T = metric._squared_distances(tgt[i])
    iu, ju = np.triu_indices(i.size, k=1)
    kernel = float((np.sqrt(T[iu, ju]) / np.sqrt(S[iu, ju])).max())
    # plain clouds are measured by the kernel, carrying ones read their
    # matrices (here re-indexed by take), bit for bit the same constant
    kernel_calls.clear()
    assert PartialMap(PointCloud(src[i]), PointCloud(tgt[i])).lip == kernel
    assert len(kernel_calls) == 2
    src_c, tgt_c = (_measured(PointCloud(p)).take(i) for p in (src, tgt))
    kernel_calls.clear()
    assert PartialMap(src_c, tgt_c).lip == kernel
    assert not kernel_calls


def test_partial_map_rejects_inconsistent_duplicates():
    with pytest.raises(InconsistentDuplicate):
        PartialMap(PointCloud(np.array([[0.0], [0.0]])),
                   PointCloud(np.array([[0.0], [1.0]])))
    # duplicates with equal targets are fine
    M = PartialMap(PointCloud(np.array([[0.0], [0.0], [1.0]])),
                   PointCloud(np.array([[2.0], [2.0], [3.0]])))
    assert M.lip == pytest.approx(1.0)


def test_partial_map_shape_mismatch():
    with pytest.raises(InputError):
        PartialMap(PointCloud(np.zeros((2, 1))), PointCloud(np.zeros((3, 1))))


def test_extension_line_midpoint_exact():
    # map 0 -> 0, 0.3 -> 0.9 (lip 3); the point 0.15 is equidistant from
    # both sources, so the optimal image is the midpoint 0.45 with ratio 3
    M = PartialMap(PointCloud(np.array([[0.0], [0.3]])),
                   PointCloud(np.array([[0.0], [0.9]])))
    y = extend_one_point(M, [0.15])
    assert y == pytest.approx([0.45], abs=1e-12)


def test_extension_snaps_to_duplicate_source():
    M = PartialMap(PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]])),
                   PointCloud(np.array([[5.0, 5.0], [6.0, 5.0]])))
    np.testing.assert_array_equal(extend_one_point(M, [1.0, 0.0]),
                                  [6.0, 5.0])
    out = extend_sequential(M, PointCloud(np.array([[0.5, 0.5],
                                                    [1.0, 0.0]])))
    np.testing.assert_array_equal(out.points[1], [6.0, 5.0])


def test_extension_identity_map_stays_tight():
    rng = stream(7, "test.kirsz.id")
    pts = rng.normal(size=(8, 3))
    M = PartialMap(PointCloud(pts), PointCloud(pts))
    assert M.lip == pytest.approx(1.0)
    x = rng.normal(size=3)
    y = extend_one_point(M, x)
    d = np.sqrt(((x - pts) ** 2).sum(axis=1))
    assert _max_ratio(y, pts, d) <= 1.0 + 1e-7


def test_single_source_maps_anywhere_within_ratio():
    M = PartialMap(PointCloud(np.array([[0.0, 0.0]])),
                   PointCloud(np.array([[3.0, 4.0]])))
    assert M.lip == 0.0
    y = extend_one_point(M, [1.0, 0.0])
    # lip 0 forces the image onto the lone target
    np.testing.assert_allclose(y, [3.0, 4.0], atol=1e-12)
    out = extend_sequential(M, PointCloud(np.array([[1.0, 0.0],
                                                    [-2.0, 5.0]])))
    np.testing.assert_allclose(out.points, [[3.0, 4.0], [3.0, 4.0]],
                               atol=1e-12)


def test_empty_map_rejected():
    M = PartialMap(PointCloud(np.zeros((0, 2))), PointCloud(np.zeros((0, 2))))
    with pytest.raises(InputError):
        extend_one_point(M, [0.0, 0.0])
    with pytest.raises(InputError):
        extend_sequential(M, PointCloud(np.zeros((1, 2))))


def test_dimension_mismatch_rejected():
    M = PartialMap(PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]])),
                   PointCloud(np.array([[0.0], [1.0]])))
    with pytest.raises(InputError):
        extend_one_point(M, [0.0, 0.0, 0.0])
    with pytest.raises(InputError):
        extend_sequential(M, PointCloud(np.zeros((1, 3))))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_one_point_extension_never_exceeds_lip(seed):
    rng = stream(seed, "test.kirsz.prop")
    m = int(rng.integers(2, 12))
    ds, dt = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    src = rng.normal(size=(m, ds))
    tgt = rng.normal(size=(m, dt)) * float(rng.uniform(0.3, 3.0))
    M = PartialMap(PointCloud(src), PointCloud(tgt))
    x = rng.normal(size=ds)
    y = extend_one_point(M, x, tol=1e-7)
    d = np.sqrt(((x - src) ** 2).sum(axis=1))
    if d.min() > 0:
        assert _max_ratio(y, tgt, d) <= M.lip * (1.0 + 1e-7)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_sequential_extension_all_pairs_check(seed):
    rng = stream(seed, "test.kirsz.seq")
    m = int(rng.integers(2, 15))
    q = int(rng.integers(1, 6))
    ds, dt = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    src = rng.normal(size=(m, ds))
    tgt = rng.normal(size=(m, dt))
    M = PartialMap(PointCloud(src), PointCloud(tgt))
    xs = rng.normal(size=(q, ds))
    out = extend_sequential(M, PointCloud(xs), tol=1e-7)
    assert out.m == q and out.dim == dt
    lip_all = _lip_of(np.vstack([src, xs]), np.vstack([tgt, out.points]))
    assert lip_all <= M.lip * (1.0 + 1e-7)


def test_sequential_extension_places_at_fixed_level(monkeypatch):
    # maps with lip > 0 are placed by the fixed-level feasibility solve
    # alone, each row within lip (1 + tol/2) of every earlier source
    solves = []
    optimal = kirszbraun._solve_extension
    monkeypatch.setattr(kirszbraun, "_solve_extension",
                        lambda *a: solves.append(a) or optimal(*a))
    tol = 1e-7
    # 192, 591 and 810 once sent the fixed-level solve to the fallback
    for seed in [*range(30), 192, 591, 810]:
        rng = stream(seed, "test.kirsz.level")
        m = int(rng.integers(2, 31))
        q = int(rng.integers(1, 11))
        ds, dt = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        src = rng.normal(size=(m, ds))
        tgt = rng.normal(size=(m, dt)) * float(rng.uniform(0.5, 2.0))
        M = PartialMap(PointCloud(src), PointCloud(tgt))
        assert M.lip > 0.0
        xs = rng.normal(size=(q, ds))
        out = extend_sequential(M, PointCloud(xs), tol=tol).points
        S, T = np.vstack([src, xs]), np.vstack([tgt, out])
        for k in range(m, m + q):
            d = np.sqrt(((S[k] - S[:k]) ** 2).sum(axis=1))
            assert _max_ratio(T[k], T[:k], d) <= M.lip * (1.0 + tol / 2)
    assert not solves


def test_sequential_extension_never_reaches_the_optimizer(monkeypatch):
    # lip-0 maps take the fixed-level solve at s = 0 and snapped
    # duplicates their recorded target, as every placement of the seed-0
    # selftest battery takes one of the two
    solves, levels = [], []
    optimal, level = kirszbraun._solve_extension, kirszbraun._level_image
    monkeypatch.setattr(kirszbraun, "_solve_extension",
                        lambda *a: solves.append(a) or optimal(*a))
    monkeypatch.setattr(kirszbraun, "_level_image",
                        lambda *a: levels.append(a[2]) or level(*a))
    xs = PointCloud(stream(0, "test.kirsz.lip0").normal(size=(5, 2)))
    for src in ([[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]]):
        M = PartialMap(PointCloud(src),
                       PointCloud(np.tile([1.5, -2.0, 0.25], (len(src), 1))))
        assert M.lip == 0.0
        np.testing.assert_array_equal(extend_sequential(M, xs).points,
                                      np.tile([1.5, -2.0, 0.25], (5, 1)))
    assert levels == [0.0] * 10
    M = PartialMap(PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]])),
                   PointCloud(np.array([[5.0, 5.0], [6.0, 7.0]])))
    out = extend_sequential(M, PointCloud(np.array(
        [[1.0, 1e-13], [0.0, 0.0], [0.3, 0.4], [0.3, 0.4]]))).points
    np.testing.assert_array_equal(out[:2], [[6.0, 7.0], [5.0, 5.0]])
    np.testing.assert_array_equal(out[3], out[2])
    assert len(levels) == 11 and not solves
    params = EmbedParams.derive(0.5, 1.0, 1.0)
    for inst in _Context(0).battery:
        embed_union(inst.space, inst.partition, inst.phi_a, inst.phi_b,
                    params=params)
    assert 0.0 in levels[11:] and len(levels) > 2000
    assert not solves


def test_extension_exact_across_scales():
    # two tight constraints whose d lie 6 to 12 decades apart: the optimum
    # is on their segment at F = ||t_1 - t_0|| / (d_0 + d_1), which the
    # squared level form alone resolves only to the rounding of d_1^2
    for tgt, d in ((np.array([[0.0], [154.33055260668237]]),
                    np.array([1.258390931836121e-4, 114.50901786752402])),
                   (np.array([[0.0, 0.0], [1e6, 0.0], [0.0, 3.0]]),
                    np.array([1e-6, 7e5, 10.0]))):
        y, F, cert = kirszbraun._solve_extension(tgt, d)
        exact = np.linalg.norm(tgt[1] - tgt[0]) / (d[0] + d[1])
        assert F == pytest.approx(exact, rel=1e-14)
        assert cert <= 1e-6


def test_certificate_norm_closed_forms():
    # two unit directions at angle theta: the nearest point of their hull
    # to 0 is the midpoint, at distance cos(theta / 2)
    for theta in (0.3, 1.0, 2.0, 3.0):
        tgt = -np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])
        got = kirszbraun._certificate_norm(np.zeros(2), tgt, np.ones(2))
        assert got == pytest.approx(np.cos(theta / 2.0), rel=1e-12)
    # directions whose hull contains 0
    for units in ([[1.0], [-1.0]],
                  [[1.0, 0.0], [-0.5, 3 ** 0.5 / 2], [-0.5, -3 ** 0.5 / 2]],
                  np.vstack([np.eye(3), -np.ones((1, 3)) / 3 ** 0.5])):
        tgt = -np.asarray(units)
        d = np.ones(tgt.shape[0])
        got = kirszbraun._certificate_norm(np.zeros(tgt.shape[1]), tgt, d)
        assert got <= 1e-15


def _power_corpus():
    """Seeded ``_power_center`` inputs (kind, T, c): k 1-8 and m up to
    60 at scales 1e-3 to 1e3, with c drawn and c = 0, on distinct and on
    coincident targets; regular simplices, whose ball needs all k + 1
    vertices; collinear rows of equal power at the midpoint of the outer
    two, where rounding makes affinely dependent violators; and targets
    a few ulps apart with a far one, where rounding builds a basis with
    a tiny pivot, new or old, that must keep a row from being pushed."""
    rng = stream(0, "test.kirsz.power")
    for _ in range(60):
        k, m = int(rng.integers(1, 9)), int(rng.integers(1, 61))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        T = rng.normal(size=(m, k)) * scale
        dup = T[rng.integers(m, size=m)]
        for tgt in (T, dup):
            yield "drawn", tgt, -rng.uniform(0.0, 4.0, size=m) * scale ** 2
            yield "zero", tgt, np.zeros(m)
    for k in range(1, 9):
        simplex = np.vstack([np.eye(k),
                             np.full((1, k), (1.0 - np.sqrt(k + 1.0)) / k)])
        yield "simplex", simplex, np.zeros(k + 1)
    for _ in range(300):
        k = int(rng.integers(1, 5))
        a, b = rng.normal(size=k), rng.normal(size=k)
        T = np.vstack([a, b, a + rng.uniform(0.05, 0.95, size=(4, 1))
                       * (b - a)])
        yield "collinear", T, -((0.5 * (a + b) - T) ** 2).sum(axis=1)
    for rows in ((("-0x1.5a2b047a0311ap+0", "-0x1.3ee3020bed222p-2"),
                  ("-0x1.5a2b047a0312fp+0", "-0x1.3ee3020bed1d7p-2"),
                  ("0x1.cd00f1054d2bfp-2", "0x1.bf0153464d248p+0")),
                 (("-0x1.6c70916d4e2fdp+0", "-0x1.29da5d4285f1cp+0"),
                  ("-0x1.6c70916d4e304p+0", "-0x1.29da5d4285f27p+0"),
                  ("-0x1.6c70916d4e2f2p+0", "-0x1.29da5d4285f20p+0"),
                  ("-0x1.9518e1a320c72p+0", "-0x1.8287224abffa8p-1"))):
        T = np.array([[float.fromhex(h) for h in row] for row in rows])
        yield "ulps", T, np.zeros(len(rows))


def test_power_center_bookkeeping():
    # every call: weights sum to 1 and rebuild y, v is the all-row maximum
    # at y, no row exceeds the basis's power beyond rounding, and the
    # basis is affinely independent with at most k + 1 members
    full = 0
    for kind, T, c in _power_corpus():
        k = T.shape[1]
        scale = max(float(np.abs(T).max()), float(np.abs(c).max()) ** 0.5)
        y, v, R, lam = kirszbraun._power_center(T, c)
        power = ((y - T) ** 2).sum(axis=1) + c
        assert abs(float(lam.sum()) - 1.0) <= 1e-12
        assert np.abs(lam @ T[R] - y).max() <= 1e-12 * scale
        assert v == float(power.max())
        assert v - float(power[R].max()) <= 1e-12 * scale ** 2
        assert len(set(R)) == len(R) <= k + 1
        if len(R) > 1:
            sv = np.linalg.svd(T[R[1:]] - T[R[0]], compute_uv=False)
            assert sv.min() > 1e-6 * sv.max()
        full += len(R) == k + 1
        if kind == "collinear":
            # every row is tight at the midpoint of the outer two
            assert np.abs(y - 0.5 * (T[0] + T[1])).max() <= 1e-9 * scale
            assert abs(v) <= 1e-12 * scale ** 2
    assert full >= 8   # the simplices at least


@pytest.fixture()
def solve_calls(monkeypatch):
    """The matrix shape of every ``np.linalg.solve`` call made while the
    test runs."""
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def test_fixed_level_placement_solves_for_no_weights(monkeypatch,
                                                     solve_calls):
    # the fixed-level step reads only the image, so the seed-0 battery's
    # placements make no weight solve; the optimal solver still does
    levels = []
    level = kirszbraun._level_image
    monkeypatch.setattr(kirszbraun, "_level_image",
                        lambda *a: levels.append(a[2]) or level(*a))
    params = EmbedParams.derive(0.5, 1.0, 1.0)
    for inst in _Context(0).battery:
        embed_union(inst.space, inst.partition, inst.phi_a, inst.phi_b,
                    params=params)
    assert len(levels) > 2000 and not solve_calls
    rng = stream(3, "test.kirsz.solves")
    M = PartialMap(PointCloud(rng.normal(size=(8, 3))),
                   PointCloud(rng.normal(size=(8, 2))))
    extend_one_point(M, rng.normal(size=3))
    assert solve_calls


def test_sequential_extension_deterministic():
    rng = stream(12, "test.kirsz.det")
    M = PartialMap(PointCloud(rng.normal(size=(6, 2))),
                   PointCloud(rng.normal(size=(6, 3))))
    xs = PointCloud(rng.normal(size=(4, 2)))
    a = extend_sequential(M, xs).points
    b = extend_sequential(M, xs).points
    np.testing.assert_array_equal(a, b)


def test_zero_tolerance_stalls_cleanly():
    # rounding pushes the re-measured constant a few ulp over lip, so a
    # zero-tolerance gate must refuse rather than return silently
    M = PartialMap(PointCloud(np.array([[0.0], [0.3]])),
                   PointCloud(np.array([[0.0], [0.9]])))
    xs = PointCloud(np.array([[0.15], [0.07], [0.22]]))
    with pytest.raises(SolverStall) as ei:
        extend_sequential(M, xs, tol=0.0)
    assert ei.value.objective >= ei.value.target


@pytest.mark.parametrize("image", [10.0, float("nan")])
def test_placed_image_past_the_level_stalls(monkeypatch, image):
    # the final gate measures every pair with a placed point, so an image
    # the placement step got wrong (or NaN) is refused, not returned
    M = PartialMap(PointCloud([[0.0], [1.0]]), PointCloud([[0.0], [1.0]]))
    monkeypatch.setattr(kirszbraun, "_level_image",
                        lambda tgt, d, s: np.array([image]))
    with pytest.raises(SolverStall) as ei:
        extend_sequential(M, PointCloud([[0.5]]))
    assert not ei.value.objective <= ei.value.target


@pytest.mark.parametrize("m0,placed", [(1, 1), (1, 9), (4, 4), (12, 3),
                                       (30, 2), (5, 40)])
def test_placed_pairs_gate_is_the_all_pairs_constant(m0, placed):
    # with the map's own pairs at M.lip, the gate's constant is bit for bit
    # the one of measuring every pair of the final map again, whether the
    # placed rows are measured by a cross call (few) or the self call
    rng = stream(m0 * 100 + placed, "test.kirsz.placed_gate")
    n = m0 + placed
    src, tgt = rng.normal(size=(n, 3)), rng.normal(size=(n, 2))
    M = PartialMap(PointCloud(src[:m0]), PointCloud(tgt[:m0]))
    every = PartialMap(PointCloud(src), PointCloud(tgt)).lip
    assert max(M.lip, kirszbraun._placed_lip(src, tgt, m0)) == every


@pytest.mark.parametrize("m0", [1, 3])
def test_placed_pairs_gate_names_an_inconsistent_duplicate(m0):
    # row 3 coincides with row 1 and has another target; with m0 = 1 the
    # placed rows are the most and the self call measures them
    src = np.array([[0.0], [1.0], [2.0], [1.0]])
    tgt = np.array([[0.0], [1.0], [2.0], [1.5]])
    with pytest.raises(InconsistentDuplicate) as ei:
        kirszbraun._placed_lip(src, tgt, m0)
    assert (ei.value.i, ei.value.j) == (1, 3)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_malformed_tolerance_is_an_input_error(tol):
    # a NaN or infinite tol makes "final_lip > lip * (1 + tol)" False, so
    # the gate passed a map with Lipschitz constant 11.25 against lip 3
    M = PartialMap(PointCloud(np.array([[0.0], [0.3]])),
                   PointCloud(np.array([[0.0], [0.9]])))
    xs = PointCloud(np.array([[0.15], [0.07], [0.22]]))
    with pytest.raises(InputError):
        extend_sequential(M, xs, tol=tol)
    with pytest.raises(InputError):
        extend_one_point(M, [0.15], tol=tol)


def test_two_dimensional_grid_oracle():
    # independent coarse-to-fine grid search for the planar minimax
    for seed in range(6):
        rng = stream(seed, "test.kirsz.grid")
        m = int(rng.integers(3, 9))
        src = rng.normal(size=(m, 2))
        tgt = rng.normal(size=(m, 2))
        x = rng.normal(size=2)
        M = PartialMap(PointCloud(src), PointCloud(tgt))
        y = extend_one_point(M, x, tol=1e-6)
        d = np.sqrt(((x - src) ** 2).sum(axis=1))
        F = _max_ratio(y, tgt, d)

        lo, hi = tgt.min(axis=0), tgt.max(axis=0)
        center, span = 0.5 * (lo + hi), 0.5 * float((hi - lo).max()) + 1e-12
        best = np.inf
        for _ in range(14):
            gx = np.linspace(center[0] - span, center[0] + span, 61)
            gy = np.linspace(center[1] - span, center[1] + span, 61)
            pts = np.stack(np.meshgrid(gx, gy), -1).reshape(-1, 2)
            vals = (np.sqrt(((pts[:, None] - tgt[None]) ** 2).sum(2))
                    / d).max(1)
            k = int(np.argmin(vals))
            if vals[k] < best:
                best, center = float(vals[k]), pts[k]
            span *= 0.2
        assert abs(F - best) <= 1e-3
        assert F <= best + 1e-9  # the solver is never beaten by the grid


_SIMPLEX = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("sources, targets, xs, match", [
    # lip = inf: extend_sequential returned [[0, 0], [0, 0]], certified
    # against an infinite bound
    (_SIMPLEX, 1e154 * _SIMPLEX, [[0.4, 0.3], [2.0, 2.0]],
     "constant overflows"),
    # lip = nan was accepted; both extensions then named coinciding sources
    (1e155 * _SIMPLEX, 1e155 * _SIMPLEX, [[0.4e155, 0.3e155]],
     "constant overflows"),
    # lip = 1e160 is finite, its square is not: a bare OverflowError from
    # extend_one_point, SolverStall from extend_sequential
    ([[0.0, 0.0], [1e-10, 0.0]], [[0.0, 0.0], [1e150, 0.0]],
     [[5e-11, 1e-11]], "squared level"),
    # d = inf made every source a duplicate of the point: "sources 0 and 1
    # coincide but their targets differ"
    (_SIMPLEX, 2.0 * _SIMPLEX, [[1e200, 0.0]],
     "distance to the sources overflows"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extension_refuses_what_its_squares_cannot_hold(sources, targets,
                                                        xs, match):
    # refused by name, with no numpy overflow or inf / inf warning first
    M = PartialMap(PointCloud(sources), PointCloud(targets))
    with pytest.raises(InputError, match=match):
        extend_one_point(M, xs[0])
    with pytest.raises(InputError, match=match):
        extend_sequential(M, PointCloud(xs))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_level_weights_that_overflow_take_the_optimal_solver(monkeypatch):
    # lip = 1e100 and d^2 = 1e300 are finite, s d^2 is not: the ball
    # search ran on infinite weights, behind numpy overflow warnings
    M = PartialMap(PointCloud([[0.0, 0.0], [1e-100, 0.0], [0.0, 1e-100]]),
                   PointCloud(_SIMPLEX))
    x = np.array([1e150, 0.0])
    d = np.sqrt(((x - M.sources.points) ** 2).sum(axis=1))
    y, _ = kirszbraun._certified_solve(M.targets.points, d)

    search = kirszbraun._ball_search

    def finite_search(T, c):
        assert np.all(np.isfinite(c)), "ball search on infinite weights"
        return search(T, c)

    monkeypatch.setattr(kirszbraun, "_ball_search", finite_search)
    # returned, so the final gate at lip (1 + tol) passed
    img = extend_sequential(M, PointCloud([x]))
    np.testing.assert_array_equal(img.points, [y])


@pytest.mark.parametrize("F, cert", [(np.nan, 0.0), (1.0, np.nan)])
def test_nan_objective_or_certificate_stalls(monkeypatch, F, cert):
    # both gates compared with ">", which a NaN passes
    monkeypatch.setattr(kirszbraun, "_solve_extension",
                        lambda tgt, d: (np.zeros(2), F, cert))
    with pytest.raises(SolverStall):
        extend_one_point(PartialMap(PointCloud(_SIMPLEX),
                                    PointCloud(_SIMPLEX)), [0.4, 0.3])
