"""Two-sided embedding: parameters, bounds, audits, fault injection."""

import dataclasses
import math

import numpy as np
import pytest

from metric_union import (AuditViolation, EmbedParams, InputDistortionError,
                          InputError, MetricUnionError, PartialMap,
                          PointCloud, SolverStall, build_123_metric,
                          build_partition, build_psi, distort_sides,
                          distortion_of, embed_union, external_extend,
                          headline_bound, mds_best_effort, mds_isometric_embed,
                          pairwise_distances, ratio_check,
                          sample_glue_instance, sample_split, select_alpha,
                          stream, union_instance, validate_metric)
from metric_union import metric
from metric_union.linalg import _measured
from metric_union.union_embed import _normalize_side

PSI_ITEMS = ("away_upper", "home_lower", "home_upper", "cross_upper",
             "cross_lower", "g_lip")
FULL_ITEMS = ("side_a_sq", "side_b_sq", "cross_sq", "noncontract",
              "expansion", "headline_consistent", "dominates_phi_a",
              "dominates_phi_b", "delta_lip_a", "delta_lip_b",
              "delta_cross_exact", "claim_case_bound", "claim_dominates")


def test_select_alpha():
    assert select_alpha(1.0, 1.0) == 0.3114
    assert select_alpha(1.0, 1.5) == 0.5
    assert select_alpha(2.0, 3.0) == 0.5
    with pytest.raises(InputError):
        select_alpha(0.5, 1.0)


def test_params_derive_formulas():
    p = EmbedParams.derive(0.5, 2.0, 3.0)
    assert p.beta == (1.0 + 0.5) * (2.0 * 2.0 * 3.0 + 1.0)
    assert p.gamma == math.sqrt(0.5) * p.beta
    q = p.swapped()
    assert (q.d_a, q.d_b) == (3.0, 2.0)
    assert (q.beta, q.gamma) == (p.beta, p.gamma)
    with pytest.raises(InputError):
        EmbedParams.derive(0.0, 1.0, 1.0)
    with pytest.raises(InputError):
        EmbedParams.derive(1.5, 1.0, 1.0)
    with pytest.raises(InputError):
        EmbedParams.derive(0.5, 0.5, 1.0)


def test_headline_bound_values():
    assert headline_bound(EmbedParams.derive(0.5, 1.0, 1.0)) == 11.0
    assert headline_bound(EmbedParams.derive(0.5, 2.0, 3.0)) \
        == 7.0 * 6.0 + 2.0 * 5.0
    assert headline_bound(EmbedParams.derive(0.3114, 1.0, 1.0)) == 8.93
    # off the two special settings the bound is still finite and valid
    generic = headline_bound(EmbedParams.derive(0.25, 1.0, 2.0))
    assert generic > 7.0 * 2.0 + 2.0 * 3.0 - 5.0
    assert np.isfinite(generic)


@pytest.fixture(scope="module")
def small():
    return union_instance(12, 10, 3, 4, seed=21)


@pytest.fixture(scope="module")
def split_123():
    """The 1/2/3 space of a 64 + 64 split, with its MDS sides (which
    come back Fortran-ordered)."""
    X, P = build_123_metric(sample_split(64, 0))
    phi_a = mds_isometric_embed(validate_metric(X.sub(P.idx_a)))
    phi_b = mds_isometric_embed(validate_metric(X.sub(P.idx_b)))
    return X, P, phi_a, phi_b


def test_embed_union_shape_and_bounds(small):
    X, P = small.space, small.partition
    params = EmbedParams.derive(0.5, 1.0, 1.0)
    emb = embed_union(X, P, small.phi_a, small.phi_b, params=params)
    assert emb.full.dim == small.phi_a.dim + small.phi_b.dim + 1
    assert emb.full.m == X.n
    assert emb.report.contraction <= 1.0 + 1e-9
    assert emb.report.expansion <= headline_bound(params) + 1e-9
    assert emb.scale_a == 1.0 and emb.scale_b == 1.0


def test_embed_union_audit_complete(small):
    X, P = small.space, small.partition
    emb = embed_union(X, P, small.phi_a, small.phi_b,
                      params=EmbedParams.derive(0.5, 1.0, 1.0))
    names = {e.name for e in emb.audit}
    for side in ("psi_a", "psi_b"):
        for item in PSI_ITEMS:
            assert f"{side}.{item}" in names
    for item in FULL_ITEMS:
        assert f"full.{item}" in names
    assert all(e.ok() for e in emb.audit)
    # pairwise entries carry a witness pair of space indices
    by_name = {e.name: e for e in emb.audit}
    w = by_name["full.expansion"].witness
    assert w is not None and all(0 <= i < X.n for i in w)


def test_embed_union_auto_params(small):
    # isometric sides select the tighter cover parameter automatically
    emb = embed_union(small.space, small.partition, small.phi_a, small.phi_b)
    assert emb.params.alpha == 0.3114
    assert emb.report.expansion <= 8.93


def test_embed_union_overlap():
    inst = union_instance(10, 9, 2, 3, seed=22, overlap=4)
    emb = embed_union(inst.space, inst.partition, inst.phi_a, inst.phi_b,
                      params=EmbedParams.derive(0.5, 1.0, 1.0))
    D = emb.full.points
    # shared points receive a single well-defined image
    assert emb.report.contraction <= 1.0 + 1e-9
    assert np.all(np.isfinite(D))


def test_embed_union_distorted_sides():
    inst = distort_sides(union_instance(14, 12, 3, 3, seed=23), 1.5, 2.0)
    params = EmbedParams.derive(0.5, 1.5, 2.0)
    emb = embed_union(inst.space, inst.partition, inst.phi_a, inst.phi_b,
                      params=params)
    assert emb.report.expansion <= 7.0 * 3.0 + 2.0 * 3.5 + 1e-9
    assert emb.report.contraction <= 1.0 + 1e-9


def test_gamma_mutation_is_caught(small):
    X, P = small.space, small.partition
    params = EmbedParams.derive(0.5, 1.0, 1.0)
    broken = dataclasses.replace(params, gamma=params.beta)
    with pytest.raises(AuditViolation) as info:
        embed_union(X, P, small.phi_a, small.phi_b, params=broken)
    exc = info.value
    assert exc.name.startswith("full.")
    assert exc.witness is not None
    assert exc.entries          # full audit list travels with the failure
    assert any(not e.ok() for e in exc.entries)


def test_contracting_side_is_rescaled(small):
    X, P = small.space, small.partition
    emb = embed_union(X, P, small.phi_a.scaled(0.98), small.phi_b,
                      params=EmbedParams.derive(0.5, 1.0, 1.0))
    assert emb.scale_a == pytest.approx(1.0 / 0.98, rel=1e-12)
    assert emb.scale_b == 1.0
    assert emb.report.contraction <= 1.0 + 1e-9


def test_underclaimed_lipschitz_rejected():
    inst = distort_sides(union_instance(10, 10, 2, 2, seed=24), 1.5, 1.0)
    with pytest.raises(InputDistortionError):
        embed_union(inst.space, inst.partition, inst.phi_a, inst.phi_b,
                    params=EmbedParams.derive(0.5, 1.0, 1.0))


def test_embed_union_deterministic(small):
    X, P = small.space, small.partition
    params = EmbedParams.derive(0.5, 1.0, 1.0)
    e1 = embed_union(X, P, small.phi_a, small.phi_b, params=params)
    e2 = embed_union(X, P, small.phi_a, small.phi_b, params=params)
    np.testing.assert_array_equal(e1.full.points, e2.full.points)
    assert e1.report.expansion == e2.report.expansion


def test_embed_union_independent_of_input_layout(small, split_123):
    cases = [(*split_123, None),
             (small.space, small.partition, small.phi_a, small.phi_b,
              EmbedParams.derive(0.5, 1.0, 1.0))]
    for X, P, phi_a, phi_b, params in cases:
        c_out, f_out = (
            embed_union(X, P, order(phi_a.points), order(phi_b.points),
                        params=params).as_dict()
            for order in (np.ascontiguousarray, np.asfortranarray))
        assert c_out == f_out


def test_embed_union_measures_each_side_once(kernel_calls, split_123):
    # per side one measurement (two when it is rescaled), per build_psi
    # that places a point the extension's final gate on sources and
    # targets and psi itself, and the direct sum: 9 calls, not 21.  When
    # every A point is a cover point (the spectral split), nothing is
    # extended and psi re-indexes phi_b's matrix: 5 calls.
    inst = union_instance(30, 25, 3, 4, seed=1)
    cases = [(*split_123, None, 5),
             (inst.space, inst.partition, inst.phi_a, inst.phi_b,
              EmbedParams.derive(0.5, 1, 1), 9)]
    for X, P, phi_a, phi_b, params, most in cases:
        kernel_calls.clear()
        embed_union(X, P, phi_a, phi_b, params=params)
        assert 0 < len(kernel_calls) <= most


def _ulps_close(a, b, ulps=8):
    """Within ``ulps`` units of relative rounding of each other."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return bool(np.all(np.abs(a - b)
                       <= ulps * np.finfo(float).eps * np.abs(b)))


def test_carried_matrix_is_the_kernel_output(split_123, small):
    X, P, phi_a, phi_b = split_123
    emb = embed_union(X, P, phi_a, phi_b)
    side, _, scale = _normalize_side(X, P.idx_a, phi_a)
    assert scale > 1.0   # the MDS simplex contracts by a few ulps
    kept, _, same = _normalize_side(small.space, small.partition.idx_a,
                                    small.phi_a)
    assert same == 1.0
    inst = union_instance(30, 25, 3, 4, seed=1)   # psi places A points
    psi = build_psi(inst.space, inst.partition, inst.phi_a, inst.phi_b,
                    EmbedParams.derive(0.5, 1.0, 1.0))
    assert np.setdiff1d(inst.partition.idx_a, psi.cover.cover_idx).size
    # measured clouds carry the kernel's output bit for bit
    for cloud in (phi_a, kept, psi.cloud):
        copy = cloud.points.copy()
        assert np.array_equal(cloud.sq_dist, metric._squared_distances(copy))
        assert np.array_equal(pairwise_distances(cloud),
                              pairwise_distances(copy))
    # derived ones carry the stated sum or scale**2 times the measured
    # matrix, bit for bit, within 8 ulps of the kernel's output
    assert np.array_equal(side.sq_dist, scale * scale * phi_a.sq_dist)
    side_b = _normalize_side(X, P.idx_b, phi_b)[0]
    psi_b = build_psi(X, P, side, side_b, emb.params).cloud
    psi_a = build_psi(X, P.swapped(), side_b, side,
                      emb.params.swapped()).cloud
    np.testing.assert_array_equal(
        emb.full.points, np.hstack([psi_a.points, psi_b.points,
                                    emb.psi_delta.points]))
    assert np.array_equal(emb.full.sq_dist, psi_a.sq_dist + psi_b.sq_dist
                          + metric._squared_distances(emb.psi_delta.points))
    for cloud in (phi_a, side, kept, psi.cloud, emb.full):
        sq = cloud.sq_dist
        assert not sq.flags.writeable
        assert _ulps_close(sq, metric._squared_distances(cloud.points.copy()))
    # the returned summands, take() and scaled() carry no matrix
    assert all(c.sq_dist is None
               for c in (emb.psi_a, emb.psi_b, emb.psi_delta))
    assert phi_a.take([0, 1]).sq_dist is None
    assert phi_a.scaled(2.0).sq_dist is None


def test_caller_clouds_never_carry_a_matrix(small):
    phi_a, phi_b = (PointCloud(c.points) for c in (small.phi_a, small.phi_b))
    emb = embed_union(small.space, small.partition, phi_a, phi_b,
                      params=EmbedParams.derive(0.5, 1.0, 1.0))
    assert emb.full.sq_dist is not None
    assert phi_a.sq_dist is None and phi_b.sq_dist is None
    G = sample_glue_instance(12, 10, 9, 2, 3, seed=4, wobble=0.2)
    external_extend(G)
    assert G.u_points.sq_dist is None and G.v_points.sq_dist is None


def test_spectral_leg_measures_each_cloud_once(kernel_calls, split_123):
    # with MDS sides, only psi_Delta's single coordinate calls the
    # kernel: the rescaled sides carry scale**2 times their matrices,
    # full the sum of its summands', and distortion_of and ratio_check
    # reuse full's (7 calls when each cloud was measured again)
    X, P, phi_a, phi_b = split_123
    split = sample_split(64, 0)
    kernel_calls.clear()
    emb = embed_union(X, P, phi_a, phi_b)
    report = distortion_of(X, emb.full)
    ratios = ratio_check(split, emb.full)
    assert len(kernel_calls) <= 1
    assert all(c.dim == 1 for c in kernel_calls)
    assert sum(c.work for c in kernel_calls) <= X.n ** 2
    # and they agree with measuring a plain copy within 8 ulps; a witness
    # may move among tied pairs, but attains its extreme there too
    plain = emb.full.points.copy()
    again = distortion_of(X, plain)
    for name in ("expansion", "contraction", "distortion"):
        assert _ulps_close(getattr(report, name), getattr(again, name))
    ratio = pairwise_distances(plain) / np.where(X.dist > 0.0, X.dist, 1.0)
    assert _ulps_close(ratio[report.expansion_pair], again.expansion)
    assert _ulps_close(1.0 / ratio[report.contraction_pair],
                       again.contraction)
    assert _ulps_close(ratios, ratio_check(split, plain))


def test_spectral_leg_kernel_budget(kernel_calls):
    # one whole leg at n = 64: the two MDS sides, embed_union (psi_Delta's
    # coordinate) and the best-effort cloud measure once each, and
    # distortion_of and ratio_check reuse what both clouds carry: 4 calls
    # (5 when the best-effort cloud was measured by each of them)
    split = sample_split(64, 0)
    X, P = build_123_metric(split)
    kernel_calls.clear()
    phi_a, phi_b = (mds_isometric_embed(validate_metric(X.sub(idx)))
                    for idx in (P.idx_a, P.idx_b))
    emb = embed_union(X, P, phi_a, phi_b)
    best = mds_best_effort(X)
    for cloud in (emb.full, best):
        report = distortion_of(X, cloud)
        ratios = ratio_check(split, cloud)
    assert len(kernel_calls) == 4
    # the carried matrix is the kernel's output: the same report and
    # ratios, bit for bit, as measuring a plain copy again
    plain = best.points.copy()
    assert distortion_of(X, plain) == report
    assert ratio_check(split, plain) == ratios


def test_full_pair_entries_are_the_report(small, split_123):
    # full.noncontract and full.expansion come from the one all-pairs
    # scan that gives the report, with its witnesses
    for X, P, phi_a, phi_b in ((small.space, small.partition, small.phi_a,
                                small.phi_b), split_123):
        emb = embed_union(X, P, phi_a, phi_b)
        entry = {e.name: e for e in emb.audit}
        lower, upper = entry["full.noncontract"], entry["full.expansion"]
        assert lower.measured == 1.0 / emb.report.contraction
        assert lower.witness == emb.report.contraction_pair
        assert upper.measured == emb.report.expansion
        assert upper.witness == emb.report.expansion_pair
    # a one-point space has no pair: no pairwise entry, trivial report
    X = validate_metric([[0.0]])
    emb = embed_union(X, build_partition(X, [0], [0]), np.zeros((1, 1)),
                      np.zeros((1, 1)))
    assert [e.name for e in emb.audit] == ["psi_a.g_lip", "psi_b.g_lip",
                                           "full.headline_consistent"]
    assert emb.report.as_dict() == {
        "expansion": 1.0, "contraction": 1.0, "distortion": 1.0,
        "expansion_pair": None, "contraction_pair": None, "n_points": 1}


def _spread_pairs(n, dim, seed):
    """Side A spread far apart with one B point just off each A point:
    every A point is a cover point, so build_psi places none."""
    rng = stream(seed, "test.spread_pairs")
    a = 10.0 * rng.normal(size=(n, dim))
    b = a + 0.1 * rng.normal(size=a.shape)
    X = validate_metric(pairwise_distances(np.vstack([a, b])))
    return X, build_partition(X, np.arange(n), np.arange(n, 2 * n)), a, b


def test_build_psi_side_dist_parity(split_123):
    inst = union_instance(30, 25, 3, 4, seed=1)
    iso = EmbedParams.derive(select_alpha(1.0, 1.0), 1.0, 1.0)
    cases = [(inst.space, inst.partition, inst.phi_a, inst.phi_b,
              EmbedParams.derive(0.5, 1.0, 1.0)),
             (*split_123, iso),
             (*_spread_pairs(20, 3, 0), iso)]
    placed = []
    for X, P, phi_a, phi_b, params in cases:
        # build_psi measures plain side clouds itself and re-indexes the
        # matrices that measured ones carry
        plain = [PointCloud(getattr(c, "points", c)) for c in (phi_a, phi_b)]
        measured = [_measured(c) for c in plain]
        own, given = (build_psi(X, P, *sides, params)
                      for sides in (plain, measured))
        np.testing.assert_array_equal(own.cloud.points, given.cloud.points)
        assert ([e.as_dict() for e in own.entries]
                == [e.as_dict() for e in given.entries])
        # re-indexed matrices give what measuring the clouds again gives
        assert given.gmap.lip == PartialMap(given.gmap.sources,
                                            given.gmap.targets).lip
        ratio = pairwise_distances(given.cloud) / np.where(
            X.dist > 0.0, X.dist, np.inf)
        ia, ib = P.idx_a, P.idx_b
        same_a, same_b = (idx[np.array(np.triu_indices(idx.size, k=1))]
                          for idx in (ia, ib))
        cross = np.array(np.meshgrid(ia, ib)).reshape(2, -1)
        by_name = {e.name: e for e in given.entries}
        for item, (i, j), extreme in (("away_upper", same_a, np.max),
                                      ("home_lower", same_b, np.min),
                                      ("home_upper", same_b, np.max),
                                      ("cross_upper", cross, np.max)):
            e = by_name[f"psi.{item}"]
            assert e.measured == extreme(ratio[i, j]) == ratio[e.witness]
        placed.append(P.idx_a.size - given.cover.cover_idx.size)
    # only the first instance places points; on the others psi's matrix
    # re-indexes phi_b's
    assert placed[0] > 0 and placed[1:] == [0, 0]


def test_mismatched_side_shapes_rejected(small):
    X, P = small.space, small.partition
    with pytest.raises(InputError):
        build_psi(X, P, small.phi_b, small.phi_a,
                  EmbedParams.derive(0.5, 1.0, 1.0))
    with pytest.raises(InputError):
        embed_union(X, P, small.phi_b, small.phi_a)


def test_multiscale_inputs_never_stall():
    # points scaled one by one over twelve decades embed or are refused by
    # name; the Kirszbraun placements never stall on them
    for seed in range(300):
        rng = stream(seed, "fuzz.multiscale")
        dim = int(rng.integers(1, 6))
        n_a, n_b = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        n = n_a + n_b
        P = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-6, 6, (n, 1))
        try:
            X = validate_metric(pairwise_distances(P))
            part = build_partition(X, np.arange(n_a), np.arange(n_a, n))
            embed_union(X, part, P[:n_a], P[n_a:])
        except MetricUnionError as exc:
            # seed 80 is still refused with AuditViolation: its
            # full.delta_lip_b entry is rounding of near-duplicate points
            assert not isinstance(exc, SolverStall), (seed, str(exc))
