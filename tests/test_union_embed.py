"""Two-sided embedding: parameters, bounds, audits, fault injection."""

import dataclasses
import math

import numpy as np
import pytest

from metric_union import (AuditViolation, EmbedParams, InputDistortionError,
                          InputError, MetricUnionError, PartialMap,
                          PointCloud, SolverStall, build_123_metric,
                          build_cover, build_partition, canonical_dumps,
                          distort_sides, distortion_of, embed_union,
                          external_extend, headline_bound, mds_best_effort,
                          mds_isometric_embed, pairwise_distances,
                          ratio_check, sample_glue_instance, sample_split,
                          select_alpha, stream, union_instance,
                          validate_metric)
from metric_union import metric, union_embed
from metric_union.acceptance import _Context
from metric_union.linalg import _measured
from metric_union.union_embed import (_normalize_side, _pair_families,
                                      _swapped, build_psi)

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
    # one side-constant rule: a constant below 1 by any margin is refused
    for d_a, d_b in ((1.0 - 1e-13, 1.0), (1.0, 1.0 - 1e-13)):
        with pytest.raises(InputError):
            select_alpha(d_a, d_b)
        with pytest.raises(InputError):
            EmbedParams.derive(0.5, d_a, d_b)


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


@pytest.mark.parametrize("alpha, d_a, d_b", [
    (1e-160, 1.0, 1.0), (1e-200, 1.0, 1.0), (1e-300, 1.0, 1.0),
    (1e-320, 1.0, 1.0), (0.4, 1e200, 1.0), (0.5, 1.0, 1e200),
    (0.5, math.nan, 1.0), (0.5, 1.0, math.inf), (math.nan, 1.0, 1.0)])
def test_params_derive_refuses_constants_that_are_not_finite(alpha, d_a, d_b):
    # a squared bound past float range raised a bare OverflowError from
    # headline_bound, inf ones failed the audit as inf against inf, and a
    # nan side constant was taken and failed the audit with bound nan
    with pytest.raises(InputError):
        EmbedParams.derive(alpha, d_a, d_b)


def test_params_derive_takes_small_alphas_whose_bounds_are_finite():
    p = EmbedParams.derive(1e-100, 1.0, 1.0)
    assert math.isfinite(headline_bound(p))


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


def test_embed_union_scans_each_side_once(report_scans, split_123):
    # one all-pairs scan per side, checked against params without another,
    # and one of full: 3 scans, 5 when both sides are rescaled (7 and 9
    # when each build_psi scanned both sides again); alpha reads the side
    # constants from the same scans
    inst = union_instance(30, 25, 3, 4, seed=1)
    cases = [(inst.space, inst.partition, inst.phi_a, inst.phi_b,
              {"params": EmbedParams.derive(0.5, 1.0, 1.0)}, 3),
             (inst.space, inst.partition, inst.phi_a, inst.phi_b,
              {"alpha": 0.5}, 3),
             (*split_123, {}, 5)]
    for X, P, phi_a, phi_b, kwargs, expected in cases:
        report_scans.clear()
        embed_union(X, P, phi_a, phi_b, **kwargs)
        assert len(report_scans) == expected


def test_alpha_is_params_derived_from_the_measured_sides():
    # alpha measures d_a and d_b, params claims them: on the selftest
    # battery the two give the same embedding bit for bit when the claim
    # is what the side reports measure
    for k, inst in enumerate(_Context(0).battery):
        X, P = inst.space, inst.partition
        alpha = (0.5, 0.3114, 0.4)[k % 3]
        d_a, d_b = (max(_normalize_side(X, idx, phi)[1].expansion, 1.0)
                    for idx, phi in ((P.idx_a, inst.phi_a),
                                     (P.idx_b, inst.phi_b)))
        measured = embed_union(X, P, inst.phi_a, inst.phi_b, alpha=alpha)
        claimed = embed_union(X, P, inst.phi_a, inst.phi_b,
                              params=EmbedParams.derive(alpha, d_a, d_b))
        assert measured.params == claimed.params
        assert np.array_equal(measured.full.points, claimed.full.points)
        assert canonical_dumps(measured.as_dict()) \
            == canonical_dumps(claimed.as_dict())


def test_alpha_and_params_together_are_refused(small):
    with pytest.raises(InputError, match="alpha or params"):
        embed_union(small.space, small.partition, small.phi_a, small.phi_b,
                    params=EmbedParams.derive(0.5, 1.0, 1.0), alpha=0.5)


def test_swapping_the_sides_swaps_the_embedding():
    # embed_union(X, P.swapped(), phi_B, phi_A) is the forward run with
    # psi_A and psi_B exchanged and psi_Delta negated, bit for bit
    for k in range(30):
        inst = union_instance(6 + k, 5 + (7 * k) % 23, 2 + k % 3,
                              2 + (k // 3) % 3, seed=200 + k, overlap=k % 3)
        X, P = inst.space, inst.partition
        fwd = embed_union(X, P, inst.phi_a, inst.phi_b)
        back = embed_union(X, P.swapped(), inst.phi_b, inst.phi_a)
        assert np.array_equal(back.psi_a.points, fwd.psi_b.points)
        assert np.array_equal(back.psi_b.points, fwd.psi_a.points)
        assert np.array_equal(back.psi_delta.points, -fwd.psi_delta.points)
        assert np.array_equal(back.full.points, np.hstack(
            [fwd.psi_b.points, fwd.psi_a.points, -fwd.psi_delta.points]))
        assert back.full.sq_dist.tobytes() == fwd.full.sq_dist.tobytes()
        assert back.report == fwd.report   # witnesses included
        assert back.params == fwd.params.swapped()
        assert (back.scale_a, back.scale_b) == (fwd.scale_b, fwd.scale_a)


def test_embed_union_reaches_build_psi_by_module_attribute(monkeypatch,
                                                           small):
    # the benchmark's traced run wraps union_embed.build_psi by name
    names = []
    step = union_embed.build_psi

    def counted(*args, name):
        names.append(name)
        return step(*args, name=name)

    monkeypatch.setattr(union_embed, "build_psi", counted)
    embed_union(small.space, small.partition, small.phi_a, small.phi_b)
    assert names == ["psi_b", "psi_a"]


def test_embed_union_builds_the_pair_families_once(monkeypatch, small,
                                                   split_123):
    # psi_b, psi_a and the direct-sum audit read one set of pair families
    calls = []
    build = union_embed._pair_families

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(union_embed, "_pair_families", counted)
    inst = union_instance(20, 15, 2, 3, seed=4, overlap=3)
    for X, P, phi_a, phi_b in ((small.space, small.partition, small.phi_a,
                                small.phi_b), split_123,
                               (inst.space, inst.partition, inst.phi_a,
                                inst.phi_b)):
        calls.clear()
        embed_union(X, P, phi_a, phi_b)
        assert len(calls) == 1
    # psi_a reads the cross pairs in B x A row-major order, as a mesh over
    # (B, A) lists them, without an overlap point paired with itself
    P = inst.partition
    fams, r = build(inst.space, P)
    (xb, xa), dx = _swapped(fams, P)[2]
    gb, ga = (g.ravel() for g in np.meshgrid(P.idx_b, P.idx_a,
                                              indexing="ij"))
    keep = gb != ga
    assert P.overlap.size == 3 and keep.sum() == xb.size
    assert np.array_equal(xb, gb[keep]) and np.array_equal(xa, ga[keep])
    assert np.array_equal(dx, inst.space.dist[xb, xa])
    assert np.array_equal(r[xb], np.repeat(P.r_b, P.idx_a.size)[keep])


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
    Y, Q = inst.space, inst.partition
    psi, _ = build_psi(Y, Q, _normalize_side(Y, Q.idx_a, inst.phi_a)[0],
                       _normalize_side(Y, Q.idx_b, inst.phi_b)[0],
                       EmbedParams.derive(0.5, 1.0, 1.0),
                       *_pair_families(Y, Q), "psi")
    assert np.setdiff1d(Q.idx_a, build_cover(Y, Q, 0.5).cover_idx).size
    # measured clouds carry the kernel's output bit for bit
    for cloud in (phi_a, kept, psi):
        copy = cloud.points.copy()
        assert np.array_equal(cloud.sq_dist, metric._squared_distances(copy))
        assert np.array_equal(pairwise_distances(cloud),
                              pairwise_distances(copy))
    # derived ones carry the stated sum or scale**2 times the measured
    # matrix, bit for bit, within 8 ulps of the kernel's output
    assert np.array_equal(side.sq_dist, scale * scale * phi_a.sq_dist)
    side_b = _normalize_side(X, P.idx_b, phi_b)[0]
    fams, r = _pair_families(X, P)
    psi_b, _ = build_psi(X, P, side, side_b, emb.params, fams, r, "psi_b")
    psi_a, _ = build_psi(X, P.swapped(), side_b, side, emb.params.swapped(),
                         _swapped(fams, P), r, "psi_a")
    np.testing.assert_array_equal(
        emb.full.points, np.hstack([psi_a.points, psi_b.points,
                                    emb.psi_delta.points]))
    assert np.array_equal(emb.full.sq_dist, psi_a.sq_dist + psi_b.sq_dist
                          + metric._squared_distances(emb.psi_delta.points))
    for cloud in (phi_a, side, kept, psi, emb.full):
        sq = cloud.sq_dist
        assert not sq.flags.writeable
        assert _ulps_close(sq, metric._squared_distances(cloud.points.copy()))
    # the returned summands carry no matrix
    assert all(c.sq_dist is None
               for c in (emb.psi_a, emb.psi_b, emb.psi_delta))


def test_take_and_scaled_carry_the_derived_matrix(split_123):
    phi_a = split_123[2]
    sq = phi_a.sq_dist
    i = np.array([5, 0, 17, 5, 3])
    sub = phi_a.take(i)
    assert np.array_equal(sub.sq_dist, sq[np.ix_(i, i)])
    assert not sub.sq_dist.flags.writeable
    f = 1.0 + 3e-16
    big = phi_a.scaled(f)
    assert np.array_equal(big.sq_dist, f * f * sq)
    assert not big.sq_dist.flags.writeable
    assert np.array_equal(big.take(i).sq_dist, (f * f * sq)[np.ix_(i, i)])
    assert phi_a.sq_dist is sq
    # a caller's cloud, and whatever is derived from it, carries none
    plain = PointCloud(phi_a.points)
    for cloud in (plain.take(i), plain.scaled(f), plain):
        assert cloud.sq_dist is None


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
        # measured sides, as _normalize_side hands them on unless it
        # rescales (a rescaled matrix rounds within ulps of measuring again)
        ia, ib = P.idx_a, P.idx_b
        side_a, side_b = (_measured(PointCloud(getattr(c, "points", c)))
                          for c in (phi_a, phi_b))
        psi, entries = build_psi(X, P, side_a, side_b, params,
                                 *_pair_families(X, P), "psi")
        by_name = {e.name: e for e in entries}
        # re-indexed matrices give what measuring the clouds again gives
        C = build_cover(X, P, params.alpha)
        row_a, row_b = ({int(s): k for k, s in enumerate(idx)}
                        for idx in (ia, ib))
        ca = [row_a[int(s)] for s in C.cover_idx]
        nb = [row_b[int(t)] for t in C.nearest]
        assert by_name["psi.g_lip"].measured == PartialMap(
            PointCloud(side_a.points[ca]),
            PointCloud(side_b.points[nb])).lip
        ratio = pairwise_distances(psi) / np.where(
            X.dist > 0.0, X.dist, np.inf)
        same_a, same_b = (idx[np.array(np.triu_indices(idx.size, k=1))]
                          for idx in (ia, ib))
        cross = np.array(np.meshgrid(ia, ib)).reshape(2, -1)
        for item, (i, j), extreme in (("away_upper", same_a, np.max),
                                      ("home_lower", same_b, np.min),
                                      ("home_upper", same_b, np.max),
                                      ("cross_upper", cross, np.max)):
            e = by_name[f"psi.{item}"]
            assert e.measured == extreme(ratio[i, j]) == ratio[e.witness]
        placed.append(ia.size - C.cover_idx.size)
    # only the first instance places points; on the others psi's matrix
    # re-indexes phi_b's
    assert placed[0] > 0 and placed[1:] == [0, 0]


def test_mismatched_side_shapes_rejected(small):
    X, P = small.space, small.partition
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
