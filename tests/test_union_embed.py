"""Two-sided embedding: parameters, bounds, audits, fault injection."""

import dataclasses
import math

import numpy as np
import pytest

from metric_union import (AuditViolation, EmbedParams, InputDistortionError,
                          InputError, MetricUnionError, PartialMap,
                          SolverStall, build_123_metric, build_partition,
                          build_psi, distort_sides, embed_union,
                          headline_bound, mds_isometric_embed,
                          pairwise_distances, sample_split, select_alpha,
                          stream, union_instance, validate_metric)
from metric_union import metric

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


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = metric._squared_distances

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(metric, "_squared_distances", counted)
    return calls


def test_embed_union_measures_each_side_once(monkeypatch, split_123):
    # per side one measurement (two when it is rescaled), per build_psi
    # the extension's final gate on sources and targets (and psi itself
    # when a point is placed), and the direct sum: 9 calls, not 21
    inst = union_instance(30, 25, 3, 4, seed=1)
    cases = [(*split_123, None),
             (inst.space, inst.partition, inst.phi_a, inst.phi_b,
              EmbedParams.derive(0.5, 1, 1))]
    calls = _count_kernel_calls(monkeypatch)
    for X, P, phi_a, phi_b, params in cases:
        calls.clear()
        embed_union(X, P, phi_a, phi_b, params=params)
        assert 0 < len(calls) <= 9


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
        side_dist = pairwise_distances(phi_a), pairwise_distances(phi_b)
        own, given = (build_psi(X, P, phi_a, phi_b, params, side_dist=sd)
                      for sd in (None, side_dist))
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
        build_psi(X, P, small.phi_a, small.phi_b,
                  EmbedParams.derive(0.5, 1.0, 1.0),
                  side_dist=(pairwise_distances(small.phi_b),
                             pairwise_distances(small.phi_a)))
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
