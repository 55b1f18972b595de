"""End-to-end acceptance battery behind the ``selftest`` command.

Twelve checks run at desk scale: ten verify the package's certified
guarantees on seeded random inputs (headline distortion bounds, map
audits, cover properties, extension certificates, the spectral lower
bound, metric validity, gluing, and report determinism) and two inject
faults to confirm the failure paths fire (a corrupted construction
constant must trip an audit; zero tolerance must surface a solver stall).

Every check reports one PASS/FAIL line.  Details never include wall-clock
times, so the printed table is byte-identical across runs with the same
seed; timing per check goes to stderr.
"""

import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cover import build_cover, f_lip_bound
from .errors import (AuditViolation, MetricUnionError, RetryBudgetExceeded,
                     SolverStall)
from .glue import external_extend, glue_instance, glued_metric
from .instances import distort_sides, sample_glue_instance, union_instance
from .jsonio import canonical_dumps
from .kirszbraun import PartialMap, extend_one_point, extend_sequential
from .linalg import mds_best_effort, mds_isometric_embed
from .lower_bound import (build_123_metric, certified_lower_bound,
                          ratio_check, sample_split)
from .metric import (PointCloud, _measured, distortion_of,
                     pairwise_distances, validate_metric)
from .seeds import stream
from .union_embed import EmbedParams, embed_union

__all__ = ["CheckResult", "run_all", "run_selftest"]

_PSI_ITEMS = ("away_upper", "home_lower", "home_upper",
              "cross_upper", "cross_lower")


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str

    def as_dict(self):
        return {"label": self.label, "passed": self.passed,
                "detail": self.detail}


def _fmt(x):
    return format(float(x), ".6e")


class _Context:
    """Shared instances and embeddings, built once, reused across checks."""

    def __init__(self, seed):
        self.seed = seed
        self.battery_seconds = None   # set when runs_half is first built

    @cached_property
    def battery(self):
        insts = []
        for k in range(50):
            rng = stream(self.seed, "acceptance.sizes", k)
            insts.append(union_instance(
                int(rng.integers(10, 61)), int(rng.integers(10, 61)),
                int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                seed=self.seed + k))
        return insts

    @cached_property
    def runs_half(self):
        params = EmbedParams.derive(0.5, 1.0, 1.0)
        t0 = time.perf_counter()
        runs = [embed_union(i.space, i.partition, i.phi_a, i.phi_b,
                            params=params)
                for i in self.battery]
        self.battery_seconds = time.perf_counter() - t0
        return runs

    @cached_property
    def runs_iso(self):
        params = EmbedParams.derive(0.3114, 1.0, 1.0)
        return [embed_union(i.space, i.partition, i.phi_a, i.phi_b,
                            params=params)
                for i in self.battery]

    @cached_property
    def distorted(self):
        """20 instances with first-coordinate side scalings, plus bounds."""
        factors = [(da, db) for da in (1.5, 2.0, 3.0)
                   for db in (1.5, 2.0, 3.0)]
        out = []
        for k in range(20):
            rng = stream(self.seed, "acceptance.distorted", k)
            base = union_instance(
                int(rng.integers(10, 41)), int(rng.integers(10, 41)),
                int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                seed=self.seed + 500 + k)
            da, db = factors[k % len(factors)]
            inst = distort_sides(base, da, db)
            params = EmbedParams.derive(0.5, da, db)
            emb = embed_union(inst.space, inst.partition,
                              inst.phi_a, inst.phi_b, params=params)
            out.append((inst, da, db, emb))
        return out

    @cached_property
    def splits(self):
        """sample_split outcome per n in {16, 64, 256}: split or error."""
        out = {}
        for n in (16, 64, 256):
            try:
                out[n] = sample_split(n, self.seed)
            except RetryBudgetExceeded as exc:
                out[n] = exc
        return out

    @cached_property
    def glue(self):
        """20 glue instances; the first is the order-reversing line map."""
        line = glue_instance(
            np.array([[0.0], [1.0], [2.0]]),
            np.array([[0.0], [2.0], [1.0]]),
            np.array([0, 1, 2]), np.array([0, 1, 2]),
            np.array([0, 1, 2]))
        out = [line]
        for k in range(19):
            rng = stream(self.seed, "acceptance.glue", k)
            out.append(sample_glue_instance(
                int(rng.integers(2, 9)), int(rng.integers(0, 13)),
                int(rng.integers(0, 13)), int(rng.integers(1, 5)),
                int(rng.integers(1, 5)), seed=self.seed + 900 + k,
                wobble=float(rng.uniform(0.0, 0.5))))
        return out


def check_headline_bound(ctx):
    """50 seeded instances at alpha = 1/2: distortion <= 11 + 1e-6."""
    runs = ctx.runs_half
    worst_d = max(r.report.distortion for r in runs)
    worst_ratio = min(1.0 / r.report.contraction for r in runs)
    timed_ok = ctx.battery_seconds <= 60.0
    ok = (worst_d <= 11.0 + 1e-6 and worst_ratio >= 1.0 - 1e-9 and timed_ok)
    detail = (f"50 instances: max distortion {_fmt(worst_d)} vs 11+1e-6, "
              f"min pair ratio {_fmt(worst_ratio)}, "
              f"runtime {'within' if timed_ok else 'OVER'} 60s")
    return CheckResult("01 headline-bound", ok, detail)


def check_iso_bound(ctx):
    """Same instances at alpha = 0.3114: distortion < 8.93."""
    worst = max(r.report.distortion for r in ctx.runs_iso)
    return CheckResult("02 isometric-sharp-bound", worst < 8.93,
                       f"50 instances: max distortion {_fmt(worst)} vs 8.93")


def check_distorted_inputs(ctx):
    """Side scalings at (1.5, 2, 3): distortion <= 7 da db + 2(da+db)."""
    worst_slack = np.inf
    worst_txt = ""
    ok = True
    for _, da, db, emb in ctx.distorted:
        bound = 7.0 * da * db + 2.0 * (da + db) + 1e-6
        slack = bound - emb.report.distortion
        if slack < worst_slack:
            worst_slack = slack
            worst_txt = (f"D=({da:g},{db:g}) distortion "
                         f"{_fmt(emb.report.distortion)} vs {_fmt(bound)}")
        ok = ok and slack >= 0.0
    return CheckResult("03 distorted-inputs", ok,
                       f"20 instances: tightest {worst_txt}")


def check_psi_audit(ctx):
    """Per-pair map inequalities hold on every run; beta is exact."""
    runs = (ctx.runs_half + ctx.runs_iso
            + [emb for *_, emb in ctx.distorted])
    n_entries = 0
    ok = True
    worst = np.inf
    for emb in runs:
        p = emb.params
        exact = (1.0 + p.alpha) * (2.0 * p.d_a * p.d_b + 1.0)
        ok = ok and (p.beta == exact)
        for e in emb.audit:
            if e.name.split(".")[-1] in _PSI_ITEMS:
                n_entries += 1
                rel = e.slack / max(abs(e.bound), 1.0)
                worst = min(worst, rel)
                ok = ok and e.ok()
    return CheckResult(
        "04 map-audit-items", ok,
        f"{n_entries} entries over {len(runs)} runs: "
        f"min relative slack {_fmt(worst)}; beta exact on all")


def check_cover_properties(ctx):
    """Both cover properties and lip(f), which build_cover verifies
    exhaustively and certifies, on every instance."""
    n_covers = 0
    worst = -np.inf
    jobs = [(i, a) for i in ctx.battery for a in (0.5, 0.3114)]
    jobs += [(inst, 0.5) for inst, *_ in ctx.distorted]
    for inst, alpha in jobs:
        for P in (inst.partition, inst.partition.swapped()):
            C = build_cover(inst.space, P, alpha)
            worst = max(worst, C.lip_f / f_lip_bound(alpha))
            n_covers += 1
    return CheckResult(
        "05 cover-properties", True,
        f"{n_covers} covers verified exhaustively; "
        f"max lip(f)/bound {_fmt(worst)}")


def _grid_oracle(tgt, d):
    """Multilevel 2-D grid minimizer of max ||y - t_i|| / d_i.

    The optimum lies in the convex hull of the targets (projecting onto
    the hull shrinks every distance), so the first grid spans their
    bounding box; each level re-centers on the incumbent and shrinks.
    """
    lo, hi = tgt.min(axis=0), tgt.max(axis=0)
    center = 0.5 * (lo + hi)
    span = float((hi - lo).max()) * 0.5 + 1e-12
    best = np.inf
    for _ in range(14):
        gx = np.linspace(center[0] - span, center[0] + span, 81)
        gy = np.linspace(center[1] - span, center[1] + span, 81)
        pts = np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)
        ratios = pairwise_distances(pts, tgt) / d
        F = ratios.max(axis=1)
        k = int(np.argmin(F))
        if F[k] < best:
            best = float(F[k])
            center = pts[k]
        span *= 0.15
    return best


def check_extension_certificates(ctx):
    """Sequential extensions stay Lipschitz; planar solves match a grid."""
    worst_rel = -np.inf
    for k in range(100):
        rng = stream(ctx.seed, "acceptance.kirszbraun", k)
        m = int(rng.integers(2, 31))
        q = int(rng.integers(1, 11))
        ds, dt = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        src = rng.normal(size=(m, ds))
        tgt = rng.normal(size=(m, dt)) * float(rng.uniform(0.5, 2.0))
        M = PartialMap(PointCloud(src), PointCloud(tgt))
        xs = PointCloud(rng.normal(size=(q, ds)))
        out = extend_sequential(M, xs, tol=1e-7)
        S = np.vstack([src, xs.points])
        T = np.vstack([tgt, out.points])
        DS, DT = pairwise_distances(S), pairwise_distances(T)
        iu, ju = np.triu_indices(S.shape[0], k=1)
        live = DS[iu, ju] > 0
        lip = float((DT[iu, ju][live] / DS[iu, ju][live]).max())
        worst_rel = max(worst_rel, lip / (M.lip * (1.0 + 1e-7)))
    seq_ok = worst_rel <= 1.0

    worst_gap = 0.0
    for k in range(20):
        rng = stream(ctx.seed, "acceptance.planar", k)
        m = int(rng.integers(3, 13))
        src = rng.normal(size=(m, 2))
        tgt = rng.normal(size=(m, 2)) * float(rng.uniform(0.5, 2.0))
        x = rng.normal(size=2)
        M = PartialMap(PointCloud(src), PointCloud(tgt))
        y = extend_one_point(M, x, tol=1e-6)
        d = np.sqrt(((x - src) ** 2).sum(axis=1))
        F = float((np.sqrt(((y - tgt) ** 2).sum(axis=1)) / d).max())
        worst_gap = max(worst_gap, abs(F - _grid_oracle(tgt, d)))
    grid_ok = worst_gap <= 1e-3

    return CheckResult(
        "06 extension-certificates", seq_ok and grid_ok,
        f"100 maps: max lip/gate {_fmt(worst_rel)}; "
        f"20 planar solves: max |F - grid| {_fmt(worst_gap)}")


def _respects_bound(X, images, bound, split):
    rep = distortion_of(X, images)
    ratio_check(split, images)
    return rep.distortion >= bound - 1e-9, rep.distortion


def check_lower_bound(ctx):
    """Sampled splits certify 3/(1+delta*)^2; embeddings respect it."""
    parts = []
    ok = True
    for n in (16, 64, 256):
        got = ctx.splits[n]
        if isinstance(got, MetricUnionError):
            ok = False
            parts.append(f"n={n}: FAIL ({type(got).__name__}: "
                         f"no sample reached delta < 1)")
            continue
        split = got
        if not split.delta_star < 1.0:
            ok = False
            parts.append(f"n={n}: FAIL delta_star {_fmt(split.delta_star)}")
            continue
        bound = certified_lower_bound(split)
        X, P = build_123_metric(split)
        phi_a = mds_isometric_embed(validate_metric(X.sub(P.idx_a)))
        phi_b = mds_isometric_embed(validate_metric(X.sub(P.idx_b)))
        emb = embed_union(X, P, phi_a, phi_b)
        best_effort = mds_best_effort(X)
        legs = [_respects_bound(X, emb.full, bound, split),
                _respects_bound(X, best_effort, bound, split)]
        base = best_effort.points
        for j in range(10):
            rng = stream(ctx.seed, "acceptance.projection", 100 * n + j)
            dim = int(rng.integers(2, 7))
            proj = base @ rng.normal(size=(base.shape[1], dim)) \
                / np.sqrt(dim)
            legs.append(_respects_bound(X, _measured(PointCloud(proj)),
                                        bound, split))
        n_ok = sum(1 for good, _ in legs if good)
        ok = ok and n_ok == len(legs)
        low = min(d for _, d in legs)
        parts.append(f"n={n}: bound {_fmt(bound)}, {n_ok}/12 embeddings "
                     f"respect it (min distortion {_fmt(low)})")
    return CheckResult("07 spectral-lower-bound", ok, "; ".join(parts))


def check_metric_validity(ctx):
    """Full cubic triangle recheck of the 1/2/3 and glued spaces."""
    checked = 0
    split = ctx.splits[64]
    if not isinstance(split, MetricUnionError):
        X, _ = build_123_metric(split)
        validate_metric(np.array(X.dist))
        checked += 1
    for G in ctx.glue:
        X, _ = glued_metric(G)
        if X.n <= 128:
            validate_metric(np.array(X.dist))
            checked += 1
    return CheckResult("08 metric-validity", True,
                       f"{checked} spaces pass the full triangle check")


def check_glue_extension(ctx):
    """20 glue instances: exact compatibility, distortion <= 9 d_f + 2."""
    worst = -np.inf
    compat = True
    for G in ctx.glue:
        ext = external_extend(G)
        for k in range(G.n_pairs):
            compat = compat and np.array_equal(
                ext.f1.points[G.a_idx[k]], ext.f2.points[G.pairing[k]])
        reach = max(ext.distortion_f1, ext.distortion_f2) / ext.bound
        worst = max(worst, reach)
    ok = compat and worst <= 1.0
    return CheckResult(
        "09 glue-extension", ok,
        f"20 instances: compatibility {'exact' if compat else 'BROKEN'}, "
        f"max distortion/bound {_fmt(worst)}")


def _determinism_sample(seed):
    inst = union_instance(14, 17, 3, 4, seed=seed + 77)
    emb = embed_union(inst.space, inst.partition, inst.phi_a, inst.phi_b)
    split = sample_split(64, seed)
    return canonical_dumps({
        "embed": emb.as_dict(),
        "delta_star": split.delta_star,
        "bound": certified_lower_bound(split),
    })


def check_determinism(ctx):
    """Identical seeds reproduce reports byte for byte."""
    a = _determinism_sample(ctx.seed)
    b = _determinism_sample(ctx.seed)
    return CheckResult("10 report-determinism", a == b,
                       f"two fresh runs, {len(a)} bytes each: "
                       f"{'identical' if a == b else 'DIFFER'}")


def probe_gamma_mutation(ctx):
    """Corrupting gamma to beta must trip a witnessed audit."""
    inst = union_instance(12, 14, 3, 3, seed=ctx.seed + 7)
    params = EmbedParams.derive(0.5, 1.0, 1.0)
    bad = replace(params, gamma=params.beta)
    try:
        embed_union(inst.space, inst.partition, inst.phi_a, inst.phi_b,
                    params=bad)
    except AuditViolation as exc:
        got = exc.witness is not None
        return CheckResult("11 probe-gamma-mutation", got,
                           f"caught by {exc.name} at witness {exc.witness}")
    return CheckResult("11 probe-gamma-mutation", False,
                       "corrupted constant was not caught")


def probe_zero_tolerance(ctx):
    """tol = 0 must surface SolverStall, not a wrong answer."""
    M = PartialMap(PointCloud(np.array([[0.0], [0.3]])),
                   PointCloud(np.array([[0.0], [0.9]])))
    xs = PointCloud(np.array([[0.15], [0.07], [0.22]]))
    try:
        extend_sequential(M, xs, tol=0.0)
    except SolverStall as exc:
        return CheckResult(
            "12 probe-zero-tolerance", True,
            f"stalled cleanly: objective {_fmt(exc.objective)} "
            f"vs target {_fmt(exc.target)}")
    return CheckResult("12 probe-zero-tolerance", False,
                       "no stall was reported at zero tolerance")


_CHECKS = [
    check_headline_bound, check_iso_bound, check_distorted_inputs,
    check_psi_audit, check_cover_properties, check_extension_certificates,
    check_lower_bound, check_metric_validity, check_glue_extension,
    check_determinism, probe_gamma_mutation, probe_zero_tolerance,
]


def run_all(seed=0):
    """All checks in order; a check that raises becomes a FAIL row."""
    ctx = _Context(seed)
    results = []
    for fn in _CHECKS:
        t0 = time.perf_counter()
        try:
            results.append(fn(ctx))
        except MetricUnionError as exc:
            results.append(CheckResult(
                fn.__name__, False, f"{type(exc).__name__}: {exc}"))
        sys.stderr.write(
            f"[{fn.__name__}] {time.perf_counter() - t0:.2f}s\n")
    return results


def run_selftest(seed=0, out=sys.stdout):
    """Print the PASS/FAIL table; returns (results, all_passed)."""
    results = run_all(seed)
    out.write(f"metric-union selftest (seed {seed})\n")
    for r in results:
        out.write(f"{r.label:<28} {'PASS' if r.passed else 'FAIL'}  "
                  f"{r.detail}\n")
    n_pass = sum(r.passed for r in results)
    out.write(f"result: {n_pass} passed, {len(results) - n_pass} failed\n")
    return results, n_pass == len(results)
