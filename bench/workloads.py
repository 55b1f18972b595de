"""The benchmark's four workloads, built from a seed in set-up.

Each builder returns the ops of one pass.  An op is one call that returns
a certified result; ``run`` takes a tracer (or the untraced stand-in) and
routes every call into a public entry point through it, ``check`` verifies
the result independently, and ``canon`` gives the structure whose
``canonical_dumps`` is fingerprinted.

Why these four: each exercises a different module, and each optimisation
named in the roadmap has one workload that uses it and one that bypasses
it.  ``battery`` is nearly all small Kirszbraun placements; ``large``
grows two extension maps to about 300 sources each and is the only one
through the JSON CLI; ``spectral`` makes no placements at all and spends
its time in pairwise audits, eigen-solves and split sampling; ``glue`` is
the only one through the glue quotient with a measured side of d_f > 1.
"""

import contextlib
import io
import json
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from metric_union import cli
from metric_union import (EmbedParams, PointCloud, RetryBudgetExceeded,
                          build_123_metric, distortion_of, embed_union,
                          external_extend, headline_bound, mds_best_effort,
                          mds_isometric_embed, ratio_check, sample_split,
                          sample_glue_instance, stream, union_instance,
                          validate_metric)

from checks import (Verdict, audit_failures, audit_of, check_embedding,
                    check_map, ratio_range)

BATTERY_SIZE = 50
LARGE_SIDE = 300
SPECTRAL_NS = (16, 64, 256)
GLUE_SIZE = 40
# Instance sizes (and glue's wobble) are drawn from this fixed seed, the
# point sets from the run's seed: the size mix is part of a workload's
# definition, so op latencies compare across seeds.  At seed 0 the battery
# is exactly the selftest's.
SIZE_SEED = 0


class OpFailed(Exception):
    """A CLI op that exited non-zero; ``error`` names the library error."""

    def __init__(self, error, message):
        super().__init__(message)
        self.error = error


@dataclass
class Op:
    name: str
    points: int          # points certified when the op succeeds
    run: Callable        # run(tracer) -> result
    check: Callable      # check(result) -> Verdict
    canon: Callable      # canon(result) -> jsonable structure


class Untraced:
    """Stand-in for ``spans.Tracer`` in untraced runs: plain calls."""

    def call(self, label, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, value):
        pass


def _embed_op(name, inst, params):
    X = inst.space

    def run(tr):
        return tr.call("union_embed.embed", embed_union, X, inst.partition,
                       inst.phi_a, inst.phi_b, params=params)

    def check(emb):
        return check_embedding(emb.full.points, X.dist, audit_of(emb),
                               headline_bound(emb.params))

    return Op(name, X.n, run, check, lambda emb: emb.as_dict())


def battery(seed, tr, workdir):
    """The selftest's 50-instance battery (the acceptance context's recipe,
    sizes from SIZE_SEED), each embedded at alpha = 1/2 with isometric
    sides."""
    params = EmbedParams.derive(0.5, 1.0, 1.0)
    ops = []
    for k in range(BATTERY_SIZE):
        rng = stream(SIZE_SEED, "acceptance.sizes", k)
        inst = tr.call("instances.union_instance", union_instance,
                       int(rng.integers(10, 61)), int(rng.integers(10, 61)),
                       int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                       seed=seed + k)
        ops.append(_embed_op(f"battery/{k}", inst, params))
    return ops


def _cli_error(stderr_text, code):
    for line in stderr_text.splitlines():
        if line.startswith("{"):
            return json.loads(line).get("error", f"exit {code}")
    return f"exit {code}"


def large(seed, tr, workdir):
    """One 300 + 300 point instance written as CLI input with its side
    coordinates; the op is ``metric-union embed`` run in-process at the
    default (automatic) alpha."""
    inst = tr.call("instances.union_instance", union_instance,
                   LARGE_SIDE, LARGE_SIDE, 4, 4, seed)
    src = workdir / "large.json"
    out = workdir / "large.out.json"
    P = inst.partition
    with open(src, "w", encoding="utf-8") as fh:
        json.dump({"space": {"dist": inst.space.dist.tolist()},
                   "partition": {"a": P.idx_a.tolist(),
                                 "b": P.idx_b.tolist()},
                   "phi_a": {"points": inst.phi_a.points.tolist()},
                   "phi_b": {"points": inst.phi_b.points.tolist()}}, fh)
    argv = ["embed", "--input", str(src), "--output", str(out)]

    def run(tr):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = tr.call("cli.main", cli.main, argv)
        if code != 0:
            raise OpFailed(_cli_error(err.getvalue(), code),
                           err.getvalue().strip())
        with open(out, encoding="utf-8") as fh:
            return fh.read()

    def check(text):
        rep = json.loads(text)
        entries = [(e["name"], e["sense"], e["measured"], e["bound"])
                   for e in rep["audit"]]
        return check_embedding(np.asarray(rep["embedding"]["points"]),
                               inst.space.dist, entries,
                               headline_bound(EmbedParams(**rep["params"])))

    return [Op("large", inst.space.n, run, check, json.loads)]


@dataclass
class SpectralResult:
    split: object
    space: object
    embedding: object
    best_effort: PointCloud
    reports: list
    ratios: list


def _spectral_op(n, seed):
    def run(tr):
        try:
            split = tr.call("lower_bound.sample_split", sample_split, n, seed)
        except RetryBudgetExceeded as exc:
            tr.add("lower_bound.attempts", exc.attempts)
            raise
        tr.add("lower_bound.attempts", split.attempts)
        X, P = tr.call("lower_bound.build_123", build_123_metric, split)
        phi_a = tr.call("linalg.mds", mds_isometric_embed,
                        tr.call("metric.validate", validate_metric,
                                X.sub(P.idx_a)))
        phi_b = tr.call("linalg.mds", mds_isometric_embed,
                        tr.call("metric.validate", validate_metric,
                                X.sub(P.idx_b)))
        emb = tr.call("union_embed.embed", embed_union, X, P, phi_a, phi_b)
        best = tr.call("linalg.mds", mds_best_effort, X)
        images = (emb.full, best)
        reports = [tr.call("metric.distortion", distortion_of, X, e)
                   for e in images]
        ratios = [tr.call("lower_bound.ratio_check", ratio_check, split, e)
                  for e in images]
        return SpectralResult(split, X, emb, best, reports, ratios)

    def check(res):
        lb = 3.0 / (1.0 + res.split.delta_star) ** 2
        v = check_embedding(res.embedding.full.points, res.space.dist,
                            audit_of(res.embedding),
                            headline_bound(res.embedding.params))
        lo, hi = ratio_range(res.best_effort.points, res.space.dist)
        best = hi / lo if lo > 0.0 else float("inf")
        for label, d in (("embedding", v.distortion), ("best-effort", best)):
            if not d >= lb - 1e-9:
                v.problems.append(f"{label} distortion {d:.9g} is below "
                                  f"the certified lower bound {lb:.9g}")
        v.extra = {"n": n, "delta_star": res.split.delta_star,
                   "attempts": res.split.attempts, "lb_certified": lb}
        return v

    def canon(res):
        return {"n": n, "delta_star": res.split.delta_star,
                "attempts": res.split.attempts,
                "embedding": res.embedding.as_dict(),
                "best_effort": res.best_effort.points,
                "reports": [r.as_dict() for r in res.reports],
                "ratios": res.ratios}

    return Op(f"spectral/n={n}", 2 * n, run, check, canon)


def spectral(seed, tr, workdir):
    """The lower-bound legs of selftest criterion 07 at n in {16, 64, 256};
    the split is sampled inside the op, so set-up builds nothing."""
    return [_spectral_op(n, seed) for n in SPECTRAL_NS]


def _glue_op(name, G):
    def run(tr):
        tr.add("glue.pairs", G.n_pairs)
        tr.add("glue.points", G.u_points.m + G.v_points.m)
        return tr.call("glue.extend", external_extend, G)

    def check(ext):
        v = Verdict(audit=audit_of(ext.embedding), ceiling=9.0 * G.d_f + 2.0)
        bad = audit_failures(v.audit)
        if bad:
            v.problems.append(f"audit entries fail: {', '.join(bad)}")
        v.distortion = max(
            check_map(v, "f1", ext.f1.points, G.u_points.points, v.ceiling),
            check_map(v, "f2", ext.f2.points, G.v_points.points, v.ceiling))
        if not np.array_equal(ext.f1.points[G.a_idx],
                              ext.f2.points[G.pairing]):
            v.problems.append("paired rows of f1 and f2 differ")
        return v

    def canon(ext):
        return {"f1": ext.f1.points, "f2": ext.f2.points,
                "distortions": ext.as_dict(),
                "embedding": ext.embedding.as_dict()}

    points = G.u_points.m + G.v_points.m
    return Op(name, points, run, check, canon)


def glue(seed, tr, workdir):
    """40 ``sample_glue_instance`` inputs: 40-120 pairs and extra points
    per side, dims 2-5, wobble uniform in [0, 0.5) (drawn from SIZE_SEED)."""
    ops = []
    for k in range(GLUE_SIZE):
        rng = stream(SIZE_SEED, "bench.glue", k)
        G = sample_glue_instance(
            int(rng.integers(40, 121)), int(rng.integers(40, 121)),
            int(rng.integers(40, 121)), int(rng.integers(2, 6)),
            int(rng.integers(2, 6)), seed=seed + k,
            wobble=float(rng.uniform(0.0, 0.5)))
        ops.append(_glue_op(f"glue/{k}", G))
    return ops


WORKLOADS = {"battery": battery, "large": large, "spectral": spectral,
             "glue": glue}


def negative_ops(seed):
    """Two known-bad ops for the checker's negative control.

    The selftest's probe 11 (gamma corrupted to beta) must raise
    AuditViolation; a correct embedding whose coordinates are moved after
    return (one point pulled almost onto another) passes its own audit but
    must fail the independent check.
    """
    inst = union_instance(12, 14, 3, 3, seed=seed + 7)
    params = EmbedParams.derive(0.5, 1.0, 1.0)
    mutated = _embed_op("negative/gamma=beta", inst,
                        replace(params, gamma=params.beta))
    honest = _embed_op("negative/perturbed", inst, params)

    def perturbed(tr):
        emb = honest.run(tr)
        pts = np.array(emb.full.points)
        pts[1] = pts[0] + 1e-3 * (pts[1] - pts[0])
        return replace(emb, full=PointCloud(pts))

    return [mutated, replace(honest, run=perturbed)]
