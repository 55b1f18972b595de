"""Composite embedding of a two-sided metric space into one Euclidean space.

Given per-side coordinates phi_A, phi_B (non-contracting with Lipschitz
constants d_a, d_b), ``build_psi`` produces a map of the whole space into
the B-side coordinate space: cover points of side A go to the phi_B image
of their nearest B point, the rest of side A is placed by Lipschitz
extension in coordinates, and side B keeps phi_B verbatim.  ``embed_union``
runs this twice (once per side), appends one real coordinate
psi_Delta(x) = +/- gamma * R_x, and direct-sums the three parts into a
non-contracting embedding with expansion at most 7*d_a*d_b + 2*(d_a + d_b)
at alpha = 1/2, and below 8.93 for isometric sides at alpha = 0.3114.

Every inequality the analysis relies on is re-measured on the produced
coordinates and recorded as a named AuditEntry; any failing entry raises
AuditViolation carrying the full entry list.

``embed_union`` measures each side's image distances at most once (not
at all when the side cloud carries them, as the MDS results and the glued
sides do), and the normalized sides carry them on; a rescaled side
carries scale**2 times them.  The side checks, the partial map's
Lipschitz constant, the domination entries and psi's own matrix re-index
them (psi measures only its placed rows).  Squared distances add exactly
across summands, so ``full`` carries the sum of its summands' matrices
(psi_Delta's single coordinate is measured) for ``distortion_of``,
``ratio_check`` and glue's f1 and f2 to reuse.  Every scan reads squared
distances and roots only the entries it selects; one scan of all pairs
gives the report and the full.noncontract and full.expansion entries.
Kernel entries depend only on their two rows, so re-indexed entries are
bit for bit what measuring again gives; summed and rescaled ones round
within a few ulps of it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import metric
from .cover import CoverResult, build_cover, f_lip_bound
from .errors import AuditViolation, InputDistortionError, InputError
from .kirszbraun import PartialMap, _lip_from, extend_sequential
from .linalg import PointCloud, _carrying, _measured, direct_sum
from .metric import (DistortionReport, FiniteMetricSpace, UnionPartition,
                     _distortion_report)
# no longer called here, but kept as a module attribute: the benchmark's
# traced run wraps union_embed.distortion_of by name (bench/spans.py)
from .metric import distortion_of  # noqa: F401

__all__ = [
    "EmbedParams", "AuditEntry", "PsiResult", "UnionEmbedding",
    "select_alpha", "headline_bound", "build_psi", "embed_union",
]

_ISO_ALPHA = 0.3114
_GEN_ALPHA = 0.5
_ISO_BOUND = 8.93
_AUDIT_REL = 1e-6   # relative slack at which an audit entry counts as failed
_EQ_TOL = 1e-12     # equality tolerance for parameter comparisons


def select_alpha(d_a: float, d_b: float) -> float:
    """Default cover parameter: 0.3114 for isometric sides, else 1/2."""
    if d_a < 1.0 - _EQ_TOL or d_b < 1.0 - _EQ_TOL:
        raise InputError(f"side constants must be >= 1, got {d_a}, {d_b}")
    if abs(d_a - 1.0) <= _EQ_TOL and abs(d_b - 1.0) <= _EQ_TOL:
        return _ISO_ALPHA
    return _GEN_ALPHA


@dataclass(frozen=True)
class EmbedParams:
    """Construction constants.  ``derive`` ties beta and gamma to the rest;
    the raw constructor leaves them free (useful only for fault injection).
    """

    alpha: float
    d_a: float
    d_b: float
    beta: float
    gamma: float
    tol: float = 1e-7

    @staticmethod
    def derive(alpha, d_a, d_b, tol=1e-7):
        if not (0.0 < alpha <= 1.0):
            raise InputError(f"alpha must lie in (0, 1], got {alpha!r}")
        if d_a < 1.0 or d_b < 1.0:
            raise InputError(
                f"side constants must be >= 1, got {d_a!r}, {d_b!r}")
        beta = (1.0 + alpha) * (2.0 * d_a * d_b + 1.0)
        return EmbedParams(alpha=float(alpha), d_a=float(d_a),
                           d_b=float(d_b), beta=beta,
                           gamma=math.sqrt(0.5) * beta, tol=float(tol))

    def swapped(self):
        """Same constants with the roles of the two sides exchanged."""
        return EmbedParams(alpha=self.alpha, d_a=self.d_b, d_b=self.d_a,
                           beta=self.beta, gamma=self.gamma, tol=self.tol)


@dataclass(frozen=True)
class AuditEntry:
    """One measured inequality.

    sense "upper" asserts measured <= bound, "lower" asserts
    measured >= bound; ``witness`` is the extremal point pair (space
    indices) or None for aggregate/arithmetic checks.
    """

    name: str
    sense: str
    measured: float
    bound: float
    witness: tuple | None

    @property
    def slack(self):
        s = self.bound - self.measured
        return s if self.sense == "upper" else -s

    def ok(self, rel=_AUDIT_REL):
        return self.slack >= -rel * max(abs(self.bound), 1.0)

    def as_dict(self):
        return {
            "name": self.name,
            "sense": self.sense,
            "measured": self.measured,
            "bound": self.bound,
            "slack": self.slack,
            "witness": list(self.witness) if self.witness else None,
            "ok": bool(self.ok()),
        }


@dataclass(frozen=True)
class PsiResult:
    """One-sided map over all points, its cover, and its audit entries.
    ``cloud`` carries its squared distances."""

    cloud: PointCloud
    cover: CoverResult
    gmap: PartialMap
    entries: list


@dataclass(frozen=True)
class UnionEmbedding:
    """Full embedding with components, distortion report, and audit."""

    psi_a: PointCloud
    psi_b: PointCloud
    psi_delta: PointCloud
    full: PointCloud
    report: DistortionReport
    audit: list
    params: EmbedParams
    scale_a: float
    scale_b: float

    def as_dict(self):
        return {
            "dim": self.full.dim,
            "points": self.full.points.tolist(),
            "report": self.report.as_dict(),
            "audit": [e.as_dict() for e in self.audit],
            "params": {
                "alpha": self.params.alpha, "d_a": self.params.d_a,
                "d_b": self.params.d_b, "beta": self.params.beta,
                "gamma": self.params.gamma, "tol": self.params.tol,
            },
            "scale_a": self.scale_a,
            "scale_b": self.scale_b,
        }


def _as_cloud(obj):
    return obj if isinstance(obj, PointCloud) else PointCloud(np.asarray(obj))


def _check_side(X, idx, sq, side, lip):
    """Verify a side embedding, given its squared image distance matrix
    ``sq``, is non-contracting with Lipschitz <= lip."""
    rep = _distortion_report(X.dist[np.ix_(idx, idx)], sq, idx)
    if rep.contraction > 1.0 + _AUDIT_REL:
        raise InputDistortionError(side, rep.contraction, 1.0,
                                   witness=rep.contraction_pair)
    if rep.expansion > lip * (1.0 + _AUDIT_REL):
        raise InputDistortionError(side, rep.expansion, lip,
                                   witness=rep.expansion_pair)


def _normalize_side(X, idx, cloud):
    """Rescale a slightly contracting side embedding to non-contracting
    form and measure its Lipschitz constant.  Returns (cloud, lip, scale),
    ``cloud`` a private copy, rescaled when needed, that carries its
    squared distances: measured only when the caller's cloud (never
    written) carries none, and scale**2 times them when rescaled.
    """
    if cloud.m != idx.size:
        raise InputError(f"{cloud.m} image rows for {idx.size} points")
    dx = X.dist[np.ix_(idx, idx)]
    side = _measured(cloud)
    rep = _distortion_report(dx, side.sq_dist, idx)
    scale = 1.0
    if rep.contraction > 1.0:
        scale = rep.contraction
        side = _carrying(cloud.scaled(scale),
                         scale * scale * side.sq_dist)
        rep = _distortion_report(dx, side.sq_dist, idx)
    return side, max(rep.expansion, 1.0), scale


def _same_side_pairs(idx):
    iu, ju = np.triu_indices(idx.size, k=1)
    return idx[iu], idx[ju]


def _cross_pairs(ia, ib):
    gi, gj = np.meshgrid(ia, ib, indexing="ij")
    keep = gi.ravel() != gj.ravel()   # overlap points pair with themselves
    return gi.ravel()[keep], gj.ravel()[keep]


class _Collector:
    def __init__(self):
        self.entries = []

    def add(self, name, sense, vals, pairs, bound):
        # the max ("upper") or min ("lower") of vals, with its pair
        vals = np.asarray(vals, dtype=np.float64)
        if vals.size:
            k = int(np.argmax(vals) if sense == "upper" else np.argmin(vals))
            self.scalar(name, sense, vals[k], bound,
                        (int(pairs[0][k]), int(pairs[1][k])))

    def scalar(self, name, sense, measured, bound, witness=None):
        self.entries.append(AuditEntry(name=name, sense=sense,
                                       measured=float(measured),
                                       bound=float(bound), witness=witness))


def _raise_if_failing(entries):
    bad = [e for e in entries if not e.ok()]
    if bad:
        # surface a witnessed pairwise failure when one exists
        e = next((x for x in bad if x.witness is not None), bad[0])
        raise AuditViolation(e.name, e.witness, e.measured, e.bound,
                             entries=entries)


def build_psi(X: FiniteMetricSpace, P: UnionPartition, phi_a, phi_b,
              params: EmbedParams, name: str = "psi") -> PsiResult:
    """Map all points into the B-side coordinate space.

    Side B keeps phi_b verbatim; cover points of side A take the phi_b
    image of their nearest B point; remaining A points are placed by
    sequential Lipschitz extension of that partial map.  Overlap points
    are consistent by construction (their nearest point is themselves).

    Each side is measured unless its cloud carries ``sq_dist``.  The
    side checks and the partial map's Lipschitz constant re-index these
    matrices.  psi's squared matrix has one rule: rows copied from phi_b
    (B, and cover points through ``nb``) re-index phi_b's matrix, and only
    placed rows are measured, as one block against all of psi.  The
    returned cloud carries that matrix, and the audit takes its distances
    as roots of the entries it selects from it.

    Audited guarantees, with lf = 2(1 + 1/alpha):
      {name}.away_upper   A-pair image ratio   <= lf * d_a * d_b
      {name}.home_lower   B-pair image ratio   >= 1
      {name}.home_upper   B-pair image ratio   <= d_b
      {name}.cross_upper  cross image ratio    <= 2(1+alpha) d_a d_b + (2+alpha) d_b
      {name}.cross_lower  (|psi(a)-psi(b)| - d + beta*R_a)/d >= 0
      {name}.g_lip        partial-map constant <= lf * d_b
    """
    phi_a, phi_b = (_measured(_as_cloud(c)) for c in (phi_a, phi_b))
    ia, ib = P.idx_a, P.idx_b
    if phi_a.m != ia.size:
        raise InputError(f"phi_a has {phi_a.m} rows for {ia.size} A-points")
    if phi_b.m != ib.size:
        raise InputError(f"phi_b has {phi_b.m} rows for {ib.size} B-points")
    _check_side(X, ia, phi_a.sq_dist, "A", params.d_a)
    _check_side(X, ib, phi_b.sq_dist, "B", params.d_b)

    C = build_cover(X, P, params.alpha)
    row_a = {int(s): k for k, s in enumerate(ia)}
    row_b = {int(s): k for k, s in enumerate(ib)}

    ca = np.array([row_a[int(c)] for c in C.cover_idx], dtype=np.intp)
    nb = np.array([row_b[int(t)] for t in C.nearest], dtype=np.intp)
    sources = phi_a.take(ca)
    targets = phi_b.take(nb)
    gmap = PartialMap(sources=sources, targets=targets,
                      lip=_lip_from(phi_a.sq_dist[np.ix_(ca, ca)],
                                    phi_b.sq_dist[np.ix_(nb, nb)]))

    rest = np.setdiff1d(ia, C.cover_idx)
    psi = np.zeros((X.n, phi_b.dim))
    psi[C.cover_idx] = targets.points
    if rest.size:
        psi[rest] = extend_sequential(
            gmap, phi_a.take([row_a[int(s)] for s in rest]),
            params.tol).points
    psi[ib] = phi_b.points   # home side last: psi restricted to B is phi_b
    rows = np.zeros(X.n, dtype=np.intp)   # placed rows: measured below
    rows[C.cover_idx] = nb
    rows[ib] = np.arange(ib.size)
    sq = phi_b.sq_dist[np.ix_(rows, rows)]
    if rest.size:
        placed = metric._squared_distances(psi[rest], psi)
        sq[rest] = placed
        sq[:, rest] = placed.T

    audit = _Collector()
    Dx = X.dist
    lf = f_lip_bound(params.alpha)

    pa = _same_side_pairs(ia)
    audit.add(f"{name}.away_upper", "upper",
              np.sqrt(sq[pa]) / Dx[pa], pa, lf * params.d_a * params.d_b)
    pb = _same_side_pairs(ib)
    ratio_b = np.sqrt(sq[pb]) / Dx[pb]
    audit.add(f"{name}.home_lower", "lower", ratio_b, pb, 1.0)
    audit.add(f"{name}.home_upper", "upper", ratio_b, pb, params.d_b)
    px = _cross_pairs(ia, ib)
    xi_home = (2.0 * (1.0 + params.alpha) * params.d_a * params.d_b
               + (2.0 + params.alpha) * params.d_b)
    img_x = np.sqrt(sq[px])
    audit.add(f"{name}.cross_upper", "upper", img_x / Dx[px], px, xi_home)
    r_of = np.zeros(X.n)
    r_of[ia] = P.r_a
    margin = (img_x - Dx[px] + params.beta * r_of[px[0]]) / Dx[px]
    audit.add(f"{name}.cross_lower", "lower", margin, px, 0.0)
    audit.scalar(f"{name}.g_lip", "upper", gmap.lip, lf * params.d_b)

    _raise_if_failing(audit.entries)
    return PsiResult(cloud=_carrying(PointCloud(psi), sq), cover=C,
                     gmap=gmap, entries=audit.entries)


def headline_bound(params: EmbedParams) -> float:
    """Expansion bound to hold the final map against.

    7 d_a d_b + 2(d_a + d_b) at alpha = 1/2; 8.93 for isometric sides at
    alpha = 0.3114; otherwise the root of the worst per-pair-type squared
    bound (valid for any alpha, but with no closed form).
    """
    if abs(params.alpha - _GEN_ALPHA) <= _EQ_TOL:
        return (7.0 * params.d_a * params.d_b
                + 2.0 * (params.d_a + params.d_b))
    iso = abs(params.d_a - 1.0) <= _EQ_TOL and abs(params.d_b - 1.0) <= _EQ_TOL
    if iso and abs(params.alpha - _ISO_ALPHA) <= _EQ_TOL:
        return _ISO_BOUND
    return math.sqrt(max(_sq_bounds(params)))


def _sq_bounds(params):
    """Per-pair-type squared expansion bounds (A-pairs, B-pairs, cross)."""
    lf = f_lip_bound(params.alpha)
    g2 = params.gamma ** 2
    common = lf ** 2 * params.d_a ** 2 * params.d_b ** 2
    xi_a = (2.0 * (1.0 + params.alpha) * params.d_a * params.d_b
            + (2.0 + params.alpha) * params.d_a)
    xi_b = (2.0 * (1.0 + params.alpha) * params.d_a * params.d_b
            + (2.0 + params.alpha) * params.d_b)
    return (params.d_a ** 2 + common + g2,
            params.d_b ** 2 + common + g2,
            xi_a ** 2 + xi_b ** 2 + 4.0 * g2)


def _claim_case_bound_sq(d, ra, rb, beta):
    """Per-pair lower bound on the squared full-image distance.

    Three cases on how d compares with beta * min(R) and beta * max(R);
    each case value is both below the measured squared distance and at
    least d**2.
    """
    r1 = np.minimum(ra, rb)
    r2 = np.maximum(ra, rb)
    delta_sq = beta ** 2 * (r1 + r2) ** 2 / 2.0
    both = (d - beta * r1) ** 2 + (d - beta * r2) ** 2 + delta_sq
    near = (d - beta * r1) ** 2 + delta_sq
    return np.select(
        [beta * r2 <= d, beta * r1 <= d],
        [both, near],
        default=delta_sq)


def _full_audit(X, P, params, full, report, phi_a, phi_b, psi_delta):
    """Entries of the direct sum, with image distances rooted from the
    entries each check selects of the squared matrices carried by ``full``
    and the normalized sides; the all-pairs entries are ``report``'s, with
    its witnesses."""
    ia, ib = P.idx_a, P.idx_b
    audit = _Collector()
    Dx = X.dist
    sq = full.sq_dist
    sq_a, sq_b, sq_x = _sq_bounds(params)

    pa = _same_side_pairs(ia)
    pb = _same_side_pairs(ib)
    px = _cross_pairs(ia, ib)
    img_a, img_b, img_x = (np.sqrt(sq[p]) for p in (pa, pb, px))
    audit.add("full.side_a_sq", "upper", (img_a / Dx[pa]) ** 2, pa, sq_a)
    audit.add("full.side_b_sq", "upper", (img_b / Dx[pb]) ** 2, pb, sq_b)
    audit.add("full.cross_sq", "upper", (img_x / Dx[px]) ** 2, px, sq_x)

    head = headline_bound(params)
    if report.n_points > 1:   # a one-point space has no pair
        audit.scalar("full.noncontract", "lower", 1.0 / report.contraction,
                     1.0, report.contraction_pair)
        audit.scalar("full.expansion", "upper", report.expansion, head,
                     report.expansion_pair)
    audit.scalar("full.headline_consistent", "upper",
                 math.sqrt(max(sq_a, sq_b, sq_x)), head)

    # the direct sum can only add to the per-side coordinate distances
    ta = np.triu_indices(ia.size, k=1)
    audit.add("full.dominates_phi_a", "lower",
              img_a / np.sqrt(phi_a.sq_dist[ta]), pa, 1.0)
    tb = np.triu_indices(ib.size, k=1)
    audit.add("full.dominates_phi_b", "lower",
              img_b / np.sqrt(phi_b.sq_dist[tb]), pb, 1.0)

    # one-coordinate part: Lipschitz gamma on each side, and across sides
    # exactly gamma_hat * (R_a + R_b) where gamma_hat re-derives gamma
    dd = psi_delta.points[:, 0]
    audit.add("full.delta_lip_a", "upper",
              np.abs(dd[pa[0]] - dd[pa[1]]) / Dx[pa], pa, params.gamma)
    audit.add("full.delta_lip_b", "upper",
              np.abs(dd[pb[0]] - dd[pb[1]]) / Dx[pb], pb, params.gamma)
    gamma_hat = math.sqrt(0.5) * (1.0 + params.alpha) * (
        2.0 * params.d_a * params.d_b + 1.0)
    r_of_a = np.zeros(X.n)
    r_of_a[ia] = P.r_a
    r_of_b = np.zeros(X.n)
    r_of_b[ib] = P.r_b
    expect = gamma_hat * (r_of_a[px[0]] + r_of_b[px[1]])
    got = np.abs(dd[px[0]] - dd[px[1]])
    dev = np.abs(got - expect) / np.maximum(expect, 1e-300)
    audit.add("full.delta_cross_exact", "upper", dev, px, 0.0)

    # case analysis behind non-contraction, re-evaluated per cross pair
    case_sq = _claim_case_bound_sq(Dx[px], r_of_a[px[0]], r_of_b[px[1]],
                                   params.beta)
    audit.add("full.claim_case_bound", "lower",
              (img_x ** 2 - case_sq) / Dx[px] ** 2, px, 0.0)
    audit.add("full.claim_dominates", "lower", case_sq / Dx[px] ** 2, px, 1.0)
    return audit.entries


def embed_union(X: FiniteMetricSpace, P: UnionPartition, phi_a, phi_b,
                params: EmbedParams | None = None,
                tol: float = 1e-7) -> UnionEmbedding:
    """Non-contracting embedding of the whole space, fully audited.

    Side inputs are rescaled to non-contracting form if they contract
    slightly (the factor is recorded), and their Lipschitz constants are
    measured rather than trusted.  When ``params`` is None, alpha comes
    from select_alpha and the remaining constants from EmbedParams.derive.
    Each side's image distances are measured at most once, and the
    returned ``full`` carries its squared distances, the sum of its
    summands'; the returned psi clouds carry none.  The caller's clouds
    are never written.
    """
    phi_a, phi_b = _as_cloud(phi_a), _as_cloud(phi_b)
    phi_a, d_a, scale_a = _normalize_side(X, P.idx_a, phi_a)
    phi_b, d_b, scale_b = _normalize_side(X, P.idx_b, phi_b)
    if params is None:
        params = EmbedParams.derive(select_alpha(d_a, d_b), d_a, d_b, tol)

    # each build_psi checks both sides against params before building
    res_b = build_psi(X, P, phi_a, phi_b, params, name="psi_b")
    res_a = build_psi(X, P.swapped(), phi_b, phi_a, params.swapped(),
                      name="psi_a")

    delta = np.zeros((X.n, 1))
    delta[P.idx_a, 0] = params.gamma * P.r_a
    delta[P.idx_b, 0] = -(params.gamma * P.r_b)
    delta += 0.0   # normalize -0.0 on overlap points
    psi_delta = _measured(PointCloud(delta))

    full = direct_sum([res_a.cloud, res_b.cloud, psi_delta])
    # only full keeps an n x n matrix: the summands' are dropped here
    psi_a, psi_b, psi_delta = (_carrying(c, None) for c in
                               (res_a.cloud, res_b.cloud, psi_delta))
    audit = res_a.entries + res_b.entries
    del res_a, res_b
    report = _distortion_report(X.dist, full.sq_dist, np.arange(X.n))
    audit += _full_audit(X, P, params, full, report, phi_a, phi_b,
                         psi_delta)
    _raise_if_failing(audit)
    return UnionEmbedding(psi_a=psi_a, psi_b=psi_b,
                          psi_delta=psi_delta, full=full, report=report,
                          audit=audit, params=params,
                          scale_a=scale_a, scale_b=scale_b)
