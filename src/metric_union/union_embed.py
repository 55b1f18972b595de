"""Composite embedding of a two-sided metric space into one Euclidean space.

Given per-side coordinates phi_A, phi_B (non-contracting with Lipschitz
constants d_a, d_b), ``build_psi`` produces a map of the whole space into
the B-side coordinate space: cover points of side A go to the phi_B image
of their nearest B point, the rest of side A is placed by Lipschitz
extension in coordinates, and side B keeps phi_B verbatim.  ``embed_union``
runs this internal step twice (once per side), appends one real coordinate
psi_Delta(x) = +/- gamma * R_x, and direct-sums the three parts into a
non-contracting embedding with expansion at most 7*d_a*d_b + 2*(d_a + d_b)
at alpha = 1/2, and below 8.93 for isometric sides at alpha = 0.3114.

Every inequality the analysis relies on is re-measured on the produced
coordinates and recorded as a named AuditEntry; any failing entry raises
AuditViolation carrying the full entry list.

``embed_union`` measures each side's image distances at most once (not
at all when the side cloud carries them, as the MDS results and the glued
sides do), and the normalized sides carry them on; a rescaled side
carries scale**2 times them.  One scan per side gives the report it is
checked against params with; the partial map's Lipschitz constant, the
domination entries and psi's own matrix re-index the carried matrices
(psi measures only its placed rows).  Squared distances add exactly
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
from .audit import Collector, raise_failing
from .cover import _check_alpha, build_cover, f_lip_bound
from .errors import AuditViolation, InputDistortionError, InputError
from .kirszbraun import PartialMap, _check_tol, extend_sequential
from .linalg import direct_sum
from .metric import (DistortionReport, FiniteMetricSpace, PointCloud,
                     UnionPartition, _carrying, _cloud, _distortion_report,
                     _measured, _real)
# no longer called here, but kept as a module attribute: the benchmark's
# traced run wraps union_embed.distortion_of by name (bench/spans.py)
from .metric import distortion_of  # noqa: F401

__all__ = [
    "EmbedParams", "UnionEmbedding", "select_alpha",
    "headline_bound", "embed_union",
]

_ISO_ALPHA = 0.3114
_GEN_ALPHA = 0.5
_ISO_BOUND = 8.93
_AUDIT_REL = 1e-6   # an entry's allow, relative to max(|bound|, 1)
_EQ_TOL = 1e-12     # equality tolerance for parameter comparisons


def select_alpha(d_a: float, d_b: float) -> float:
    """Default cover parameter: 0.3114 for isometric sides, else 1/2."""
    if not (_real(d_a, "d_a") >= 1.0 - _EQ_TOL
            and _real(d_b, "d_b") >= 1.0 - _EQ_TOL):   # also nan
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
        _check_alpha(alpha)
        if not (_real(d_a, "d_a") >= 1.0
                and _real(d_b, "d_b") >= 1.0):   # also nan
            raise InputError(
                f"side constants must be >= 1, got {d_a!r}, {d_b!r}")
        _check_tol(tol)
        beta = (1.0 + alpha) * (2.0 * d_a * d_b + 1.0)
        params = EmbedParams(alpha=float(alpha), d_a=float(d_a),
                             d_b=float(d_b), beta=beta,
                             gamma=math.sqrt(0.5) * beta, tol=float(tol))
        try:   # a float power raises where a product would give inf
            if math.isfinite(max(_sq_bounds(params))):   # sums of gamma**2
                return params
        except OverflowError:
            pass
        raise InputError(f"the construction's constants overflow at "
                         f"alpha={alpha!r}, d_a={d_a!r}, d_b={d_b!r}")

    def swapped(self):
        """Same constants with the roles of the two sides exchanged."""
        return EmbedParams(alpha=self.alpha, d_a=self.d_b, d_b=self.d_a,
                           beta=self.beta, gamma=self.gamma, tol=self.tol)


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


def _normalize_side(X, idx, cloud):
    """Rescale a slightly contracting side embedding to non-contracting
    form and measure it.  Returns (cloud, report, scale): ``cloud`` a
    private copy, rescaled when needed, carrying its squared distances
    (measured only when the caller's cloud, never written, carries none;
    scale**2 times them when rescaled), and ``report`` its distortion,
    which ``embed_union`` reads d from and checks the side against.
    """
    if cloud.m != idx.size:
        raise InputError(f"{cloud.m} image rows for {idx.size} points")
    dx = X.dist[np.ix_(idx, idx)]
    side = _measured(cloud)
    rep = _distortion_report(dx, side.sq_dist, idx)
    scale = 1.0
    if rep.contraction > 1.0:
        scale = rep.contraction
        side = side.scaled(scale)
        rep = _distortion_report(dx, side.sq_dist, idx)
    return side, rep, scale


def _same_side_pairs(idx):
    iu, ju = np.triu_indices(idx.size, k=1)
    return idx[iu], idx[ju]


def _cross_pairs(ia, ib):
    gi, gj = np.meshgrid(ia, ib, indexing="ij")
    keep = gi.ravel() != gj.ravel()   # overlap points pair with themselves
    return gi.ravel()[keep], gj.ravel()[keep]


def build_psi(X: FiniteMetricSpace, P: UnionPartition, phi_a, phi_b,
              params: EmbedParams, name: str):
    """Map all points into the B-side coordinate space: (cloud, entries).
    ``embed_union``'s internal step, on sides it normalized and checked.

    Side B keeps phi_b verbatim; cover points of side A take the phi_b
    image of their nearest B point; remaining A points are placed by
    sequential Lipschitz extension of that partial map.  Overlap points
    are consistent by construction (their nearest point is themselves).

    The partial map's Lipschitz constant re-indexes the sides' carried
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
    ia, ib = P.idx_a, P.idx_b
    C = build_cover(X, P, params.alpha)
    # side rows of space indices: both sides are sorted
    ca = np.searchsorted(ia, C.cover_idx)
    nb = np.searchsorted(ib, C.nearest)
    targets = phi_b.take(nb)
    gmap = PartialMap(sources=phi_a.take(ca), targets=targets)

    rest = np.setdiff1d(ia, C.cover_idx)
    psi = np.zeros((X.n, phi_b.dim))
    psi[C.cover_idx] = targets.points
    if rest.size:
        # plain rows: extend_sequential reads no matrix of its points
        psi[rest] = extend_sequential(
            gmap, PointCloud(phi_a.points[np.searchsorted(ia, rest)]),
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

    audit = Collector(_AUDIT_REL)
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

    raise_failing(audit.entries, lambda e: AuditViolation(
        e.name, e.witness, e.measured, e.bound, entries=audit.entries))
    return _carrying(PointCloud(psi), sq), audit.entries


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
    audit = Collector(_AUDIT_REL)
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
                tol: float = 1e-7,
                alpha: float | None = None) -> UnionEmbedding:
    """Non-contracting embedding of the whole space, fully audited.

    Side inputs are rescaled to non-contracting form if they contract
    slightly (the factor is recorded), and their Lipschitz constants are
    measured rather than trusted.  ``params`` claims d_a and d_b (and
    ``tol`` is unused); without it each is measured, the side's expansion
    but at least 1, and EmbedParams.derive gives the rest at ``alpha``
    (select_alpha's choice when None) and ``tol``.  Give at most one of
    the two.  Each side is checked once, against params.d_a or params.d_b.
    Each side's image distances are measured at most once, and the
    returned ``full`` carries its squared distances, the sum of its
    summands'; the returned psi clouds carry none.  The caller's clouds
    are never written.
    """
    if alpha is not None and params is not None:
        raise InputError("give alpha or params, not both")
    phi_a, rep_a, scale_a = _normalize_side(X, P.idx_a, _cloud(phi_a))
    phi_b, rep_b, scale_b = _normalize_side(X, P.idx_b, _cloud(phi_b))
    if params is None:
        d_a, d_b = max(rep_a.expansion, 1.0), max(rep_b.expansion, 1.0)
        alpha = select_alpha(d_a, d_b) if alpha is None else alpha
        params = EmbedParams.derive(alpha, d_a, d_b, tol)
    # each side non-contracting, with expansion at most its constant
    sides = Collector(_AUDIT_REL)
    for side, rep, lip in (("A", rep_a, params.d_a), ("B", rep_b, params.d_b)):
        sides.scalar(f"{side}.contraction", "upper", rep.contraction, 1.0,
                     rep.contraction_pair)
        sides.scalar(f"{side}.expansion", "upper", rep.expansion, lip,
                     rep.expansion_pair)
    raise_failing(sides.entries, lambda e: InputDistortionError(
        e.name[0], e.measured, e.bound, witness=e.witness))

    psi_b, entries_b = build_psi(X, P, phi_a, phi_b, params, name="psi_b")
    psi_a, entries_a = build_psi(X, P.swapped(), phi_b, phi_a,
                                 params.swapped(), name="psi_a")

    delta = np.zeros((X.n, 1))
    delta[P.idx_a, 0] = params.gamma * P.r_a
    delta[P.idx_b, 0] = -(params.gamma * P.r_b)
    delta += 0.0   # normalize -0.0 on overlap points
    psi_delta = _measured(PointCloud(delta))

    full = direct_sum([psi_a, psi_b, psi_delta])
    # only full keeps an n x n matrix: the summands' are dropped here
    psi_a, psi_b, psi_delta = (_carrying(c, None) for c in
                               (psi_a, psi_b, psi_delta))
    audit = entries_a + entries_b
    report = _distortion_report(X.dist, full.sq_dist, np.arange(X.n))
    audit += _full_audit(X, P, params, full, report, phi_a, phi_b,
                         psi_delta)
    raise_failing(audit, lambda e: AuditViolation(
        e.name, e.witness, e.measured, e.bound, entries=audit))
    return UnionEmbedding(psi_a=psi_a, psi_b=psi_b,
                          psi_delta=psi_delta, full=full, report=report,
                          audit=audit, params=params,
                          scale_a=scale_a, scale_b=scale_b)
