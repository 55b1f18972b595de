"""Gluing two Euclidean point sets along a bi-Lipschitz pairing.

Given finite samples U' in R^a and V' in R^b and a pairing f between a
subset A of U' and a subset B of V', identifying each A point with its
partner yields a quotient of the disjoint union.  Its shortest-path
metric has closed forms: within U' the Euclidean distance; across, the
best walk to a pairing point and onward; within V', the minimum of the
direct distance and a detour through two pairing points (the walk between
their partners happens on the U' side, where the pairing may have
contracted distances).

The pairing is renormalized at construction so that it never contracts
and stretches by at most its measured distortion ``d_f``: ``v_points`` is
stored rescaled by ``v_scale`` and every downstream statement about V'
refers to the stored (normalized) coordinates.  With that normalization
the U' side of the glued space stays exactly Euclidean, so running
``embed_union`` over it with identity coordinates on both sides produces
a pair of maps (f1 on U', f2 on V') into one space that agree through the
pairing and whose distortions are certified against ``9 * d_f + 2``.

U' and V' are measured once each, and ``embed_union`` re-indexes their
matrices; f1 and f2 are both certified from rows of the embedding's.
"""

from dataclasses import dataclass

import numpy as np

from .audit import Collector, raise_failing
from .errors import InputError
from .metric import (PointCloud, _built_space, _carrying, _cloud,
                     _distortion_report, _index_list, _measured, _min_plus,
                     _readonly, build_partition, pairwise_distances)
# not called here, but kept as module attributes that the benchmark's
# traced run wraps by name (bench/spans.py)
from .metric import distortion_of, validate_metric  # noqa: F401
from .union_embed import UnionEmbedding, embed_union

__all__ = ["GlueInstance", "ExternalExtension", "glue_instance",
           "glued_metric", "external_extend"]


@dataclass(frozen=True)
class GlueInstance:
    """Two point sets with a normalized pairing between subsets.

    ``pairing[k]`` is the ``v_points`` row matched with row ``a_idx[k]``
    of ``u_points``; as a set it equals ``b_idx``.  ``v_points`` already
    carries the normalizing rescale: the pairing measured on the stored
    coordinates never contracts and stretches by at most ``d_f``.
    ``v_scale`` is the factor that was applied to the caller's raw
    coordinates (divide stored V' distances by it to recover raw ones).
    """

    u_points: PointCloud
    v_points: PointCloud
    a_idx: np.ndarray
    b_idx: np.ndarray
    pairing: np.ndarray
    d_f: float
    v_scale: float

    @property
    def n_pairs(self):
        return self.a_idx.size


@dataclass(frozen=True)
class ExternalExtension:
    """Common-target extension pair produced from a glue instance.

    ``f1`` maps the U' rows and ``f2`` the (normalized) V' rows into one
    space of dimension at most a + b + 1; paired rows share bitwise-equal
    images.  Distortions are measured against the Euclidean geometry of
    each side; ``bound`` is the certified ceiling 9 * d_f + 2.  ``audit``
    holds the four "glue.*" entries certified before returning.
    """

    f1: PointCloud
    f2: PointCloud
    distortion_f1: float
    distortion_f2: float
    d_f: float
    bound: float
    embedding: UnionEmbedding
    audit: tuple

    def as_dict(self):
        return {
            "distortion_f1": self.distortion_f1,
            "distortion_f2": self.distortion_f2,
            "d_f": self.d_f,
            "bound": self.bound,
        }


def glue_instance(u_points, v_points, a_idx, b_idx, pairing) -> GlueInstance:
    """Validate a pairing, measure its distortion, and normalize it.

    The raw pairing may contract some pairs and stretch others; its
    distortion ``d_f`` (stretch factor times contraction factor) is
    measured over all matched pairs.  Rescaling ``v_points`` by the
    contraction factor turns it into a non-contracting map with Lipschitz
    constant exactly ``d_f``, the form every glued-space statement
    assumes.  A single matched pair measures as an isometry.

    ``a_idx`` (into U'), ``b_idx`` and ``pairing`` (into V') are nonempty
    index lists of equal length; a bad list or point set raises
    InputError, as do matched points whose distances overflow, named by
    their side.  The stored clouds carry no squared distances.
    """
    U, V = _cloud(u_points), _cloud(v_points)
    a_idx = _index_list(a_idx, U.m, "a_idx")
    b_idx = _index_list(b_idx, V.m, "b_idx")
    pair = _index_list(pairing, V.m, "pairing")
    if not a_idx.size == b_idx.size == pair.size > 0:
        raise InputError("a_idx, b_idx and pairing must be nonempty and "
                         "of equal length")
    if not np.array_equal(np.sort(pair), np.sort(b_idx)):
        raise InputError("pairing must be a bijection onto b_idx")

    if a_idx.size >= 2:
        du = pairwise_distances(U.points[a_idx])
        dv = pairwise_distances(V.points[pair])
        iu, jv = np.triu_indices(a_idx.size, k=1)
        du, dv = du[iu, jv], dv[iu, jv]
        for what, d in (("u_points", du), ("v_points", dv)):
            if not d.max() < np.inf:
                raise InputError(f"{what}: matched points' distances overflow")
            if not d.min() > 0.0:
                raise InputError(f"{what}: matched points must be distinct")
        lip = float((dv / du).max())
        contraction = float((du / dv).max())
    else:
        lip = contraction = 1.0
    d_f = lip * contraction
    v_scale = contraction

    return GlueInstance(
        u_points=_carrying(U, None),
        v_points=PointCloud(V.points * v_scale),
        a_idx=_readonly(a_idx),
        b_idx=_readonly(b_idx),
        pairing=_readonly(pair),
        d_f=d_f,
        v_scale=v_scale,
    )


def _build_glued(G: GlueInstance):
    """(X, P, phi_a, phi_b, vv_direct, v_global): the quotient, its
    partition, U' and V' (in side-B row order) as measured private copies,
    V''s distances in its own row order, and each V' row's space index.

    Only the V' rows no pairing merges are routed: the cross block and
    their detours are two ``metric._min_plus`` products over them, the
    detours read through the cross block's pairing rows, and
    ``vv_direct`` stays whole for f2's report.  Sums and minima are
    exact, so each entry is what routing every row gives.  With the pairing
    non-contracting, these closed forms are the quotient's shortest-path
    metric (module docstring), so ``_built_space`` checks only the O(n^2)
    axioms; each entry, a kernel distance or the least of sums of at most
    three, is a few ulps from exact, far inside the triangle scan's slack.
    A U' or V' whose squared distances overflow: InputError naming it.
    """
    nu = G.u_points.m
    keep_v = np.setdiff1d(np.arange(G.v_points.m), G.pairing)
    v_global = np.empty(G.v_points.m, dtype=np.intp)
    v_global[G.pairing] = G.a_idx       # merged rows live at their partner
    v_global[keep_v] = nu + np.arange(keep_v.size)
    b_rows = np.argsort(v_global)       # V' rows in side-B order
    phi_a = _measured(G.u_points)
    phi_b = _measured(G.v_points.take(b_rows))
    for what, side in (("u_points", phi_a), ("v_points", phi_b)):
        if not side.sq_dist.max() < np.inf:
            raise InputError(f"{what}: squared distances overflow")
    uu = pairwise_distances(phi_a)
    pos = np.argsort(b_rows)
    vv_direct = pairwise_distances(phi_b)[np.ix_(pos, pos)]
    ua = uu[:, G.a_idx]                 # (nu, m) walk to a pairing point
    bp = vv_direct[np.ix_(keep_v, G.pairing)]  # (nk, m) to a partner image

    cross = _min_plus(ua, bp.T)
    # a detour leaves V' at a partner image, walks in U' from its pairing
    # point a_k, and comes back: cross's pairing rows already hold
    # min_l (uu[a_k, a_l] + bp[j, l])
    routed = _min_plus(bp, cross[G.a_idx])
    # the detour cost is symmetric, but its two summation orders round
    # differently; take the elementwise min so the matrix is exact
    routed = np.minimum(routed, routed.T)

    n = nu + keep_v.size
    D = np.zeros((n, n))
    D[:nu, :nu] = uu
    D[:nu, nu:] = cross
    D[nu:, :nu] = cross.T
    D[nu:, nu:] = np.minimum(vv_direct[np.ix_(keep_v, keep_v)], routed)
    labels = tuple(("u", int(i)) for i in range(nu)) \
        + tuple(("v", int(j)) for j in keep_v)
    X = _built_space(D, labels)
    P = build_partition(X, np.arange(nu), v_global)
    return X, P, phi_a, phi_b, vv_direct, v_global


def glued_metric(G: GlueInstance):
    """Shortest-path metric of the quotient, with its two-sided partition.

    Matched pairs are merged into single points (kept at their U' index),
    so the space has ``len(u_points) + len(v_points) - n_pairs`` points.
    Side A of the partition holds every U' point, side B the merged
    points plus the unmatched V' points.  The space is a metric by
    construction and takes the O(n^2) axiom checks only (see
    ``_build_glued``); coinciding points raise ZeroOffDiagonal.
    """
    return _build_glued(G)[:2]


def external_extend(G: GlueInstance) -> ExternalExtension:
    """Extend the pairing to all of U' and V' through one embedding.

    Runs ``embed_union`` on the glued space with identity coordinates on
    both sides (the U' side of the quotient is exactly Euclidean; the
    normalized V' side is non-contracting with stretch at most ``d_f``)
    and restricts the result to each side.  Certifies compatibility
    (paired rows agree bitwise), non-contraction of ``f2`` on V', and the
    distortion ceiling ``9 * d_f + 2`` before returning.

    U' and V' go in as measured copies (``G``'s clouds are not written);
    f1's and f2's certificates re-index their rows of ``full``'s matrix,
    against U''s and V''s distances, and measure nothing again.
    """
    X, P, phi_a, phi_b, vv_direct, v_global = _build_glued(G)
    emb = embed_union(X, P, phi_a, phi_b)

    nu = G.u_points.m
    f1 = PointCloud(emb.full.points[:nu].copy())
    f2 = PointCloud(emb.full.points[v_global].copy())

    # f1's and f2's distances are rows of full's: re-index its matrix
    sq = emb.full.sq_dist
    rep1 = _distortion_report(X.dist[:nu, :nu], sq[:nu, :nu], P.idx_a)
    rep2 = _distortion_report(vv_direct, sq[np.ix_(v_global, v_global)],
                              np.arange(G.v_points.m))
    d2 = rep2.expansion * max(rep2.contraction, 1.0)
    bound = 9.0 * G.d_f + 2.0
    audit = Collector()
    audit.scalar("glue.compatibility", "upper", np.abs(
        f1.points[G.a_idx] - f2.points[G.pairing]).max(), 0.0)
    audit.scalar("glue.extension_bound_f1", "upper", rep1.distortion, bound,
                 rep1.expansion_pair, allow=1e-6)
    audit.scalar("glue.f2_noncontracting", "upper",
                 1.0 - 1.0 / rep2.contraction, 0.0, rep2.contraction_pair,
                 allow=1e-9)
    audit.scalar("glue.extension_bound_f2", "upper", d2, bound,
                 rep2.expansion_pair, allow=1e-6)
    raise_failing(audit.entries)

    return ExternalExtension(
        f1=f1,
        f2=f2,
        distortion_f1=float(rep1.distortion),
        distortion_f2=float(d2),
        d_f=G.d_f,
        bound=bound,
        embedding=emb,
        audit=tuple(audit.entries),
    )
