"""Alpha-covers of one partition side with respect to the other.

A cover A' of A (w.r.t. B, at parameter alpha) satisfies:

  (1) every a in A has a witness a' in A' with R_{a'} <= R_a and
      d(a, a') <= alpha * R_a, where R_x = d(x, B);
  (2) distinct cover points u, v satisfy d(u, v) >= alpha * min(R_u, R_v).

``build_cover`` constructs one greedily (ascending R, ball removal), picks
for each a the closest qualifying witness f(a), and exhaustively verifies
both properties before returning.  ``certify_f_lipschitz`` re-measures the
Lipschitz constant of f and checks it against the 2(1 + 1/alpha) ceiling.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import CertificateViolation, InputError
from .metric import FiniteMetricSpace, UnionPartition, _readonly

__all__ = ["CoverResult", "build_cover", "verify_cover",
           "certify_f_lipschitz", "f_lip_bound"]


@dataclass(frozen=True)
class CoverResult:
    """Cover of side A, its nearest-point map into B, and Lipschitz data.

    ``cover_idx`` are space indices (a sorted subset of idx_a).  ``nearest``
    is aligned with cover_idx: nearest[k] is the space index of the B-point
    closest to cover_idx[k], so dist[cover_idx[k], nearest[k]] equals the
    point's distance to B exactly.  Overlap points map to themselves.
    """

    alpha: float
    cover_idx: np.ndarray
    nearest: np.ndarray
    lip_f: float
    lip_bound: float


def f_lip_bound(alpha: float) -> float:
    return 2.0 * (1.0 + 1.0 / alpha)


def _check_alpha(alpha):
    """The one check of alpha: a real number (no bool) in (0, 1] whose
    bound 2(1 + 1/alpha) is finite, else InputError."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) \
            or not 0.0 < alpha <= 1.0:   # also nan
        raise InputError(f"alpha must lie in (0, 1], got {alpha!r}")
    if not np.isfinite(f_lip_bound(alpha)):
        raise InputError(f"alpha {alpha!r} is too small: its Lipschitz "
                         f"bound 2(1 + 1/alpha) overflows")


def build_cover(X: FiniteMetricSpace, P: UnionPartition,
                alpha: float) -> CoverResult:
    """Greedy alpha-cover of P.idx_a with respect to P.idx_b."""
    _check_alpha(alpha)
    ia = P.idx_a
    R = P.r_a
    DA = X.dist[np.ix_(ia, ia)]
    na = ia.size

    # greedy: repeatedly take the live point with the smallest R (lowest
    # index on ties) and retire everything within alpha*R of it
    order = np.argsort(R, kind="stable")
    covered = np.zeros(na, dtype=bool)
    picked = []
    for pos in order:
        if covered[pos]:
            continue
        picked.append(pos)
        covered |= (~covered) & (DA[pos] <= alpha * R[pos])
        covered[pos] = True
    picked = np.sort(np.asarray(picked, dtype=np.intp))
    cover_idx = ia[picked]

    # nearest point in B per cover point, lowest index on ties; an overlap
    # point maps to itself, the only B point at distance 0 from it in a
    # validated space
    ib = P.idx_b
    nearest = ib[np.argmin(X.dist[np.ix_(cover_idx, ib)], axis=1)]

    result = CoverResult(alpha=float(alpha),
                         cover_idx=_readonly(cover_idx),
                         nearest=_readonly(nearest),
                         lip_f=0.0,
                         lip_bound=f_lip_bound(alpha))
    verify_cover(X, P, result)
    return replace(result, lip_f=certify_f_lipschitz(X, P, result))


def verify_cover(X: FiniteMetricSpace, P: UnionPartition,
                 C: CoverResult) -> None:
    """Exhaustively recheck cover properties (1) and (2).

    Raises CertificateViolation on any failure; this signals a bug in the
    construction, never a legitimate outcome.
    """
    ia = P.idx_a
    R = P.r_a
    pos_of = {int(v): k for k, v in enumerate(ia)}
    cov_pos = np.asarray([pos_of[int(c)] for c in C.cover_idx], dtype=np.intp)

    # property (1): every a in A has a cover point a' with R_{a'} <= R_a
    # and d(a, a') <= alpha * R_a
    Rc = R[cov_pos]
    Dac = X.dist[np.ix_(ia, C.cover_idx)]
    has = ((Rc[None, :] <= R[:, None])
           & (Dac <= C.alpha * R[:, None])).any(axis=1)
    if not has.all():
        a = int(ia[int(np.argmax(~has))])
        raise CertificateViolation("cover.witness_exists", a,
                                   0.0, float(C.alpha))

    # property (2) pairwise over the cover
    m = cov_pos.size
    if m > 1:
        Dc = X.dist[np.ix_(C.cover_idx, C.cover_idx)]
        floor = C.alpha * np.minimum(Rc[:, None], Rc[None, :])
        bad = (Dc < floor) & ~np.eye(m, dtype=bool)
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            raise CertificateViolation(
                "cover.separation",
                (int(C.cover_idx[i]), int(C.cover_idx[j])),
                float(Dc[i, j]), float(floor[i, j]))

    # nearest-point map: lands in B, realizes the distance to B exactly,
    # and fixes overlap points
    b_set = set(int(v) for v in P.idx_b)
    for k, c in enumerate(C.cover_idx):
        c = int(c)
        f_c = int(C.nearest[k])
        if f_c not in b_set:
            raise CertificateViolation("cover.nearest_in_b", (c, f_c),
                                       float(f_c), 0.0)
        if X.dist[c, f_c] != R[cov_pos[k]]:
            raise CertificateViolation("cover.nearest_realizes_r", (c, f_c),
                                       float(X.dist[c, f_c]),
                                       float(R[cov_pos[k]]))
        if c in b_set and f_c != c:
            raise CertificateViolation("cover.overlap_fixed", (c, f_c),
                                       float(f_c), float(c))


def certify_f_lipschitz(X: FiniteMetricSpace, P: UnionPartition,
                        C: CoverResult) -> float:
    """Measured Lipschitz constant of the nearest-point map on the cover.

    Certifies lip(f) <= 2(1 + 1/alpha) within 1e-9 relative slack and
    returns the measured value (0 for a singleton cover).
    """
    m = C.cover_idx.size
    if m < 2:
        return 0.0
    D = X.dist[np.ix_(C.cover_idx, C.cover_idx)]
    Df = X.dist[np.ix_(C.nearest, C.nearest)]
    iu, ju = np.triu_indices(m, k=1)
    ratios = Df[iu, ju] / D[iu, ju]
    k = int(np.argmax(ratios))
    lip = float(ratios[k])
    bound = f_lip_bound(C.alpha)
    if lip > bound * (1.0 + 1e-9):
        raise CertificateViolation(
            "cover.f_lipschitz",
            (int(C.cover_idx[iu[k]]), int(C.cover_idx[ju[k]])), lip, bound)
    return lip
