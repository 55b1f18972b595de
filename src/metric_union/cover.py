"""Alpha-covers of one partition side with respect to the other.

A cover A' of A (w.r.t. B, at parameter alpha) satisfies:

  (1) every a in A has a witness a' in A' with R_{a'} <= R_a and
      d(a, a') <= alpha * R_a, where R_x = d(x, B);
  (2) distinct cover points u, v satisfy d(u, v) >= alpha * min(R_u, R_v).

``build_cover`` constructs one greedily (ascending R, ball removal), picks
for each a the closest qualifying witness f(a), and returns it with the
entries of ``verify_cover``, which rechecks both properties, the map f and
its Lipschitz constant against the 2(1 + 1/alpha) ceiling exhaustively.
"""

from dataclasses import dataclass, replace

import numpy as np

from .audit import Collector, raise_failing
from .errors import InputError
from .metric import FiniteMetricSpace, UnionPartition, _readonly, _real

__all__ = ["CoverResult", "build_cover", "verify_cover", "f_lip_bound"]


@dataclass(frozen=True)
class CoverResult:
    """Cover of side A, its nearest-point map into B, and Lipschitz data.

    ``cover_idx`` are space indices (a sorted subset of idx_a).  ``nearest``
    is aligned with cover_idx: nearest[k] is the space index of the B-point
    closest to cover_idx[k], so dist[cover_idx[k], nearest[k]] equals the
    point's distance to B exactly.  Overlap points map to themselves.
    ``audit`` holds the entries ``build_cover`` checked the result with.
    """

    alpha: float
    cover_idx: np.ndarray
    nearest: np.ndarray
    lip_f: float
    lip_bound: float
    audit: tuple = ()


def f_lip_bound(alpha: float) -> float:
    return 2.0 * (1.0 + 1.0 / alpha)


def _check_alpha(alpha):
    """The one check of alpha: a real number (no bool) in (0, 1] whose
    bound 2(1 + 1/alpha) is finite, else InputError."""
    if not 0.0 < _real(alpha, "alpha") <= 1.0:   # also nan
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
    audit = verify_cover(X, P, result)
    return replace(result, lip_f=audit[-1].measured, audit=audit)


def verify_cover(X: FiniteMetricSpace, P: UnionPartition,
                 C: CoverResult) -> tuple:
    """Exhaustively recheck cover properties (1) and (2), the nearest-point
    map (it lands in B, realizes each R exactly and fixes overlap points)
    and lip(f) against 2(1 + 1/alpha); returns their entries, of which
    the last, "cover.f_lipschitz", measures lip(f) (0 for one point).

    lip(f) allows 1e-9 of its bound; the others compare exactly.  Raises
    CertificateViolation naming a failing entry; this signals a bug in the
    construction, never a legitimate outcome.  A cover point outside side
    A raises InputError before anything is measured.
    """
    ia, ib, R = P.idx_a, P.idx_b, P.r_a
    cov, near = C.cover_idx, C.nearest
    if not np.isin(cov, ia).all():
        raise InputError("cover_idx lists points outside side A")
    Rc = R[np.searchsorted(ia, cov)]   # ia is sorted
    audit = Collector()

    # (1): each a's least d(a, a') - alpha * R_a over the cover points a'
    # with R_{a'} <= R_a is at most 0 (inf where none qualifies; an empty
    # cover pairs each a with itself)
    excess = X.dist[np.ix_(ia, cov)]
    excess -= C.alpha * R[:, None]
    excess[Rc[None, :] > R[:, None]] = np.inf
    best = cov[np.argmin(excess, axis=1)] if cov.size else ia
    audit.add("cover.witness_exists", "upper",
              excess.min(axis=1, initial=np.inf), (ia, best), 0.0)
    # (2) over distinct cover points
    iu, ju = np.triu_indices(cov.size, k=1)
    u, v = cov[iu], cov[ju]
    audit.add("cover.separation", "lower",
              X.dist[u, v] - C.alpha * np.minimum(Rc[iu], Rc[ju]), (u, v), 0.0)
    # the nearest-point map
    is_b = np.zeros(X.n, dtype=bool)
    is_b[ib] = True
    audit.add("cover.nearest_in_b", "upper", ~is_b[near], (cov, near), 0.0)
    audit.add("cover.nearest_realizes_r", "upper",
              np.abs(X.dist[cov, near] - Rc), (cov, near), 0.0)
    audit.add("cover.overlap_fixed", "upper", is_b[cov] & (near != cov),
              (cov, near), 0.0)

    bound = f_lip_bound(C.alpha)
    audit.add("cover.f_lipschitz", "upper",
              X.dist[near[iu], near[ju]] / X.dist[u, v], (u, v), bound,
              allow=1e-9 * bound)
    if cov.size < 2:   # no pair: f on one point is 0-Lipschitz
        audit.scalar("cover.f_lipschitz", "upper", 0.0, bound,
                     allow=1e-9 * bound)
    raise_failing(audit.entries)
    return tuple(audit.entries)
