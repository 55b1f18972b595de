"""One-point-at-a-time Lipschitz extension between Euclidean spaces.

Given a finite map s_i -> t_i with Lipschitz constant L (the realization of
Kirszbraun's theorem at finitely many points), a new source x can always be
assigned a target y with max_i ||y - t_i|| / ||x - s_i|| <= L.  This module
finds such a y by minimizing the max ratio

    F(y) = max_i ||y - t_i|| / d_i,        d_i = ||x - s_i||,

to near machine precision and certifying first-order optimality.

Solver.  For a level s,

    v(s) = min_y max_i (||y - t_i||^2 - s d_i^2)

is convex and decreasing in s, with root s* = F(y*)^2.  Any two of these
constraints differ by an affine function of y, so v(s) is a smallest
enclosing ball under power distance: an LP-type problem whose bases have
at most k + 1 members (k the target dimension).  ``_power_center`` solves
it exactly by Welzl's move-to-front recursion, pivoting on the worst
violator, with one small triangular update per basis member and no
iteration cap, gap tolerance or warm start.  A violator that would make
the basis singular can only be a rounding tie and is not pushed; every
caller measures the result.  Any feasible level certifies F(y) <= sqrt(s).

The optimal solve runs Newton on s from a pairwise lower bound, where
each tangent slope -sum_i lam_i d_i^2 comes from the basis weights,
closes each iterate's basis in the ratios themselves (``_ratio_root``)
and keeps the best measured point.  The first-order certificate
re-measures, at the returned y, that the unit directions
(y - t_i)/||y - t_i|| of active constraints admit a convex combination
with norm <= 1e-6 (equivalently 0 lies in their hull, the subdifferential
condition for a minimizer of F).  That combination is the centre of the
smallest ball around the unit directions, found by the same solver.

Sequential placement at a fixed level.  ``extend_sequential`` needs some
image within the level lam = lip (1 + tol/2), not the optimal one.  It
fixes s = lam^2 and makes one exact solve of v(s) over all sources.
The returned y is measured against every current source and accepted when
max_i ||y - t_i||^2 - s d_i^2 <= 0.  Every accepted image is measured
lam-Lipschitz against all earlier points, so by Kirszbraun's theorem the
level-lam ball intersection stays non-empty at the next step.  A positive
measure (rounding at a tight level), lip = 0 and a snapped duplicate fall
back to the optimal solver; the all-pairs gate at lip (1 + tol) on the
final map is unchanged.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentDuplicate, InputError, SolverStall
from .linalg import PointCloud
from . import metric

__all__ = ["PartialMap", "extend_one_point", "extend_sequential"]

_CERT_TOL = 1e-6


@dataclass(frozen=True)
class PartialMap:
    """Finite map between point clouds with its measured Lipschitz constant.

    ``lip`` is computed at construction as the max pairwise ratio
    ||t_i - t_j|| / ||s_i - s_j||.  Coinciding sources must carry equal
    targets (InconsistentDuplicate otherwise).
    """

    sources: PointCloud
    targets: PointCloud
    lip: float = None

    def __post_init__(self):
        if self.sources.m != self.targets.m:
            raise InputError(
                f"{self.sources.m} sources vs {self.targets.m} targets")
        if self.lip is None:
            object.__setattr__(self, "lip", _measured_lip(
                self.sources.points, self.targets.points))

    @property
    def m(self):
        return self.sources.m


def _measured_lip(src, tgt):
    sq = metric._squared_distances
    return 0.0 if src.shape[0] < 2 else _lip_from(sq(src), sq(tgt))


def _lip_from(S, T):
    """Max ratio ||t_i - t_j|| / ||s_i - s_j|| over distinct sources,
    from squared source and target distances ``S`` and ``T``; coinciding
    sources with distinct targets raise InconsistentDuplicate."""
    iu, ju = np.triu_indices(S.shape[0], k=1)
    s, t = np.sqrt(S[iu, ju]), np.sqrt(T[iu, ju])
    dup = s == 0.0
    if np.any(dup & (t > 0.0)):
        k = int(np.nonzero(dup & (t > 0.0))[0][0])
        raise InconsistentDuplicate(int(iu[k]), int(ju[k]))
    live = ~dup
    return float((t[live] / s[live]).max()) if live.any() else 0.0


def _power_center(T, c):
    """min_y max_i ||y - t_i||^2 + c_i, exactly.  Returns (y, v, R, lam).

    v is measured at y over every row; R is the basis (row indices) and
    lam its barycentric weights, y = lam @ T[R].  Each round pivots on the
    worst violator p (Gartner 1999), which lies on the boundary of the
    ball of the current basis plus p, and solves that problem of at most
    k + 2 rows (k = T.shape[1]) by Welzl's move-to-front recursion; v
    grows strictly from round to round.  The ball of a basis is the point
    of aff(T[R]) with equal power on R, built one member at a time: each
    new offset from T[R[0]] is orthogonalized against the basis span,
    leaving one equation for one new coordinate.  A violator that would
    make the basis singular (a Gram-Schmidt pivot at most 1e-12 of the
    basis scale) is not pushed: in exact arithmetic an affinely dependent
    violator cannot occur, so it violates by rounding only, and every
    caller measures the returned y against all rows.
    """
    k = T.shape[1]

    def push(ball, p):
        R, Q, A, z, _, _ = ball
        if not R:
            return [p], Q, A, z, T[p].copy(), float(c[p])
        e = T[p] - T[R[0]]
        a = Q @ e
        w = e - a @ Q
        a2 = Q @ w  # second Gram-Schmidt pass keeps Q orthonormal
        w -= a2 @ Q
        a += a2
        sig = float(np.sqrt(w @ w))
        # singular: some Gram-Schmidt pivot, old or new, is at most 1e-12
        # of the largest offset coordinate
        scale = max(float(np.sqrt(e @ e)), np.abs(A).max(initial=0.0))
        if not min(sig, np.diag(A).min(initial=np.inf)) > 1e-12 * scale:
            return None
        # 2 e.(y - t_0) = ||e||^2 + c_p - c_0 with y - t_0 = z @ Q
        zp = (0.5 * (float(e @ e) + c[p] - c[R[0]]) - float(a @ z)) / sig
        r = len(R) - 1
        A2 = np.zeros((r + 1, r + 1))
        A2[:r, :r], A2[r, :r], A2[r, r] = A, a, sig
        Q, z, R = np.vstack([Q, w / sig]), np.append(z, zp), R + [p]
        y = T[R[0]] + z @ Q
        v = float((((y - T[R]) ** 2).sum(axis=1) + c[R]).max())
        return R, Q, A2, z, y, v

    def mtf(pts, end, base):
        # the ball of rows pts[:end] with every member of base's R tight
        ball, i = base, 0
        while len(base[0]) <= k and i < end:
            y, v = ball[4], ball[5]
            idx = pts[i:end]
            hit = np.flatnonzero(((y - T[idx]) ** 2).sum(axis=1) + c[idx] > v)
            if not hit.size:
                break
            i += int(hit[0])
            p = int(pts[i])
            nxt = push(base, p)
            if nxt is not None:  # else a rounding tie: p stays unpushed
                ball = mtf(pts, i, nxt)
                pts[1:i + 1] = pts[:i].copy()
                pts[0] = p
            i += 1
        return ball

    empty = [], np.empty((0, k)), np.empty((0, 0)), np.empty(0), None, None
    ball = push(empty, int(np.argmax(c)))
    while True:
        y, v = ball[4], ball[5]
        excess = ((y - T) ** 2).sum(axis=1) + c - v
        p = int(np.argmax(excess))
        if not excess[p] > 0.0:
            break
        R = np.array(ball[0])
        nxt = mtf(R, R.size, push(empty, p))
        if not nxt[5] > v:
            break
        ball = nxt
    R, _, A, z, y, _ = ball
    mu = np.linalg.solve(A.T, z) if len(R) > 1 else np.empty(0)
    lam = np.concatenate([[1.0 - mu.sum()], mu])
    v = float((((y - T) ** 2).sum(axis=1) + c).max())
    return y, v, R, lam


def _certificate_norm(y, tgt, d):
    """Distance from 0 to the hull of active-constraint unit directions.

    Active means ratio within 1e-7 (relative) of the max.  The centre of
    the smallest ball around unit vectors is the min-norm point of their
    hull, so ``_power_center`` with c = 0 finds the convex combination,
    independent of the weights the main solve produced.  The norm is
    measured from the clipped, renormalized weights, so it never falls
    below the true distance.
    """
    diff = y - tgt
    norms = np.sqrt((diff * diff).sum(axis=1))
    ratios = norms / d
    F = float(ratios.max())
    if F == 0.0:
        return 0.0
    active = ratios >= F * (1.0 - 1e-7)
    units = diff[active] / norms[active][:, None]
    _, _, R, lam = _power_center(units, np.zeros(units.shape[0]))
    lam = np.maximum(lam, 0.0)
    mn = (lam @ units[R]) / lam.sum()
    return float(np.sqrt(mn @ mn))


def _ratio_root(T, d, R, y):
    """Newton on ||y - t_i|| / d_i = F over the basis R, y in aff(T[R]).

    The ratio form stays well conditioned where the squared level form
    drowns the small-d members in the rounding of the large ones, so this
    closes a basis found at a level to the precision of the ratios.  Starts
    from the projection of y onto aff(T[R]); steps continue while the
    largest residual falls, and the last point reached is returned.  The
    point is kept relative to the member with the smallest d, the one it
    lies nearest to.
    """
    R = sorted(R, key=lambda i: d[i])
    t0, dR = T[R[0]], d[R]
    Q = np.linalg.qr((T[R[1:]] - t0).T)[0].T
    r = Q.shape[0]

    def residual(w, F):
        yw = t0 + w @ Q
        diff = yw - T[R]
        n = np.sqrt((diff * diff).sum(axis=1))
        return yw, diff, n, n / dR - F

    w = Q @ (y - t0)
    yw, diff, n, ratios = residual(w, 0.0)
    F = float(ratios.max())
    rho = ratios - F
    err = float(np.abs(rho).max())
    while err > 0.0 and np.all(n > 0.0):
        J = np.empty((r + 1, r + 1))
        J[:, :r] = (diff @ Q.T) / (n * dR)[:, None]
        J[:, r] = -1.0
        try:
            step = np.linalg.solve(J, -rho)
        except np.linalg.LinAlgError:
            break
        w2, F2 = w + step[:r], F + step[r]
        yw2, diff2, n2, rho2 = residual(w2, F2)
        err2 = float(np.abs(rho2).max())
        if not err2 < err:
            break
        w, F, yw, diff, n, rho, err = w2, F2, yw2, diff2, n2, rho2, err2
    return yw


def _solve_extension(tgt, d):
    """Minimize F(y) = max ||y - t_i||/d_i.  Returns (y, F, cert_norm).

    Newton on the level s from below, starting at the pairwise bounds of
    the nearest source: each step solves v(s) exactly with
    ``_power_center`` and moves to the root of the tangent, whose slope is
    -sum_i lam_i d_i^2 over the basis.  v is convex and decreasing, so
    every iterate stays at or below the root s* = F(y*)^2.  The level
    values carry rounding of order eps s max d_i^2, which can hide a basis
    change near the root, so the loop ends only once v <= 0, s stops
    growing, or v fails to fall on an unchanged basis.  ``_ratio_root``
    closes each iterate's basis in the ratios themselves, and the point
    that measures the smallest F is kept.
    """
    tgt = np.asarray(tgt, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if np.all(tgt == tgt[0]):
        return tgt[0].copy(), 0.0, 0.0
    origin = tgt[int(np.argmin(d))]
    T = tgt - origin
    dd = d * d

    def ratio_max(y):
        return float((np.sqrt(((y - T) ** 2).sum(axis=1)) / d).max())

    # every pair bounds the root from below, ||t_i - t_j|| <= F* (d_i + d_j);
    # the pairs with the nearest source start Newton near it, where bases
    # are small
    s = float((np.sqrt((T * T).sum(axis=1)) / (d + d.min())).max()) ** 2
    basis, v_prev, best = None, np.inf, None
    while True:
        y, v, R, lam = _power_center(T, -s * dd)
        if set(R) == basis and not v < v_prev:
            break
        basis, v_prev = set(R), v
        for cand in (y, _ratio_root(T, d, R, y)):
            F = ratio_max(cand)
            if best is None or F < best[1]:
                best = cand, F
        slope = float(lam @ dd[R])
        if v <= 0.0 or not slope > 0.0 or not s + v / slope > s:
            break
        s += v / slope
    y = best[0] + origin
    F = float((np.sqrt(((y - tgt) ** 2).sum(axis=1)) / d).max())
    return y, F, _certificate_norm(y, tgt, d)


def _snap(tgt, d):
    """Recorded target when x coincides with a source, else None.

    Coincidence is exact or within 1e-12 of the source scale; coinciding
    sources with different targets raise InconsistentDuplicate.
    """
    dmax = float(d.max())
    if dmax == 0.0:
        return tgt[0].copy()
    snap = d <= 1e-12 * dmax
    if snap.any():
        rows = tgt[snap]
        if not np.all(rows == rows[0]):
            ii = np.nonzero(snap)[0]
            raise InconsistentDuplicate(int(ii[0]), int(ii[1]))
        return rows[0].copy()
    return None


def _place_point(src, tgt, x, src_dim):
    """Duplicate handling plus the optimizer; no Lipschitz gate.

    Returns (y, objective, certificate_norm).  Certificate failures raise
    SolverStall here since they mean the solve cannot be trusted.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != src_dim:
        raise InputError(
            f"point has dim {x.shape[0]}, sources have dim {src_dim}")
    d = np.sqrt(((x - src) ** 2).sum(axis=1))
    y = _snap(tgt, d)
    if y is not None:
        return y, 0.0, 0.0

    y, F, cert = _solve_extension(tgt, d)
    if cert > _CERT_TOL:
        raise SolverStall(
            F, F, message=f"first-order certificate failed: "
                          f"||combination|| = {cert:.3e}")
    return y, F, cert


def _level_image(tgt, d, s):
    """Some y with ||y - t_i||^2 <= s d_i^2 for every i, or None.

    One exact solve of v(s), started from the nearest source, on targets
    taken relative to its target.  The returned y is measured against
    every source in the original frame; None when that measure is
    positive (the level is infeasible, or rounding at a tight level).
    """
    origin = tgt[int(np.argmin(d))]
    dd = d * d
    y = _power_center(tgt - origin, -s * dd)[0] + origin
    if float((((y - tgt) ** 2).sum(axis=1) - s * dd).max()) > 0.0:
        return None
    return y


def extend_one_point(M: PartialMap, x, tol=1e-7) -> np.ndarray:
    """Image for a new source ``x`` keeping the map within lip(1 + tol).

    Exact duplicates of existing sources (and near-duplicates, within
    1e-12 of the source scale) short-circuit to the recorded target.
    Raises SolverStall when the optimized objective exceeds
    lip * (1 + tol), and on a failed first-order certificate.
    """
    if M.m == 0:
        raise InputError("cannot extend an empty partial map")
    y, F, _ = _place_point(M.sources.points, M.targets.points, x,
                           M.sources.dim)
    target = M.lip * (1.0 + tol)
    if F > target:
        raise SolverStall(F, target)
    return y


def extend_sequential(M: PartialMap, xs: PointCloud, tol=1e-7) -> PointCloud:
    """Extend ``M`` over all rows of ``xs``, one point at a time.

    Each placement becomes a constraint for the next.  A step only needs
    an image within the fixed level lip * (1 + tol/2) of every earlier
    point, not the minimax optimum, and takes the first one a fixed-level
    feasibility solve finds.  Snapped duplicates, maps with lip 0 and
    steps where that solve gives up go to the optimal solver instead,
    without a gate (such a step may legitimately sit a few ulp above
    lip).  The final map on sources + xs is re-measured pairwise and must
    stay within M.lip * (1 + tol), else SolverStall.  Returns the images
    of xs in row order.
    """
    if M.m == 0:
        raise InputError("cannot extend an empty partial map")
    if xs.m and xs.dim != M.sources.dim:
        raise InputError(
            f"xs has dim {xs.dim}, sources have dim {M.sources.dim}")
    m0 = M.m
    src = np.empty((m0 + xs.m, M.sources.dim))
    tgt = np.empty((m0 + xs.m, M.targets.dim))
    src[:m0] = M.sources.points
    tgt[:m0] = M.targets.points
    level = M.lip * (1.0 + 0.5 * tol)
    s = level * level
    for k in range(xs.m):
        m = m0 + k
        x = xs.points[k]
        d = np.sqrt(((x - src[:m]) ** 2).sum(axis=1))
        y = None
        if s > 0.0 and _snap(tgt[:m], d) is None:
            y = _level_image(tgt[:m], d, s)
        if y is None:
            y, _, _ = _place_point(src[:m], tgt[:m], x, M.sources.dim)
        src[m] = x
        tgt[m] = y

    final_lip = _measured_lip(src, tgt)
    if final_lip > M.lip * (1.0 + tol):
        raise SolverStall(final_lip, M.lip * (1.0 + tol),
                          message="sequential extension exceeded tolerance")
    return PointCloud(tgt[m0:])
