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
at most k + 1 members (k the target dimension).  ``_ball_search`` solves
it exactly by Welzl's move-to-front recursion, pivoting on the worst
violator, with one Gram-Schmidt row per basis member and no iteration
cap, gap tolerance or warm start.  A violator that would make the basis
singular can only be a rounding tie and is not pushed; every caller
measures the result.  Any feasible level certifies F(y) <= sqrt(s).  The
search yields the basis and y; the barycentric weights of y over the
basis, one triangular solve on the search's rows, are computed only by
``_power_center``, for the two readers of weights: the Newton slope and
the certificate.

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
image within the level lam = lip (1 + tol/2), not the optimal one.  Each
step has one route: a snapped duplicate takes its recorded target;
otherwise one exact ball search for v(s) at s = lam^2 (s = 0 included,
where every target coincides) gives y, measured against every current
source and accepted when max_i ||y - t_i||^2 - s d_i^2 <= 0.  This step
reads y alone, so it computes no weights.  Every accepted
image is measured lam-Lipschitz against all earlier points, so by
Kirszbraun's theorem the level-lam ball intersection stays non-empty at
the next step.  Only a positive measure, which rounding at a tight level
can leave, or a weight s d_i^2 that overflows (no search runs on it) goes
to the optimal solver with its certificate; the final gate at
lip (1 + tol) measures again only the pairs with a placed point.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import metric
from .errors import InconsistentDuplicate, InputError, SolverStall
from .metric import PointCloud, _cloud, _measured, _real

__all__ = ["PartialMap", "extend_one_point", "extend_sequential"]

_CERT_TOL = 1e-6


@dataclass(frozen=True)
class PartialMap:
    """Finite map between point clouds with its measured Lipschitz constant.

    ``lip`` is measured at construction, never given, as the max pairwise
    ratio ||t_i - t_j|| / ||s_i - s_j|| (0 below two sources), from the
    squared distances each cloud carries or, when it carries none, from
    one kernel call.  Coinciding sources must carry equal targets
    (InconsistentDuplicate otherwise).
    """

    sources: PointCloud
    targets: PointCloud
    lip: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sources", _cloud(self.sources))
        object.__setattr__(self, "targets", _cloud(self.targets))
        if self.sources.m != self.targets.m:
            raise InputError(
                f"{self.sources.m} sources vs {self.targets.m} targets")
        object.__setattr__(self, "lip", 0.0 if self.m < 2 else _lip_from(
            _measured(self.sources).sq_dist, _measured(self.targets).sq_dist))

    @property
    def m(self):
        return self.sources.m


def _lip_from(S, T, m0=0):
    """Max ratio ||t_i - t_j|| / ||s_i - s_j|| over distinct sources j < i,
    i >= m0, from squared distances ``S``, ``T`` of rows m0 on against all
    rows; a coinciding pair with distinct targets: InconsistentDuplicate.
    A source distance that overflows measures no ratio: NaN, which
    ``_intake`` refuses."""
    r, j = np.tril_indices(S.shape[0], k=m0 - 1, m=S.shape[1])
    s, t = np.sqrt(S[r, j]), np.sqrt(T[r, j])
    dup = s == 0.0
    if np.any(dup & (t > 0.0)):
        k = int(np.nonzero(dup & (t > 0.0))[0][0])
        raise InconsistentDuplicate(int(j[k]), int(m0 + r[k]))
    if not np.all(s < math.inf):
        return math.nan
    live = ~dup
    return float((t[live] / s[live]).max()) if live.any() else 0.0


def _placed_lip(src, tgt, m0):
    """``_lip_from`` over the pairs with a placed row (m0 on), by one kernel
    call each: placed against all rows, or the self call if they are most."""
    return _lip_from(*(metric._squared_distances(z)[m0:] if 2 * m0 < len(z)
                       else metric._squared_distances(z[m0:], z)
                       for z in (src, tgt)), m0)


def _ball_search(T, c):
    """min_y max_i ||y - t_i||^2 + c_i, exactly.  Returns (R, y, z, rows).

    R is the basis (row indices) and y its ball's centre, y = T[R[0]] +
    z @ Q for the orthonormal Gram-Schmidt rows Q of the offsets from
    T[R[0]]; ``rows`` holds each push's coefficients (a, sig), one row of
    the lower-triangular system from which ``_power_center`` solves for
    weights.  The search itself computes no weights.  Each round pivots
    on the worst violator p (Gartner 1999), which lies on the boundary of
    the ball of the current basis plus p, and solves that problem of at
    most k + 2 rows (k = T.shape[1]) by Welzl's move-to-front recursion;
    v grows strictly from round to round.  The ball of a basis is the
    point of aff(T[R]) with equal power on R, built one member at a time:
    each new offset from T[R[0]] is orthogonalized against the basis span,
    leaving one equation for one new coordinate.  A violator that would
    make the basis singular (a Gram-Schmidt pivot at most 1e-12 of the
    basis scale) is not pushed: in exact arithmetic an affinely dependent
    violator cannot occur, so it violates by rounding only, and every
    caller measures the returned y against all rows.  The system's largest
    |entry| and smallest pivot, which the singularity test reads, are
    carried as running values.  Small products use ``ndarray.dot``, which
    calls the same BLAS routines as ``@`` with less dispatch.
    """
    k = T.shape[1]

    def push(ball, p):
        # ball: R, Q, z, rows, then the largest |entry| and the smallest
        # pivot of the triangular system, then y and v over R
        R, Q, z, rows, amax, piv, _, _ = ball
        if not R:
            return [p], Q, z, rows, amax, piv, T[p].copy(), float(c[p])
        t0 = T[R[0]]
        e = T[p] - t0
        ee = float(e.dot(e))
        if len(R) == 1:  # nothing to project out: a is empty and w = e
            a, w, ww, az = z, e, ee, 0.0
        else:
            a = Q.dot(e)
            w = e - a.dot(Q)
            a2 = Q.dot(w)  # second Gram-Schmidt pass keeps Q orthonormal
            w -= a2.dot(Q)
            a += a2
            ww, az = float(w.dot(w)), float(a.dot(z))
        sig = math.sqrt(ww)
        # singular: some Gram-Schmidt pivot, old or new, is at most 1e-12
        # of the largest offset coordinate
        if not min(sig, piv) > 1e-12 * max(math.sqrt(ee), amax):
            return None
        # 2 e.(y - t_0) = ||e||^2 + c_p - c_0 with y - t_0 = z @ Q
        zp = (0.5 * (ee + c[p] - c[R[0]]) - az) / sig
        Q = np.concatenate((Q, (w / sig)[None]))
        z = np.array([*z.tolist(), zp])
        R = R + [p]
        y = t0 + z.dot(Q)
        v = float((((y - T[R]) ** 2).sum(axis=1) + c[R]).max())
        amax = max(amax, sig, *np.abs(a).tolist())
        return R, Q, z, rows + ((a, sig),), amax, min(piv, sig), y, v

    def mtf(pts, end, base):
        # the ball of rows pts[:end] with every member of base's R tight
        ball, i = base, 0
        while len(base[0]) <= k and i < end:
            y, v = ball[6], ball[7]
            idx = pts[i:end]
            hit = (((y - T[idx]) ** 2).sum(axis=1) + c[idx] > v).nonzero()[0]
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

    empty = [], np.empty((0, k)), np.empty(0), (), 0.0, math.inf, None, None
    ball = push(empty, int(c.argmax()))
    while True:
        y, v = ball[6], ball[7]
        excess = ((y - T) ** 2).sum(axis=1) + c - v
        p = int(excess.argmax())
        if not excess[p] > 0.0:
            break
        R = np.array(ball[0])
        nxt = mtf(R, R.size, push(empty, p))
        if not nxt[7] > v:
            break
        ball = nxt
    R, _, z, rows, _, _, y, _ = ball
    return R, y, z, rows


def _power_center(T, c):
    """min_y max_i ||y - t_i||^2 + c_i with its weights.  Returns
    (y, v, R, lam).

    ``_ball_search`` finds the basis R and y; here lam, the barycentric
    weights of y over R (y = lam @ T[R]), comes from one triangular solve
    on the search's Gram-Schmidt rows, and v is measured at y over every
    row.  Only the callers that read the weights come here: the Newton
    slope of ``_solve_extension`` and ``_certificate_norm``.
    """
    R, y, z, rows = _ball_search(T, c)
    A = np.zeros((len(rows), len(rows)))
    for i, (a, sig) in enumerate(rows):
        A[i, :i], A[i, i] = a, sig
    mu = np.linalg.solve(A.T, z) if rows else np.empty(0)
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
    sources with different targets raise InconsistentDuplicate.  A point
    whose squared distances overflow (d = inf) raises InputError.
    """
    dmax = float(d.max())
    if not dmax < math.inf:
        raise InputError("a point's distance to the sources overflows")
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


def _certified_solve(tgt, d):
    """The optimal image and its objective, (y, F); a failed first-order
    certificate raises SolverStall, since the solve cannot be trusted."""
    y, F, cert = _solve_extension(tgt, d)
    if not cert <= _CERT_TOL:   # a NaN fails too
        raise SolverStall(
            F, F, message=f"first-order certificate failed: "
                          f"||combination|| = {cert:.3e}")
    return y, F


def _level_image(tgt, d, s):
    """Some y with ||y - t_i||^2 <= s d_i^2 for every i, or None.

    One exact ball search for v(s) on targets taken relative to the
    target of the nearest source; only y is read, so no weights are
    computed.  The returned y is measured against every source in the
    original frame; None when that measure is positive (the level is
    infeasible, or rounding at a tight level), and with no search when a
    weight s d_i^2 overflows, though s and d_i^2 do not.
    """
    dmax = float(d.max())
    if not s * (dmax * dmax) < math.inf:   # the largest weight, as below
        return None
    origin = tgt[int(d.argmin())]
    sdd = s * (d * d)
    y = _ball_search(tgt - origin, -sdd)[1] + origin
    if float((((y - tgt) ** 2).sum(axis=1) - sdd).max()) > 0.0:
        return None
    return y


def _distances(x, sources):
    """||x - s_i|| for each row s_i of ``sources``: inf, with no numpy
    warning, where the difference or its square overflows, for ``_snap``
    to refuse by name."""
    with np.errstate(over="ignore"):
        return np.sqrt(((x - sources) ** 2).sum(axis=1))


def _check_tol(tol):
    """A relative tolerance must be finite and >= 0: a NaN or infinite one
    would make every ``> lip * (1 + tol)`` gate pass."""
    if not 0.0 <= _real(tol, "tol") < math.inf:
        raise InputError(f"tol must be a finite number >= 0, got {tol!r}")


def _intake(M, xs, tol):
    """(xs as a cloud, the gate lip * (1 + tol)); InputError for a bad tol,
    an empty map, points of another dimension, and a map constant or a
    squared gate that overflows (``_snap`` refuses a point's distances)."""
    _check_tol(tol)
    if M.m == 0:
        raise InputError("cannot extend an empty partial map")
    xs = _cloud(xs)
    if xs.m and xs.dim != M.sources.dim:
        raise InputError(
            f"points have dim {xs.dim}, sources have dim {M.sources.dim}")
    if not math.isfinite(M.lip):
        raise InputError(f"the map's Lipschitz constant overflows: {M.lip}")
    gate = M.lip * (1.0 + tol)
    if not gate * gate < math.inf:
        raise InputError(f"the squared level overflows: lip = {M.lip!r}")
    return xs, gate


def extend_one_point(M: PartialMap, x, tol=1e-7) -> np.ndarray:
    """Image for a new source ``x`` keeping the map within lip(1 + tol).

    Exact duplicates of existing sources (and near-duplicates, within
    1e-12 of the source scale) short-circuit to the recorded target.
    Raises SolverStall when the optimized objective exceeds
    lip * (1 + tol) (a NaN one too), and on a failed first-order
    certificate.  What ``_intake`` refuses raises InputError.
    """
    xs, gate = _intake(M, [x], tol)
    d = _distances(xs.points[0], M.sources.points)
    y = _snap(M.targets.points, d)
    if y is not None:
        return y
    y, F = _certified_solve(M.targets.points, d)
    if not F <= gate:
        raise SolverStall(F, gate)
    return y


def extend_sequential(M: PartialMap, xs: PointCloud, tol=1e-7) -> PointCloud:
    """Extend ``M`` over all rows of ``xs``, one point at a time.

    Each placement becomes a constraint for the next.  A step only needs
    an image within the fixed level lip * (1 + tol/2) of every earlier
    point, not the minimax optimum.  A snapped duplicate takes its
    recorded target; every other step, lip 0 included, takes the image
    one fixed-level ball search finds, which reads y and no weights.
    Only a step that rounding leaves infeasible, or whose level weights
    overflow, goes to the optimal solver, without a gate (such a step
    may legitimately sit a few ulp above lip).  Each pair with a placed
    point is measured again and must stay within M.lip * (1 + tol), else
    SolverStall (a NaN image too); the map's own pairs keep M.lip, as its
    clouds are never written.
    Returns the images of xs in row order.  What ``_intake`` refuses
    raises InputError.
    """
    xs, gate = _intake(M, xs, tol)
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
        d = _distances(x, src[:m])
        y = _snap(tgt[:m], d)
        if y is None:
            y = _level_image(tgt[:m], d, s)
        if y is None:
            y, _ = _certified_solve(tgt[:m], d)
        src[m] = x
        tgt[m] = y

    final_lip = _placed_lip(src, tgt, m0)
    if not final_lip <= gate:   # a NaN image fails too
        raise SolverStall(final_lip, gate,
                          message="sequential extension exceeded tolerance")
    return PointCloud(tgt[m0:])
