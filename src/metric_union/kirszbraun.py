"""One-point-at-a-time Lipschitz extension between Euclidean spaces.

Given a finite map s_i -> t_i with Lipschitz constant L (the realization of
Kirszbraun's theorem at finitely many points), a new source x can always be
assigned a target y with max_i ||y - t_i|| / ||x - s_i|| <= L.  This module
finds such a y by minimizing the max ratio

    F(y) = max_i ||y - t_i|| / d_i,        d_i = ||x - s_i||,

to near machine precision and certifying first-order optimality.

Solver.  Constraint generation drives everything: the minimax is solved
exactly on a small working set, the worst violator joins, inactive members
leave, and the loop stops when no constraint exceeds the working-set level
(whose KKT conditions are then the global ones).  The working-set optimum
is unique, so its value strictly increases with each added violator and
the loop cannot cycle.

Each working set is solved by a level method: for a level s,

    v(s) = min_y max_i (||y - t_i||^2 - s d_i^2)

is convex and decreasing in s, with root s* = F(y*)^2.  The inner problem
is a max of quadratics with identical Hessians, whose dual is a concave
quadratic over the simplex

    maximize  h(lam) = sum_i lam_i a_i - ||T' lam||^2,  a_i = ||t_i||^2 - s d_i^2,

solved by an active-set method with exact KKT systems, degenerate pivots
that shed zero-weight blockers, and a Frank-Wolfe step as last resort; the
Frank-Wolfe gap bounds the dual suboptimality, so termination is rigorous.
Constraints that provably cannot attain the inner max (distance scales far
beyond the target diameter at the bracketed level) are screened out, which
keeps the dual's gap tolerance tied to the constraints that matter.  A
two-sided secant/Newton bracket finds the root, and a closed-form solve on
the identified active set (exact quadratic in s through the hull
parametrization) lands on s* to machine precision, sidestepping the
y-sensitivity of the level parametrization.  Any feasible level certifies
F(y) <= sqrt(s).

The first-order certificate re-measures, at the returned y, that the unit
directions (y - t_i)/||y - t_i|| of active constraints admit a convex
combination with norm <= 1e-6 (equivalently 0 lies in their hull, the
subdifferential condition for a minimizer of F).

Sequential placement at a fixed level.  ``extend_sequential`` needs some
image within the level lam = lip (1 + tol/2), not the optimal one.  It
fixes s = lam^2 and makes one inner solve of v(s), on centered targets,
over a working set that starts from the k + 1 sources nearest to x (k
the target dimension: Helly's number for balls).  The returned y is
measured against every current source and accepted when
max_i ||y - t_i||^2 - s d_i^2 <= 0; otherwise the worst violator joins
and the set is solved again.  Every accepted image is measured
lam-Lipschitz against all earlier points, so by Kirszbraun's theorem the
level-lam ball intersection stays non-empty at the next step.  An
infeasible working set, a violator already in the set, lip = 0 and a
snapped duplicate fall back to the optimal solver; the all-pairs gate at
lip (1 + tol) on the final map is unchanged.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentDuplicate, InputError, SolverStall
from .linalg import PointCloud
from .metric import _squared_distances, pairwise_distances

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
    m = src.shape[0]
    if m < 2:
        return 0.0
    S = pairwise_distances(src)
    T = pairwise_distances(tgt)
    iu, ju = np.triu_indices(m, k=1)
    s, t = S[iu, ju], T[iu, ju]
    dup = s == 0.0
    if np.any(dup & (t > 0.0)):
        k = int(np.nonzero(dup & (t > 0.0))[0][0])
        raise InconsistentDuplicate(int(iu[k]), int(ju[k]))
    live = ~dup
    return float((t[live] / s[live]).max()) if live.any() else 0.0


def _ratio_max(y, tgt, d):
    r = np.sqrt(((y - tgt) ** 2).sum(axis=1))
    return float((r / d).max())


def _subgradient_pass(tgt, d, iters=30):
    """Polyak-stepped subgradient descent on F; returns (y_best, f_best)."""
    w = 1.0 / (d * d)
    y = (tgt * w[:, None]).sum(axis=0) / w.sum()
    diff = y - tgt
    norms = np.sqrt((diff * diff).sum(axis=1))
    ratios = norms / d
    i = int(np.argmax(ratios))
    y_best, f_best = y.copy(), float(ratios[i])
    for _ in range(iters):
        if norms[i] == 0.0:
            break
        g = diff[i] / (norms[i] * d[i])
        gg = float(g @ g)
        if gg == 0.0:
            break
        step = (ratios[i] - 0.95 * f_best) / gg
        if step <= 0.0:
            step = 0.05 * f_best / gg
        y = y - step * g
        diff = y - tgt
        norms = np.sqrt((diff * diff).sum(axis=1))
        ratios = norms / d
        i = int(np.argmax(ratios))
        if ratios[i] < f_best:
            f_best = float(ratios[i])
            y_best = y.copy()
    return y_best, f_best


def _kkt_direction(Ts, a_S, scale):
    """Solve the equality KKT system over the support, or find an ascent ray.

    The system is 2 G lam + mu 1 = a_S, 1' lam = 1 with G = Ts Ts'.  When
    Ts has a nontrivial left null space the system may be inconsistent; in
    that case an ascent ray delta exists with G delta = 0, 1' delta = 0 and
    a' delta > 0 (h grows linearly along it).  Returns ("ray", delta) or
    ("point", lam_eq).
    """
    k = Ts.shape[0]
    U, sig, _ = np.linalg.svd(Ts, full_matrices=True)
    r = int((sig > (sig[0] if sig.size else 0.0) * 1e-12).sum())
    if r < k:
        UN = U[:, r:]
        aN = UN.T @ a_S
        oN = UN.T @ np.ones(k)
        oo = float(oN @ oN)
        if oo > 0.0:
            a_perp = aN - (float(aN @ oN) / oo) * oN
        else:
            a_perp = aN
        if float(np.abs(a_perp).max(initial=0.0)) > 1e-10 * max(scale, 1.0):
            return "ray", UN @ a_perp

    K = np.empty((k + 1, k + 1))
    K[:k, :k] = 2.0 * (Ts @ Ts.T)
    K[:k, k] = 1.0
    K[k, :k] = 1.0
    K[k, k] = 0.0
    rhs = np.concatenate([a_S, [1.0]])
    if r == k:
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(K, rhs, rcond=1e-12)
    else:
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=1e-12)
    return "point", sol[:k]


def _inner_solve(tgt, dd, s, support, lam, gap_factor=1e-12):
    """Maximize h(lam) = lam.a - ||tgt' lam||^2 over the simplex.

    ``dd`` is d_i^2.  Active-set with exact KKT solves; singular supports
    are handled by least-squares stationary points or ascent rays, with an
    exact-line-search Frank-Wolfe step as the last resort (monotone ascent,
    so the method cannot cycle).  Terminates when the Frank-Wolfe gap (a
    bound on dual suboptimality) is below 1e-12 of scale.

    Returns (y, v, slope, lam, support): the primal point y = tgt' lam,
    v = max_i(||y - t_i||^2 - s dd_i) measured directly at y, the
    subgradient of v(s), and the dual state for warm starts.
    """
    m = tgt.shape[0]
    sq = (tgt * tgt).sum(axis=1)
    a = sq - s * dd
    scale = max(float(np.abs(a).max()), float(sq.max()), 1e-300)
    gap_tol = gap_factor * scale

    if not support:
        support = [int(np.argmax(a))]
        lam = np.array([1.0])
    else:
        support = list(support)
        lam = np.asarray(lam, dtype=np.float64)

    def drop(idx):
        nonlocal support, lam
        del support[idx]
        lam = np.delete(lam, idx)
        lam = np.maximum(lam, 0.0)
        tot = lam.sum()
        lam = lam / tot if tot > 0 else np.full(len(support),
                                                1.0 / max(len(support), 1))

    for _ in range(80 + 4 * m):
        Ts = tgt[support]
        y = Ts.T @ lam
        grad = a - 2.0 * (tgt @ y)
        base = float(lam @ a[support]) - 2.0 * float(y @ y)
        j = int(np.argmax(grad))
        fw_gap = float(grad[j]) - base
        if fw_gap <= gap_tol:
            break

        kind, vec = _kkt_direction(Ts, a[support], scale)
        stepped = False
        if kind == "ray":
            delta = vec
            neg = delta < 0.0
            if neg.any():
                steps = np.where(neg, lam / -np.where(neg, delta, -1.0),
                                 np.inf)
                blocker = int(np.argmin(steps))
                t = float(steps[blocker])
                if t > 0.0:
                    lam = lam + t * delta
                drop(blocker)  # t == 0: degenerate pivot, shed the blocker
                stepped = True
        else:
            lam_eq = vec
            if lam_eq.min() >= -1e-12:
                lam = np.maximum(lam_eq, 0.0)
                lam = lam / lam.sum()
                if j not in support:
                    support.append(j)
                    lam = np.concatenate([lam, [0.0]])
                stepped = True
            else:
                move = lam - lam_eq
                mask = move > 0.0
                steps = np.where(mask, lam / np.where(mask, move, 1.0),
                                 np.inf)
                blocker = int(np.argmin(steps))
                t = float(steps[blocker])
                if t > 1e-14:
                    lam = lam + min(t, 1.0) * (lam_eq - lam)
                drop(blocker)  # zero-length step: degenerate pivot as above
                stepped = True

        if stepped:
            continue

        # Frank-Wolfe step toward vertex j with exact line search
        tj = tgt[j]
        curv = float(((tj - y) ** 2).sum())
        t = 1.0 if curv <= 0.0 else min(fw_gap / (2.0 * curv), 1.0)
        lam = (1.0 - t) * lam
        if j in support:
            lam[support.index(j)] += t
        else:
            support.append(j)
            lam = np.concatenate([lam, [t]])
        keep = lam > 0.0
        if not keep.all():
            support = [sidx for sidx, kp in zip(support, keep) if kp]
            lam = lam[keep]

    Ts = tgt[support]
    y = Ts.T @ lam
    vals = ((y - tgt) ** 2).sum(axis=1) - s * dd
    v = float(vals.max())
    slope = -float(lam @ dd[support])
    return y, v, slope, lam, support


def _certificate_norm(y, tgt, d):
    """Distance from 0 to the hull of active-constraint unit directions.

    Active means ratio within 1e-7 (relative) of the max.  The min-norm
    convex combination is computed exactly by the same dual active-set
    machinery (a = 0 instance), so the certificate is independent of the
    weights the main solve happened to produce.
    """
    diff = y - tgt
    norms = np.sqrt((diff * diff).sum(axis=1))
    ratios = norms / d
    F = float(ratios.max())
    if F == 0.0:
        return 0.0
    active = ratios >= F * (1.0 - 1e-7)
    units = diff[active] / norms[active][:, None]
    mn, *_ = _inner_solve(units, np.ones(units.shape[0]), 1.0, None, None)
    return float(np.sqrt(mn @ mn))


def _support_root(T, dd, support, s_hint):
    """Equal-ratio point of a candidate active set, solved in closed form.

    Seeks (y, s) with ||y - t_i||^2 = s dd_i on the support and y in the
    affine hull of the support targets (the shape first-order stationarity
    forces).  Writing y through an orthonormal hull basis turns pairwise
    differences of the constraints into a linear system in (gamma, s); one
    quadratic along the at-most-one-dimensional null space closes it.
    This stays exact for degenerate supports -- coplanar or duplicated
    targets, which sequential placement produces routinely since every
    placed point lies in the hull of its own support.  Among algebraic
    candidates the root nearest ``s_hint`` is returned as (y, s, lam),
    lam being hull weights of y; None when no consistent positive root
    exists.
    """
    Ts = T[support]
    dds = dd[support]
    tbar = Ts.mean(axis=0)
    Zc = Ts - tbar
    _, sig, Vt = np.linalg.svd(Zc, full_matrices=False)
    r = int((sig > (sig[0] if sig.size else 0.0) * 1e-12).sum())
    if r == 0:
        return None  # all support targets coincide: only the s = 0 root
    Q = Vt[:r]
    g = Zc @ Q.T
    g0 = g[0]
    dd0 = float(dds[0])

    L = np.concatenate([2.0 * (g[1:] - g0), (dds[1:] - dd0)[:, None]],
                       axis=1)
    c = (g[1:] * g[1:]).sum(axis=1) - float(g0 @ g0)
    Ul, sl, Vlt = np.linalg.svd(L, full_matrices=True)
    rl = int((sl > (sl[0] if sl.size else 0.0) * 1e-12).sum())
    nullity = (r + 1) - rl
    if nullity > 1:
        return None  # stationarity cannot pin y on this support
    x_p = Vlt[:rl].T @ ((Ul.T[:rl] @ c) / sl[:rl])
    res = L @ x_p - c
    scale_L = np.abs(L).max() * max(np.abs(x_p).max(), 1.0) + \
        np.abs(c).max() + 1.0
    if np.abs(res).max() > 1e-9 * scale_L:
        return None

    # close with E_0 = ||gamma - g0||^2 - s dd0 = 0
    cands = []
    if nullity == 0:
        gam, s = x_p[:r], float(x_p[r])
        e0 = float(((gam - g0) ** 2).sum()) - s * dd0
        if abs(e0) <= 1e-8 * max(float(((gam - g0) ** 2).sum()),
                                 abs(s) * dd0, 1e-300):
            cands.append((gam, s))
    else:
        n = Vlt[rl]
        n_g, n_s = n[:r], float(n[r])
        diff = x_p[:r] - g0
        aa = float(n_g @ n_g)
        bb = 2.0 * float(n_g @ diff) - n_s * dd0
        cc = float(diff @ diff) - float(x_p[r]) * dd0
        if aa == 0.0:
            roots = [-cc / bb] if bb != 0.0 else []
        else:
            disc = bb * bb - 4.0 * aa * cc
            if disc < 0.0:
                disc = 0.0 if disc >= -1e-10 * max(bb * bb,
                                                   abs(4.0 * aa * cc)) \
                    else None
            if disc is None:
                roots = []
            else:
                q = -0.5 * (bb + np.copysign(np.sqrt(disc),
                                             bb if bb != 0.0 else 1.0))
                roots = [v for v in (q / aa,
                                     cc / q if q != 0.0 else np.inf)
                         if np.isfinite(v)]
        for al in roots:
            cands.append((x_p[:r] + al * n_g, float(x_p[r]) + al * n_s))

    best = None
    for gam, s in cands:
        if not (np.isfinite(s) and s > 0.0):
            continue
        if best is None or abs(s - s_hint) < abs(best[1] - s_hint):
            best = (gam, s)
    if best is None:
        return None
    gam, s = best

    # hull weights: lam >= 0 is the caller's validation, not ours
    M = np.concatenate([g.T, np.ones((1, len(support)))], axis=0)
    rhs = np.concatenate([gam, [1.0]])
    lam, *_ = np.linalg.lstsq(M, rhs, rcond=1e-12)
    return tbar + Q.T @ gam, float(s), lam


def _refine_active_set(T, dd, d, y_start, F_start):
    """Exact-root refinement from measured near-active constraints.

    Guesses the active set from the ratios at ``y_start`` at a ladder of
    activity windows, then repairs each guess (drop negative weights, add
    violated constraints) around the closed-form root.  A root that passes
    validation -- nonnegative simplex weights, equal values on the support,
    no constraint above the level -- is a complete KKT certificate of
    global optimality, so correctness does not depend on how the guess was
    produced.  Returns (y, F, True) on success, (y_start, F_start, False)
    otherwise.
    """
    r0 = np.sqrt(((y_start - T) ** 2).sum(axis=1)) / d
    s_hint = F_start * F_start
    for w in (1e-9, 1e-7, 1e-5, 1e-3, 3e-2):
        sup = [int(i) for i in np.nonzero(r0 >= F_start * (1.0 - w))[0]]
        if not sup:
            continue
        for _ in range(24):
            got = _support_root(T, dd, sup, s_hint)
            if got is None:
                break
            y_r, s_r, lam_r = got
            if not s_r > 0.0:
                break
            if float(lam_r.min()) < -1e-10:
                if len(sup) <= 1:
                    break
                del sup[int(np.argmin(lam_r))]
                continue
            rr = np.sqrt(((y_r - T) ** 2).sum(axis=1)) / d
            F_r = float(rr.max())
            if F_r * F_r > s_r * (1.0 + 1e-9):
                j = int(np.argmax(rr))
                if j in sup:
                    break
                sup.append(j)
                continue
            if F_r <= F_start * (1.0 + 1e-12):
                return y_r, F_r, True
            break
    return y_start, F_start, False


def _level_solve(tgt, d):
    """Level-method solve of min_y max ||y - t_i||/d_i.

    Returns (y, F, ok) where ok records whether the closed-form refinement
    validated the point as an exact KKT solution.
    """
    center = tgt.mean(axis=0)
    T = tgt - center

    if np.all(T == T[0]):
        return tgt[0].copy(), 0.0, True

    y_best, f_best = _subgradient_pass(T, d)
    dd = d * d

    # pairwise lower bound F* >= ||t_i - t_j||/(d_i + d_j).  It seeds the
    # infeasible end of the bracket and justifies prescreening: for any
    # y in conv(T), constraint i has value <= diam^2 - s dd_i, which stays
    # below -s min(dd) (the floor of the max) whenever dd_i is large, so
    # such constraints can never be active at any level we evaluate.
    # Dropping them keeps the dual's scale -- and with it the achievable
    # gap tolerance -- tied to the constraints that matter.
    D2 = _squared_distances(T)
    lb = float((np.sqrt(D2) / (d[:, None] + d[None, :])).max())
    s_lb = lb * lb * (1.0 - 1e-6)
    keep = dd <= 4.0 * (float(dd.min()) + float(D2.max()) / s_lb)
    Tk, ddk = T[keep], dd[keep]

    def consider(y):
        nonlocal y_best, f_best
        fy = _ratio_max(y, T, d)
        if fy < f_best:
            y_best, f_best = y, fy

    # bracket the root of v(s): a infeasible (v > 0), b feasible (v <= 0)
    support, lam = None, None
    s = f_best * f_best if f_best > 0 else 1.0
    b = vb = None
    for _ in range(80):
        y, v, slope, lam, support = _inner_solve(Tk, ddk, s, support, lam)
        consider(y)
        if v <= 0.0:
            b, vb, slope_b = s, v, slope
            break
        s *= 4.0
    if b is None:
        return y_best + center, f_best, False
    a, va = s_lb, None

    # two-sided shrink: Newton from the feasible end lands on the
    # infeasible side (convexity), secant closes the feasible end
    last_feasible = True
    for _ in range(160):
        if b - a <= 4e-15 * b + 1e-300:
            break
        if last_feasible and slope_b < 0.0:
            nxt = b + vb / (-slope_b)
        elif va is not None and vb < va:
            nxt = b - vb * (b - a) / (vb - va)
        else:
            nxt = 0.5 * (a + b)
        if not (a < nxt < b):
            nxt = 0.5 * (a + b)
        y, v, slope, lam, support = _inner_solve(Tk, ddk, nxt, support, lam)
        consider(y)
        if v <= 0.0:
            b, vb, slope_b = nxt, v, slope
            last_feasible = True
        else:
            a, va = nxt, v
            last_feasible = False

    # polish at the final level with a tighter dual gap, then refine to the
    # exact root of the restricted problem
    y_fin, v, slope, lam, support = _inner_solve(Tk, ddk, b, support, lam,
                                                 gap_factor=1e-15)
    consider(y_fin)
    y_fin, F, ok = _refine_active_set(T, dd, d, y_best, f_best)
    return y_fin + center, F, ok


def _solve_extension(tgt, d):
    """Minimize F(y) = max ||y - t_i||/d_i.  Returns (y, F, cert_norm).

    Constraint generation around the level solver: the minimax is solved
    exactly on a small working set, the worst violator joins, non-active
    members leave.  The working-set optimum is unique and its value
    strictly increases with each added violator, so the loop cannot cycle;
    when no constraint violates the working-set level, that set's KKT
    conditions are the global ones.  Working sets stay near the active-set
    size (at most dim + 2 generically), which keeps the subproblems in the
    regime where the level method is reliable even when the full instance
    has many mutually near-active constraints.
    """
    tgt = np.asarray(tgt, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if np.all(tgt == tgt[0]):
        return tgt[0].copy(), 0.0, 0.0
    m = tgt.shape[0]

    # seed with the pair forcing the largest unavoidable ratio
    D2 = _squared_distances(tgt)
    lbs = np.sqrt(D2) / (d[:, None] + d[None, :])
    np.fill_diagonal(lbs, -1.0)
    i0, j0 = np.unravel_index(int(np.argmax(lbs)), lbs.shape)
    work = [int(i0), int(j0)]

    y = tgt[i0].copy()
    F = float("inf")
    for _ in range(2 * m + 60):
        y_w, F_w, ok = _level_solve(tgt[work], d[work])
        if not ok:
            y, F, _ = _level_solve(tgt, d)  # degenerate working set:
            break                           # one full-instance attempt
        r = np.sqrt(((y_w - tgt) ** 2).sum(axis=1)) / d
        F_glob = float(r.max())
        y, F = y_w, F_glob
        if F_glob <= F_w * (1.0 + 5e-15):
            break
        active = [i for i in work if r[i] >= F_w * (1.0 - 1e-9)]
        work = active + [int(np.argmax(r))]

    cert = _certificate_norm(y, tgt, d)
    return y, F, cert


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

    One inner solve at the fixed level s over a working set that starts
    from the k + 1 sources nearest to x (k the target dimension) and grows
    by the worst violator, measured at the returned y against every
    source.  None when the
    working set is infeasible at s, or when its worst violator is already
    a member (rounding at a tight level).
    """
    center = tgt.mean(axis=0)
    T = tgt - center
    dd = d * d
    work = [int(i) for i in np.argsort(d, kind="stable")[:tgt.shape[1] + 1]]
    while True:
        # cold start: a warm dual from the smaller set can stall the
        # active-set loop at its iteration cap
        y, v, *_ = _inner_solve(T[work], dd[work], s, None, None)
        if v > 0.0:
            return None
        y = y + center
        viol = ((y - tgt) ** 2).sum(axis=1) - s * dd
        j = int(np.argmax(viol))
        if viol[j] <= 0.0:
            return y
        if j in work:
            return None
        work.append(j)


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
