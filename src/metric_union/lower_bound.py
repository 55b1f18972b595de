"""Distortion lower bound from a spectral split of a complete bipartite graph.

A uniform coin per cross edge splits K_{n,n} into two spanning subgraphs
whose Laplacians each sandwich half the full Laplacian within a factor
(1 + delta).  On the metric space that assigns distance 2 within sides and
1 / 3 across the two edge classes — whose sides are regular simplices, so
each side embeds isometrically — any Euclidean embedding must then distort
by at least 3/(1 + delta)^2.  ``delta_star`` is measured per sample from
the generalized eigenvalues of the (subgraph-Laplacian, half-Laplacian)
pencil, so every downstream claim is checkable without appeal to the
asymptotic behaviour of random graphs.  The half-Laplacian of K_{n,n} has
a closed-form inverse square root, so one symmetric eigensolve of the
e1 class gives the eigenvalues of both classes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DuplicateEdge, InputError, RangeViolation,
                     RetryBudgetExceeded, SelfLoop, SingularPencil)
from . import metric
from .linalg import sym_eigen
from .metric import (FiniteMetricSpace, UnionPartition, _readonly,
                     build_partition, validate_metric)
from .seeds import stream

__all__ = [
    "BipartiteSplit", "laplacian", "sample_split", "measure_delta",
    "sandwich_margin", "build_123_metric", "certified_lower_bound",
    "ratio_check", "choose_n_for_epsilon",
]

_MAX_ATTEMPTS = 64
_DELTA_CUSHION = 1e-9
# eigenvalues of the (L1, L/2) pencil within this of 0 or 2 are round-off
# of a disconnected class; a connected class on 2n vertices has
# lam_min >= 1/n^3, far above it at any n a dense eigensolve can reach
_SINGULAR_FLOOR = 1e-12


@dataclass(frozen=True)
class BipartiteSplit:
    """Edge partition of K_{n,n} with its measured sandwich parameter.

    Edges are (u, v) pairs of global vertex ids with u in [0, n) on side A
    and v in [n, 2n) on side B.  ``delta_star`` already includes a 1e-9
    cushion above the measured minimum.
    """

    n: int
    e1: np.ndarray
    e2: np.ndarray
    delta_star: float
    seed: int
    attempts: int


def laplacian(n_vertices: int, edges) -> np.ndarray:
    """Graph Laplacian: degrees on the diagonal, -1 per edge."""
    e = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= n_vertices):
        raise InputError("edge endpoint out of range")
    loops = e[:, 0] == e[:, 1]
    if loops.any():
        raise SelfLoop(int(e[np.argmax(loops), 0]))
    key = np.sort(e, axis=1)
    order = np.lexsort((key[:, 1], key[:, 0]))
    k = key[order]
    if k.shape[0] > 1:
        dup = (k[1:] == k[:-1]).all(axis=1)
        if dup.any():
            u, v = k[int(np.argmax(dup))]
            raise DuplicateEdge(int(u), int(v))
    L = np.zeros((n_vertices, n_vertices))
    np.add.at(L, (e[:, 0], e[:, 1]), -1.0)
    np.add.at(L, (e[:, 1], e[:, 0]), -1.0)
    deg = np.bincount(e.ravel(), minlength=n_vertices).astype(np.float64)
    L[np.arange(n_vertices), np.arange(n_vertices)] = deg
    return L


def _helmert(n):
    """Orthonormal basis of the hyperplane orthogonal to the ones vector,
    as the columns of an (n, n-1) matrix."""
    Q = np.zeros((n, n - 1))
    for k in range(1, n):
        Q[:k, k - 1] = 1.0
        Q[k, k - 1] = -float(k)
        Q[:, k - 1] /= np.sqrt(k * (k + 1.0))
    return Q


def measure_delta(mask) -> float:
    """Minimal sandwich parameter of the split with biadjacency ``mask``.

    ``mask[i, j]`` puts the edge (i, n + j) of K_{n,n} into e1, else e2.
    M = L/2 has eigenvalue n on u = (1_A, -1_B)/sqrt(2n) and n/2 on the
    rest of the ones-complement, so S = M^{-1/2} there is closed-form and
    the eigenvalues lam of S L1 S are those of the (L1, M) pencil.  The
    11^T/(2n) term puts the ones direction at lam = 1, which adds 0 to
    delta.  L2 = 2M - L1 has eigenvalues 2 - lam, so
    delta = max(1/lam_min - 1, 1/(2 - lam_max) - 1).  A disconnected
    class (lam at 0 for e1, at 2 for e2) raises SingularPencil.
    """
    m = np.asarray(mask, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"mask must be square, got shape {m.shape}")
    n = m.shape[0]
    L1 = np.block([[np.diag(m.sum(axis=1)), -m],
                   [-m.T, np.diag(m.sum(axis=0))]])
    u = np.concatenate([np.ones(n), -np.ones(n)]) / np.sqrt(2.0 * n)
    a = np.sqrt(2.0 / n)
    b = 1.0 / np.sqrt(n) - a
    # S L1 S = a^2 L1 + p u^T + u p^T with S = a I + b u u^T
    w = L1 @ u
    p = a * b * w + 0.5 * b * b * float(u @ w) * u
    W = a * a * L1 + np.outer(p, u) + np.outer(u, p) + 1.0 / (2 * n)
    lam = sym_eigen(W).values   # descending
    lam_max, lam_min = float(lam[0]), float(lam[-1])
    if lam_min <= _SINGULAR_FLOOR:
        raise SingularPencil("e1")
    if lam_max >= 2.0 - _SINGULAR_FLOOR:
        raise SingularPencil("e2")
    return max(1.0 / lam_min - 1.0, 1.0 / (2.0 - lam_max) - 1.0)


def sandwich_margin(L, Li, delta) -> float:
    """Worst PSD margin of the two sandwich sides at the given delta.

    Nonnegative (within round-off) iff
    (1+delta)^-1 Li <= L/2 <= (1+delta) Li on the ones-complement.
    """
    Q = _helmert(L.shape[0])
    M = Q.T @ (np.asarray(L) / 2.0) @ Q
    K = Q.T @ np.asarray(Li, dtype=np.float64) @ Q
    hi = sym_eigen((1.0 + delta) * K - M).values[-1]
    lo = sym_eigen(M - K / (1.0 + delta)).values[-1]
    return float(min(hi, lo))


def _mask_edges(mask, n):
    rows, cols = np.nonzero(mask)
    return np.column_stack([rows, cols + n]).astype(np.intp)


def sample_split(n: int, seed: int) -> BipartiteSplit:
    """Uniform edge split of K_{n,n}, resampled until usable.

    A sample is accepted when both subgraphs are connected and the
    measured delta is below 1; failures draw a fresh derived stream, up
    to 64 attempts.  Exhaustion is expected at n = 16, not a bug: the
    minimum delta over thousands of samples there is about 1.12.
    """
    if n < 4:
        raise InputError(f"need n >= 4, got {n}")
    for attempt in range(_MAX_ATTEMPTS):
        rng = stream(seed, "lower_bound.split", attempt)
        mask = rng.random((n, n)) < 0.5
        try:
            delta_star = measure_delta(mask) + _DELTA_CUSHION
        except SingularPencil:   # an edge class is disconnected
            continue
        if delta_star < 1.0:
            return BipartiteSplit(n=int(n),
                                  e1=_readonly(_mask_edges(mask, n)),
                                  e2=_readonly(_mask_edges(~mask, n)),
                                  delta_star=float(delta_star),
                                  seed=int(seed), attempts=attempt + 1)
    raise RetryBudgetExceeded(
        _MAX_ATTEMPTS, f"no usable split of K_{{{n},{n}}} found")


def _structured_123(D, n):
    """True when D has the 1/2/3 structure that makes it a metric: zero
    diagonal, 2 off the diagonal within each side, and symmetric cross
    entries in {1, 2, 3}.  A 3 lies only across the sides, and any third
    point is on one of them, so one of its two legs is a 2 and the other
    at least 1: 3 <= 2 + 1.  Every other triangle has 2 <= 1 + 1."""
    side = ~np.eye(n, dtype=bool)
    cross = D[:n, n:]
    return bool(np.all(np.diagonal(D) == 0.0)
                and np.all(D[:n, :n][side] == 2.0)
                and np.all(D[n:, n:][side] == 2.0)
                and np.all(np.isin(cross, (1.0, 2.0, 3.0)))
                and np.array_equal(D[n:, :n], cross.T))


def build_123_metric(split: BipartiteSplit):
    """The 1/2/3-distance space over the split, with its partition.

    Distance 2 within each side, 1 across e1 edges, 3 across e2 edges.
    Returns (space, partition) with side A = [0, n), side B = [n, 2n).
    The space is certified a metric by its structure in O(n^2): zero
    diagonal, 2 within each side, and symmetric cross entries in
    {1, 2, 3}, which makes every triangle hold (see ``_structured_123``).
    A matrix without that structure (a hand-built split with an edge
    inside one side, say) goes through the full ``validate_metric`` and
    raises its named error when it is not a metric.
    """
    n2 = 2 * split.n
    D = np.full((n2, n2), 2.0)
    np.fill_diagonal(D, 0.0)
    D[split.e1[:, 0], split.e1[:, 1]] = 1.0
    D[split.e1[:, 1], split.e1[:, 0]] = 1.0
    D[split.e2[:, 0], split.e2[:, 1]] = 3.0
    D[split.e2[:, 1], split.e2[:, 0]] = 3.0
    if _structured_123(D, split.n):
        X = FiniteMetricSpace(dist=_readonly(D), labels=tuple(range(n2)))
    else:
        X = validate_metric(D)
    P = build_partition(X, np.arange(split.n), np.arange(split.n, n2))
    return X, P


def certified_lower_bound(split: BipartiteSplit) -> float:
    """Every Euclidean embedding of the 1/2/3 space distorts this much."""
    return 3.0 / (1.0 + split.delta_star) ** 2


def _ratio_window(delta_star):
    """ratio_check's window (lo, hi); it allows 1e-9*hi of round-off beyond."""
    return (1.0 + delta_star) ** -2, (1.0 + delta_star) ** 2


def ratio_check(split: BipartiteSplit, images) -> tuple:
    """Mean squared image distances over e1 and e2, relative to all edges.

    Both ratios must land in [(1+delta*)^-2, (1+delta*)^2]; a value
    outside (beyond round-off) would contradict the sandwich and raises
    RangeViolation.  A cloud's carried ``sq_dist`` supplies the cross
    block when present.
    """
    pts = np.asarray(getattr(images, "points", images), dtype=np.float64)
    if pts.shape[0] != 2 * split.n:
        raise InputError(f"{pts.shape[0]} image rows for {2 * split.n} "
                         f"vertices")
    n = split.n
    sq = getattr(images, "sq_dist", None)
    if sq is None:
        cross = metric._squared_distances(pts[:n], pts[n:])  # every A-B pair
    else:
        # contiguous like the kernel's own result, so the means below sum
        # in the same order
        cross = np.ascontiguousarray(sq[:n, n:])
    mean_all = float(cross.mean())
    if mean_all == 0.0:
        raise InputError("all cross images coincide; ratios are undefined")
    lo, hi = _ratio_window(split.delta_star)
    tol = 1e-9 * hi
    out = []
    for name, e in (("e1", split.e1), ("e2", split.e2)):
        r = float(cross[e[:, 0], e[:, 1] - n].mean()) / mean_all
        if not (lo - tol <= r <= hi + tol):
            raise RangeViolation(name, r, lo, hi)
        out.append(r)
    return tuple(out)


def choose_n_for_epsilon(epsilon: float, seed: int, samples: int = 5,
                         n_cap: int = 512) -> tuple:
    """Smallest power-of-two n whose median delta meets 3/(1+d)^2 >= 3-eps.

    Returns (n, median_delta).  Doubles n from 16 up to ``n_cap``;
    exceeding the cap raises RetryBudgetExceeded.
    """
    if not (0.0 < epsilon < 1.0):
        raise InputError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    target = np.sqrt(3.0 / (3.0 - epsilon)) - 1.0
    n = 16
    while n <= n_cap:
        try:
            deltas = sorted(
                sample_split(n, seed + 1000 * i).delta_star
                for i in range(samples))
        except RetryBudgetExceeded:
            # small n cannot even clear the delta < 1 sampling gate, so it
            # certainly misses the (always < 0.225) target; keep doubling
            n *= 2
            continue
        med = deltas[samples // 2]
        if med <= target:
            return n, med
        n *= 2
    raise RetryBudgetExceeded(
        samples, f"epsilon {epsilon} unreachable at n <= {n_cap}")
