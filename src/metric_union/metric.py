"""Finite metric spaces, two-sided partitions, distortion reports, and the
Euclidean distance kernel every audit measures with.

A space is a dense symmetric distance matrix with optional labels.  A
partition marks two (possibly overlapping) index sets A and B that together
cover the space, and precomputes R_a = d(a, B) and R_b = d(b, A), the
distances from each point of one side to the other side.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (AsymmetryError, CollapsedPairError, CoverageError,
                     EmptySideError, InputError, NegativeDistanceError,
                     NonzeroDiagonal, TriangleViolation, ZeroOffDiagonal)

__all__ = [
    "FiniteMetricSpace", "UnionPartition", "DistortionReport",
    "validate_metric", "build_partition", "distortion_of",
    "pairwise_distances",
]

_MAX_RECORDED = 10_000  # cap on stored violations for pathological inputs
_BLOCK = 1 << 20        # float64 elements in one row block's difference tensor
# least rows per block of validate_metric's triangle screen: each block
# costs one pass over k, so n < 256 takes one block; larger ones lose the
# cache
_SCREEN_ROWS = 128


def _readonly(a):
    a = np.array(a)  # private copy: never freeze a caller's array in place
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Validated finite metric space.

    Attributes
    ----------
    dist : (n, n) ndarray, read-only
        Symmetric distance matrix, zero diagonal, positive off-diagonal.
    labels : tuple
        One identifier per point.
    """

    dist: np.ndarray
    labels: tuple

    @property
    def n(self):
        return self.dist.shape[0]

    @property
    def diameter(self):
        return float(self.dist.max()) if self.n else 0.0

    def sub(self, idx):
        """Distance submatrix over the given indices (copy)."""
        idx = np.asarray(idx, dtype=np.intp)
        return self.dist[np.ix_(idx, idx)].copy()


@dataclass(frozen=True)
class UnionPartition:
    """Two index sets covering a space, with side-to-side distances.

    ``r_a[i]`` is d(idx_a[i], B); ``r_b[j]`` is d(idx_b[j], A).  Points in
    the overlap have r = 0.
    """

    idx_a: np.ndarray
    idx_b: np.ndarray
    r_a: np.ndarray
    r_b: np.ndarray

    @property
    def overlap(self):
        return np.intersect1d(self.idx_a, self.idx_b)

    def swapped(self):
        """The same partition with the roles of A and B exchanged."""
        return UnionPartition(idx_a=self.idx_b, idx_b=self.idx_a,
                              r_a=self.r_b, r_b=self.r_a)


@dataclass(frozen=True)
class DistortionReport:
    """Expansion/contraction/distortion of a map, with witness pairs.

    expansion  = max ||f(x)-f(y)|| / d(x,y)
    contraction = max d(x,y) / ||f(x)-f(y)||
    distortion = expansion * contraction
    """

    expansion: float
    contraction: float
    distortion: float
    expansion_pair: tuple | None
    contraction_pair: tuple | None
    n_points: int

    def as_dict(self):
        return {
            "expansion": self.expansion,
            "contraction": self.contraction,
            "distortion": self.distortion,
            "expansion_pair": list(self.expansion_pair)
            if self.expansion_pair else None,
            "contraction_pair": list(self.contraction_pair)
            if self.contraction_pair else None,
            "n_points": self.n_points,
        }


def validate_metric(dist, labels=None, tol=1e-12) -> FiniteMetricSpace:
    """Check the metric axioms and return an immutable space.

    Parameters
    ----------
    dist : array_like, shape (n, n)
    labels : sequence of length n, optional
    tol : float
        Relative slack for the triangle inequality; d(i,j) may exceed
        d(i,k) + d(k,j) by at most tol * max(dist).

    The triangle check first screens the excess
    e(i, j) = d(i, j) - min_k (d(i, k) + d(k, j)) of each unordered pair
    once.  Rows are taken in equal blocks of 128 to 255 rows (one block
    when n < 256); block [lo, hi) runs the min-plus kernel against
    columns lo..n-1 only, its part of the upper triangle, and an entry
    over the slack flags both its row and its column.  That is exact: on
    a symmetric matrix e(i, j) = e(j, i) bit for bit, because
    fl(a + b) = fl(b + a) and min is exact.  A matrix that is not
    symmetric (an error already) screens its transpose too, whose upper
    triangle holds the excesses below D's diagonal, and flags rows from
    D's screen and columns from the transpose's, so every ordered pair is
    still screened.  Each block holds a few (rows, n) arrays and a sum
    tensor no larger than one of them, so memory beyond D grows as n, not
    n * n.  Only the rows the screen flags are then scanned k by k for
    witnesses.  The screen misses no violation, so the recorded
    violations, their order and their count are those of a full scan,
    and a valid metric is never scanned k by k.

    Raises
    ------
    InputError
        Non-square, non-finite, or otherwise malformed input.
    MetricValidationError
        One subclass per axiom; the raised instance is the first violation
        found and carries the full list in ``.violations``.
    """
    D = np.asarray(dist, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise InputError(f"distance matrix must be square, got shape {D.shape}")
    n = D.shape[0]
    if n == 0:
        raise InputError("empty distance matrix")
    if not np.all(np.isfinite(D)):
        raise InputError("distance matrix contains non-finite entries")
    if labels is None:
        labels = tuple(range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise InputError(f"{len(labels)} labels for {n} points")

    violations = []
    total = 0

    def record(v):
        nonlocal total
        total += 1
        if len(violations) < _MAX_RECORDED:
            violations.append(v)

    gap = D - D.T
    symmetric = not np.any(gap != 0.0)
    if not symmetric:
        for i, j in np.argwhere(gap != 0.0):
            if i < j:
                record(AsymmetryError(int(i), int(j), float(abs(gap[i, j]))))

    neg = np.argwhere(D < 0.0)
    for i, j in neg:
        record(NegativeDistanceError(int(i), int(j), float(D[i, j])))

    diag = np.diagonal(D)
    for i in np.nonzero(diag != 0.0)[0]:
        if diag[i] >= 0.0:  # negative diagonal already recorded above
            record(NonzeroDiagonal(int(i), float(diag[i])))

    off_zero = (D == 0.0) & ~np.eye(n, dtype=bool)
    for i, j in np.argwhere(off_zero):
        if i < j:
            record(ZeroOffDiagonal(int(i), int(j)))

    slack_abs = tol * float(np.abs(D).max())
    # Screen: max_k of the excess D[i, j] - (D[i, k] + D[k, j]) is
    # D[i, j] - min_k (D[i, k] + D[k, j]), because rounding is monotone and
    # min is exact, so a row with no flagged entry holds no violation.
    rows, cols = _upper_screen(D, slack_abs)
    if not symmetric:
        cols = _upper_screen(np.ascontiguousarray(D.T), slack_abs)[1]
    rows = np.nonzero(rows | cols)[0]
    if rows.size:
        Dr = D[rows]
        for k in range(n):
            excess = Dr - (Dr[:, k:k + 1] + D[k:k + 1, :])
            bad = np.argwhere(excess > slack_abs)
            for r, j in bad:
                i = rows[r]
                if i != k and j != k and i != j:
                    record(TriangleViolation(int(i), int(j), int(k),
                                             float(excess[r, j])))
            if total > _MAX_RECORDED:
                break

    if violations:
        first = violations[0]
        first.violations = violations
        first.total = total
        raise first

    return FiniteMetricSpace(dist=_readonly(D), labels=labels)


def build_partition(X: FiniteMetricSpace, idx_a, idx_b) -> UnionPartition:
    """Build a validated A/B partition of ``X`` (overlap allowed).

    Raises CoverageError if some point is in neither side, EmptySideError
    if a side is empty, InputError on out-of-range or duplicated indices.
    """
    out = []
    for name, idx in (("a", idx_a), ("b", idx_b)):
        arr = np.asarray(idx, dtype=np.intp).ravel()
        if arr.size == 0:
            raise EmptySideError(name)
        if arr.min(initial=0) < 0 or (arr.size and arr.max() >= X.n):
            raise InputError(f"side {name!r} has indices outside [0, {X.n})")
        uniq = np.unique(arr)
        if uniq.size != arr.size:
            raise InputError(f"side {name!r} lists an index more than once")
        out.append(uniq)
    ia, ib = out
    covered = np.zeros(X.n, dtype=bool)
    covered[ia] = True
    covered[ib] = True
    if not covered.all():
        raise CoverageError(np.nonzero(~covered)[0].tolist())
    r_a = X.dist[np.ix_(ia, ib)].min(axis=1)
    r_b = X.dist[np.ix_(ib, ia)].min(axis=1)
    return UnionPartition(idx_a=_readonly(ia), idx_b=_readonly(ib),
                          r_a=_readonly(r_a), r_b=_readonly(r_b))


def _squared_distances(p, q=None):
    """Squared Euclidean distances between the rows of ``p`` and ``q``.

    The one distance kernel; see ``pairwise_distances``.  Both inputs are
    made C-contiguous first: the difference tensor takes its layout from
    theirs, and with it the order in which ``einsum`` sums each entry.
    """
    p = np.ascontiguousarray(getattr(p, "points", p), dtype=np.float64)
    q = p if q is None else np.ascontiguousarray(getattr(q, "points", q),
                                                 dtype=np.float64)
    rows = max(1, _BLOCK // max(q.size, 1))
    out = None
    for lo in range(0, max(p.shape[0], 1), rows):   # once even if p is empty
        diff = p[lo:lo + rows, None, :] - q[None, :, :]
        if out is None:
            # allocated after the first temporary: with the result below
            # it, the heap fragmented over repeated calls and the glue
            # benchmark's peak RSS grew by up to 18%
            out = np.empty((p.shape[0], q.shape[0]))
        np.einsum("ijk,ijk->ij", diff, diff, out=out[lo:lo + rows])
    return out


def _min_plus(a, b):
    """Min-plus product: ``out[i, j] = min_k (a[i, k] + b[k, j])``.

    Rows of ``a`` and the shared index k are taken in blocks whose sum
    tensor holds no more elements than the (len(a), b.shape[1]) result and
    at most ``_BLOCK`` (8 MB), or one row of one k when that is larger, so
    a small product allocates little and memory beyond the result does not
    grow with the inputs.  Sums and minima are exact, so the result does
    not depend on the blocking.
    """
    cols = b.shape[1]
    budget = min(_BLOCK, a.shape[0] * cols)
    ks = min(b.shape[0], max(1, budget // cols))
    rows = max(1, budget // (ks * cols))
    out = np.empty((a.shape[0], cols))
    for lo in range(0, a.shape[0], rows):
        block = out[lo:lo + rows]
        for k in range(0, b.shape[0], ks):
            s = a[lo:lo + rows, k:k + ks, None] + b[None, k:k + ks, :]
            if k == 0:
                s.min(axis=1, out=block)
            else:
                np.minimum(block, s.min(axis=1), out=block)
            del s   # freed before the next block's sum is allocated
    return out


def _upper_screen(D, slack_abs):
    """Flags of the upper triangle's screened entries: ``rows[i]`` when
    some j >= i, and ``cols[j]`` when some i <= j, has
    D[i, j] - min_k (D[i, k] + D[k, j]) > slack_abs."""
    n = D.shape[0]
    rows = np.zeros(n, dtype=bool)
    cols = np.zeros(n, dtype=bool)
    step = -(-n // max(1, n // _SCREEN_ROWS))   # n // 128 near-equal blocks
    for lo in range(0, n, step):
        hi = lo + step
        bad = D[lo:hi, lo:] - _min_plus(D[lo:hi], D[:, lo:]) > slack_abs
        rows[lo:hi] |= bad.any(axis=1)
        cols[lo:] |= bad.any(axis=0)
    return rows, cols


def pairwise_distances(p, q=None) -> np.ndarray:
    """Euclidean distances between the rows of ``p`` and ``q`` (default p).

    Either argument is a point cloud or a bare (m, dim) array.  Rows of
    ``p`` are taken in blocks whose difference tensor holds at most 2**20
    float64 elements (8 MB), or a single row when one row is larger, so
    memory beyond the (len(p), len(q)) result does not grow with len(p).
    Each entry is reduced by the same expression in every block, so the
    result does not depend on the blocking, and ``pairwise_distances(p)``
    is exactly symmetric with a zero diagonal.

    The result depends only on the values of the inputs, not on their
    memory layout (C- or Fortran-ordered, strided views).  An entry
    depends only on its two rows, not on which other rows are present, so
    a caller that has measured a cloud may re-index that matrix for any
    selection of its rows, repeats included, instead of measuring again.

    ``pairwise_distances(cloud)`` of a cloud that carries ``sq_dist``
    (see ``PointCloud``) takes the root of that matrix, bit for bit what
    measuring again gives, and calls no kernel.
    """
    sq = getattr(p, "sq_dist", None) if q is None else None
    if sq is not None:
        return np.sqrt(sq)
    out = _squared_distances(p, q)
    return np.sqrt(out, out=out)


def distortion_of(X: FiniteMetricSpace, images, subset=None) -> DistortionReport:
    """Distortion of the map point -> image over ``subset`` (default: all).

    ``images`` is a point cloud (or bare (m, dim) array) with one row per
    subset element, in subset order; a cloud's carried ``sq_dist`` is
    used when present.  Raises CollapsedPairError if two distinct points
    share an image.
    """
    m = np.shape(getattr(images, "points", images))[0]
    if subset is None:
        subset = np.arange(X.n)
    subset = np.asarray(subset, dtype=np.intp)
    if m != subset.size:
        raise InputError(f"{m} image rows for {subset.size} points")
    sq = getattr(images, "sq_dist", None)
    sq = _squared_distances(images) if sq is None else sq
    return _distortion_report(X.dist[np.ix_(subset, subset)], sq, subset)


def _distortion_report(dm, sq, subset):
    """DistortionReport from the true (``dm``) and squared image (``sq``)
    distance matrices over ``subset``; raises CollapsedPairError."""
    m = subset.size
    if m < 2:
        return DistortionReport(1.0, 1.0, 1.0, None, None, int(m))
    iu, ju = np.triu_indices(m, k=1)
    d_true = dm[iu, ju]
    d_img = np.sqrt(sq[iu, ju])

    collapsed = np.nonzero((d_img == 0.0) & (d_true > 0.0))[0]
    if collapsed.size:
        k = collapsed[0]
        raise CollapsedPairError(int(subset[iu[k]]), int(subset[ju[k]]))

    ratio = d_img / d_true
    ke = int(np.argmax(ratio))
    kc = int(np.argmin(ratio))
    expansion = float(ratio[ke])
    contraction = float(1.0 / ratio[kc])
    return DistortionReport(
        expansion=expansion,
        contraction=contraction,
        distortion=expansion * contraction,
        expansion_pair=(int(subset[iu[ke]]), int(subset[ju[ke]])),
        contraction_pair=(int(subset[iu[kc]]), int(subset[ju[kc]])),
        n_points=int(m),
    )
