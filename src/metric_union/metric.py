"""Finite metric spaces, point clouds, two-sided partitions, distortion
reports, and the Euclidean distance kernel every audit measures with.

A space is a dense symmetric distance matrix with optional labels.  A
partition marks two (possibly overlapping) index sets A and B that together
cover the space, and precomputes R_a = d(a, B) and R_b = d(b, A), the
distances from each point of one side to the other side.  Distance
matrices, point sets (``PointCloud``) and index lists (``_index_list``)
enter through one conversion, ``_real_array``, and scalar constants
through ``_real`` and ``_integral``.
"""

import copy
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (AsymmetryError, CollapsedPairError, CoverageError,
                     EmptySideError, InputError, NegativeDistanceError,
                     NonzeroDiagonal, TriangleViolation, ZeroOffDiagonal)

__all__ = [
    "FiniteMetricSpace", "PointCloud", "UnionPartition", "DistortionReport",
    "validate_metric", "build_partition", "distortion_of",
    "pairwise_distances",
]

_MAX_RECORDED = 10_000  # cap on stored violations for pathological inputs
_TILE = 1 << 15         # float64 elements in one kernel tile (256 KB)
# least rows per block of validate_metric's triangle screen: each block
# costs one pass over k, so n < 256 takes one block; larger ones lose the
# cache
_SCREEN_ROWS = 128
# the types a real entry may have: Python's and numpy's integers and floats
_REAL_TYPES = frozenset([int, float] + [np.dtype(c).type for c in (
    np.typecodes["AllInteger"] + np.typecodes["Float"])])


def _readonly(a):
    a = np.array(a)  # private copy: never freeze a caller's array in place
    a.setflags(write=False)
    return a


def _real_array(value, ndim, what):
    """``value`` as a float64 array of ``ndim`` (1 or 2) dimensions of
    finite real numbers, else InputError naming ``what``.  An ndarray of
    integer or float dtype converts as it is (float64 is not copied); any
    other value must give, per row (one row when ``ndim`` is 1), a set of
    entry types within ``_REAL_TYPES``.  So strings are not parsed, and
    booleans, None, complex values, ragged or nested rows and integers
    beyond float range are refused; 2**64 is 1.8e19."""
    try:
        if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
            rows = value if ndim == 2 else (value,)
            if not all(set(map(type, row)) <= _REAL_TYPES for row in rows):
                raise TypeError
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):   # also ragged, 10**400
        raise InputError(f"{what} must be a numeric "
                         f"{'matrix' if ndim == 2 else 'list'}") from None
    if a.ndim != ndim:
        raise InputError(f"{what} must be {ndim}-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{what} contains non-finite entries")
    return a


def _index_list(idx, n, what, distinct=True):
    """``idx`` as a 1-d intp array of integral numbers in [0, n) (2.0 is
    index 2; 0.7, True and "0" are refused), none repeated unless not
    ``distinct``, else InputError: the one check of index lists."""
    a = _real_array(idx, 1, what)
    if np.any(a != np.floor(a)):
        raise InputError(f"{what} has entries that are not integers")
    if a.size and (a.min() < 0 or a.max() >= n):
        raise InputError(f"{what} has entries outside [0, {n})")
    a = a.astype(np.intp)
    if distinct and np.unique(a).size != a.size:
        raise InputError(f"{what} lists an index more than once")
    return a


def _real(x, what):
    """``x`` when it is a real number (bool and str are not), else
    InputError naming ``what``: the one check of scalar constants, whose
    ranges are the caller's."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InputError(f"{what} must be a real number, got {x!r}")
    return x


def _integral(x, what):
    """``x`` as an int when it is a real number with an integral value
    (64.0 is 64), else InputError naming ``what``."""
    if not _real(x, what) % 1 == 0:   # also nan and inf
        raise InputError(f"{what} must be an integer, got {x!r}")
    return int(x)


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
        """Distance submatrix over the given index list (a fresh array)."""
        idx = _index_list(idx, self.n, "idx")
        return self.dist[np.ix_(idx, idx)]


@dataclass(frozen=True)
class PointCloud:
    """Immutable (m, dim) array of points in Euclidean space.

    The one intake of point sets (public entries call it via ``_cloud``):
    ``points`` converts by ``_real_array`` to a read-only float64 copy;
    what is not a 2-d array of finite real numbers raises InputError.

    ``sq_dist`` is None or the read-only (m, m) squared-distance matrix of
    ``points``: either the raw output of one distance-kernel call, or
    derived exactly from kernel outputs by a re-index, a sum or a factor
    scale**2, which rounds each entry within a few ulps of what measuring
    again gives.  One rule fills it: the library measures the clouds it
    builds and measures anyway (both MDS results, the normalized and glued
    sides, psi's placed rows, psi_Delta), and ``take``, ``scaled`` and
    ``direct_sum`` of clouds that carry one carry the derived matrix (the
    re-index, factor**2 times it, the sum).  A cloud is never written after
    it is built, so a caller's cloud never gains one.
    ``pairwise_distances``, ``distortion_of``, ``ratio_check`` and
    ``PartialMap`` read it instead of measuring again.
    """

    points: np.ndarray
    sq_dist: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _readonly(
            _real_array(self.points, 2, "point cloud")))

    @property
    def m(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def take(self, idx):
        """Sub-cloud at the given row indices, in the given order and
        with repeats allowed (an index list, ``_index_list``)."""
        i = _index_list(idx, self.m, "row indices", distinct=False)
        sq = self.sq_dist
        return _carrying(PointCloud(self.points[i]),
                         None if sq is None else sq[np.ix_(i, i)])

    def scaled(self, factor):
        f, sq = float(factor), self.sq_dist
        return _carrying(PointCloud(self.points * f),
                         None if sq is None else f * f * sq)


def _cloud(obj):
    """``obj`` when it is a PointCloud, else ``PointCloud(obj)``."""
    return obj if isinstance(obj, PointCloud) else PointCloud(obj)


def _carrying(cloud, sq):
    """A copy of ``cloud`` that shares its read-only points and carries
    ``sq`` (made read-only) as its squared distances, or no matrix when
    ``sq`` is None.  ``cloud`` itself is not written."""
    out = copy.copy(cloud)
    if sq is not None:
        sq.setflags(write=False)
    object.__setattr__(out, "sq_dist", sq)
    return out


def _measured(cloud):
    """A copy of ``cloud`` that carries its squared distances, measured by
    one kernel call unless ``cloud`` carries them already."""
    sq = cloud.sq_dist
    return _carrying(cloud, _squared_distances(cloud.points)
                     if sq is None else sq)


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
    """Check the metric axioms and return an immutable space: the one
    intake of matrices from outside (``_built_space`` takes the library's).

    Parameters
    ----------
    dist : array_like, shape (n, n)
        Finite real numbers, converted as ``PointCloud`` converts
        points; a float64 array is not copied.
    labels : sequence of length n, optional
    tol : float
        Relative slack for the triangle inequality; d(i,j) may exceed
        d(i,k) + d(k,j) by at most tol * max(dist).

    Raises
    ------
    InputError
        Non-square, non-finite, or otherwise malformed input.
    MetricValidationError
        One subclass per axiom; the raised instance is the first violation
        found and carries the full list in ``.violations``.
    """
    D = _real_array(dist, 2, "distance matrix")
    if D.shape[0] != D.shape[1]:
        raise InputError(f"distance matrix must be square, got shape {D.shape}")
    n = D.shape[0]
    if n == 0:
        raise InputError("empty distance matrix")
    labels = tuple(range(n)) if labels is None else tuple(labels)
    if len(labels) != n:
        raise InputError(f"{len(labels)} labels for {n} points")
    found = _Found()
    _check_triangles(D, _check_axioms(D, found), tol, found)
    return found.space(_readonly(D), labels)


def _built_space(D, labels=None) -> FiniteMetricSpace:
    """A space over ``D``, a fresh float64 matrix the library built and
    whose triangle inequality its builder proves: only the finiteness and
    ``_check_axioms`` run.  ``D`` is frozen in place, not copied."""
    D, found = _real_array(D, 2, "distance matrix"), _Found()
    _check_axioms(D, found)
    D.setflags(write=False)
    return found.space(D, range(D.shape[0]) if labels is None else labels)


class _Found(list):
    """Violations in the order found: the first ``_MAX_RECORDED`` kept,
    and ``total`` counting all of them."""
    total = 0

    def add(self, v):
        self.total += 1
        if len(self) < _MAX_RECORDED:
            self.append(v)

    def space(self, D, labels):
        """The space over read-only ``D``, else the first violation."""
        if self:
            self[0].violations, self[0].total = list(self), self.total
            raise self[0]
        return FiniteMetricSpace(dist=D, labels=tuple(labels))


def _check_axioms(D, found) -> bool:
    """Add the O(n^2) axioms' violations of square ``D`` to ``found``:
    asymmetric pairs (i < j), negative entries, positive diagonal entries,
    zeros off the diagonal (i < j).  Returns whether ``D`` is symmetric."""
    gap = D - D.T
    for i, j in np.argwhere(np.triu(gap, k=1)):
        found.add(AsymmetryError(int(i), int(j), float(abs(gap[i, j]))))
    for i, j in np.argwhere(D < 0.0):
        found.add(NegativeDistanceError(int(i), int(j), float(D[i, j])))
    for i in np.nonzero(np.diagonal(D) > 0.0)[0]:   # < 0 is recorded above
        found.add(NonzeroDiagonal(int(i), float(D[i, i])))
    for i, j in np.argwhere(np.triu(D == 0.0, k=1)):
        found.add(ZeroOffDiagonal(int(i), int(j)))
    return not np.any(gap)


def _check_triangles(D, symmetric, tol, found):
    """Add the violations of d(i, j) <= d(i, k) + d(k, j) + tol * max|D|
    to ``found``.  A screen first takes the excess
    e(i, j) = d(i, j) - min_k (d(i, k) + d(k, j)) of each unordered pair
    once: blocks of 128 to 255 rows (one block when n < 256) run the
    min-plus kernel over their part of the upper triangle, and an entry
    over the slack flags both its row and its column.  Rounding is
    monotone and min exact, so e(i, j) is the largest excess over k, and
    on a symmetric matrix e(i, j) = e(j, i) bit for bit, as
    fl(a + b) = fl(b + a); an asymmetric one (an error already) screens
    its transpose too, for the columns.  Memory beyond D grows as n, not
    n * n.  Only flagged rows are then scanned k by k for witnesses,
    stopping after the first k past ``_MAX_RECORDED`` in all; so a valid
    metric is never scanned k by k, and the violations, their order and
    their count are those of a full scan.
    """
    slack_abs = tol * float(np.abs(D).max())
    rows, cols = _upper_screen(D, slack_abs)
    if not symmetric:
        cols = _upper_screen(np.ascontiguousarray(D.T), slack_abs)[1]
    rows = np.nonzero(rows | cols)[0]
    if rows.size:
        Dr = D[rows]
        for k in range(D.shape[0]):
            excess = Dr - (Dr[:, k:k + 1] + D[k:k + 1, :])
            bad = np.argwhere(excess > slack_abs)
            for r, j in bad:
                i = rows[r]
                if i != k and j != k and i != j:
                    found.add(TriangleViolation(int(i), int(j), int(k),
                                                float(excess[r, j])))
            if found.total > _MAX_RECORDED:
                break


def build_partition(X: FiniteMetricSpace, idx_a, idx_b) -> UnionPartition:
    """Build a validated A/B partition of ``X`` (overlap allowed).

    Each side is an index list: integral numbers in [0, X.n), none
    repeated, else InputError (``_index_list``).  Raises EmptySideError
    if a side is empty, CoverageError if some point is in neither side.
    """
    out = []
    for name, idx in (("a", idx_a), ("b", idx_b)):
        arr = _index_list(idx, X.n, f"side {name!r}")
        if arr.size == 0:
            raise EmptySideError(name)
        out.append(np.sort(arr))
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
    Tiles take isqrt(_TILE // dim) columns (all of q when fewer) and as
    many rows as fill ``_TILE`` float64 differences, or one row by one
    column when that is more (a narrower ``p`` fills it with columns),
    so each difference tensor stays in cache.  A self call (``q`` None)
    takes square tiles, measures each band of rows from its diagonal tile
    rightwards and mirrors the band into the lower triangle: entry (j, i)
    is bit for bit entry (i, j), since (a - b)**2 == (b - a)**2 and every
    entry is summed in the same order.
    """
    p = np.ascontiguousarray(getattr(p, "points", p), dtype=np.float64)
    self_call = q is None
    q = p if self_call else np.ascontiguousarray(getattr(q, "points", q),
                                                 dtype=np.float64)
    (n, dim), m = p.shape, q.shape[0]
    out = np.empty((n, m))   # allocated even when no tile runs
    cols = min(max(1, math.isqrt(_TILE // max(dim, 1))), max(m, 1))
    rows = cols if self_call else max(1, _TILE // (cols * max(dim, 1)))
    if not self_call and 0 < n < rows:   # narrow p: one band of rows
        cols = min(max(1, _TILE // (n * max(dim, 1))), max(m, 1))
    for lo in range(0, n, rows):
        hi = lo + rows
        for c in range(lo if self_call else 0, m, cols):
            diff = p[lo:hi, None, :] - q[None, c:c + cols, :]
            np.einsum("ijk,ijk->ij", diff, diff, out=out[lo:hi, c:c + cols])
        if self_call and hi < n:
            out[hi:, lo:hi] = out[lo:hi, hi:].T
    return out


def _min_plus(a, b):
    """Min-plus product: ``out[i, j] = min_k (a[i, k] + b[k, j])``.

    Each band of rows is the running minimum over k of a[band, k] plus
    b[k], summed into one scratch band of half the result, kept within a
    quarter and all of ``_TILE``: with NumPy's iterator buffers (up to
    128 KB per broadcast sum), memory beyond the result stays under
    384 KB unless one row is longer.  Sums and minima are exact, so the
    result does not depend on the banding.  An empty shared index gives
    +inf (the minimum over nothing).
    """
    out = np.full((a.shape[0], b.shape[1]), np.inf)
    budget = min(_TILE, max(_TILE // 4, out.size // 2))
    rows = max(1, budget // max(b.shape[1], 1))
    scratch = np.empty((min(rows, a.shape[0]), b.shape[1]))
    for lo in range(0, a.shape[0], rows):
        band = out[lo:lo + rows]
        sums = scratch[:band.shape[0]]
        for a_k, b_k in zip(a[lo:lo + rows].T[:, :, None], b):
            np.add(a_k, b_k, out=sums)
            np.minimum(band, sums, out=band)
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

    Either argument is a point cloud or a bare (m, dim) array.  Rows and
    columns are taken in tiles whose difference tensor holds at most 2**15
    float64 elements (256 KB), or one row by one column when that is
    larger, so memory beyond the (len(p), len(q)) result does not grow
    with the inputs.  ``pairwise_distances(p)`` measures the upper
    triangle's tiles only and mirrors them, so it is exactly symmetric
    with a zero diagonal.  Each entry is reduced by the same expression in
    every tile, so the result does not depend on the tiling, and no BLAS
    routine is called.  (Beyond 8192 coordinates numpy sums a one-by-one
    tile's lone pair in 8192-element chunks, so there an entry may differ
    in its last bits from the same pair measured in a larger tile.)

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

    ``images`` is a point cloud (or what ``PointCloud`` converts) with one
    row per subset element, in subset order; a cloud's carried
    ``sq_dist`` is used when present.  ``subset`` is an index list.
    Raises CollapsedPairError if two distinct points share an image.
    """
    images = _cloud(images)
    subset = (np.arange(X.n) if subset is None
              else _index_list(subset, X.n, "subset"))
    if images.m != subset.size:
        raise InputError(f"{images.m} image rows for {subset.size} points")
    return _distortion_report(X.dist[np.ix_(subset, subset)],
                              _measured(images).sq_dist, subset)


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
