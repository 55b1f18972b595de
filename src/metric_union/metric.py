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
    if np.any(gap != 0.0):
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
    for k in range(n):
        excess = D - (D[:, k:k + 1] + D[k:k + 1, :])
        bad = np.argwhere(excess > slack_abs)
        for i, j in bad:
            if i != k and j != k and i != j:
                record(TriangleViolation(int(i), int(j), int(k),
                                         float(excess[i, j])))
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

    The one distance kernel; see ``pairwise_distances``.
    """
    p = np.asarray(getattr(p, "points", p), dtype=np.float64)
    q = p if q is None else np.asarray(getattr(q, "points", q),
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


def pairwise_distances(p, q=None) -> np.ndarray:
    """Euclidean distances between the rows of ``p`` and ``q`` (default p).

    Either argument is a point cloud or a bare (m, dim) array.  Rows of
    ``p`` are taken in blocks whose difference tensor holds at most 2**20
    float64 elements (8 MB), or a single row when one row is larger, so
    memory beyond the (len(p), len(q)) result does not grow with len(p).
    Each entry is reduced by the same expression in every block, so the
    result does not depend on the blocking, and ``pairwise_distances(p)``
    is exactly symmetric with a zero diagonal.
    """
    out = _squared_distances(p, q)
    return np.sqrt(out, out=out)


def distortion_of(X: FiniteMetricSpace, images, subset=None) -> DistortionReport:
    """Distortion of the map point -> image over ``subset`` (default: all).

    ``images`` is a point cloud (or bare (m, dim) array) with one row per
    subset element, in subset order.  Raises CollapsedPairError if two
    distinct points share an image.
    """
    pts = np.asarray(getattr(images, "points", images), dtype=np.float64)
    if subset is None:
        subset = np.arange(X.n)
    subset = np.asarray(subset, dtype=np.intp)
    if pts.shape[0] != subset.size:
        raise InputError(
            f"{pts.shape[0]} image rows for {subset.size} points")
    return _distortion_report(X.dist[np.ix_(subset, subset)],
                              pairwise_distances(pts), subset)


def _distortion_report(dm, de, subset):
    """DistortionReport from the true (``dm``) and image (``de``) distance
    matrices over ``subset``; raises CollapsedPairError."""
    m = subset.size
    if m < 2:
        return DistortionReport(1.0, 1.0, 1.0, None, None, int(m))
    iu, ju = np.triu_indices(m, k=1)
    d_true = dm[iu, ju]
    d_img = de[iu, ju]

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
