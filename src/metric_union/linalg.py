"""Dense numeric primitives: point clouds, symmetric eigensystems, MDS.

The eigensolver wraps LAPACK (via numpy) behind a checked interface: inputs
must be symmetric, outputs are re-verified against reconstruction and
orthonormality residuals before anything downstream consumes them.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from . import metric
from .errors import (ConvergenceError, InputError, LengthMismatchError,
                     NotEuclidean, NotSymmetricError)
from .metric import FiniteMetricSpace, _readonly, pairwise_distances

__all__ = [
    "PointCloud", "SymEigen", "sym_eigen", "mds_isometric_embed",
    "mds_best_effort", "direct_sum", "pairwise_distances",
]

_SYM_TOL = 1e-12   # sym_eigen's asymmetry limit, relative to max|M|
_MDS_TOL = 1e-9    # MDS eigenvalue floor, relative to the top eigenvalue


@dataclass(frozen=True)
class PointCloud:
    """Immutable (m, dim) array of points in Euclidean space.

    ``sq_dist`` is None or the read-only (m, m) squared-distance matrix of
    ``points``: either the raw output of one distance-kernel call, or
    derived exactly from kernel outputs by a sum or a factor scale**2,
    which rounds each entry within a few ulps of what measuring again
    gives.  Only the library fills it, and only on clouds it builds and
    measures anyway: both MDS results (measured), the side clouds
    ``embed_union`` normalizes and the glued sides ``external_extend``
    hands it (private copies, measured; a rescaled side carries scale**2
    times its measured matrix), psi's cloud (phi_b's matrix re-indexed,
    its placed rows measured), and ``direct_sum`` of clouds that all carry
    one (the sum of theirs), which makes ``embed_union``'s ``full``, whose
    rows glue's f1 and f2 re-index.  A cloud is never written after it is
    built, so a caller's cloud never gains one.  ``pairwise_distances``,
    ``distortion_of`` and ``ratio_check`` read it instead of measuring
    again; ``take`` and ``scaled`` return clouds without one.
    """

    points: np.ndarray
    sq_dist: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise InputError(f"point cloud must be 2-d, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InputError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def m(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def take(self, idx):
        """Sub-cloud at the given row indices (in the given order)."""
        return PointCloud(self.points[np.asarray(idx, dtype=np.intp)])

    def scaled(self, factor):
        return PointCloud(self.points * float(factor))


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
    return _carrying(cloud, metric._squared_distances(cloud.points)
                     if sq is None else sq)


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray  # columns are eigenvectors, aligned with values


def sym_eigen(M) -> SymEigen:
    """Checked symmetric eigendecomposition.

    Raises NotSymmetricError if max|M - M.T| exceeds 1e-12 * max|M|,
    ConvergenceError if the backend fails or the residual checks
    (reconstruction, orthonormality) do not hold.
    """
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"matrix must be square, got shape {A.shape}")
    scale = float(np.abs(A).max()) if A.size else 0.0
    gap = float(np.abs(A - A.T).max()) if A.size else 0.0
    if gap > _SYM_TOL * max(scale, 1e-300):
        raise NotSymmetricError(gap)
    A = 0.5 * (A + A.T)
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]

    n = A.shape[0]
    resid = float(np.abs(A @ vecs - vecs * vals).max())
    if resid > 1e-9 * max(scale, 1e-300) * n:
        raise ConvergenceError(
            f"reconstruction residual {resid:.3e} too large")
    ortho = float(np.abs(vecs.T @ vecs - np.eye(n)).max())
    if ortho > 1e-10 * max(n, 1):
        raise ConvergenceError(f"orthonormality residual {ortho:.3e}")
    return SymEigen(values=_readonly(vals), vectors=_readonly(vecs))


def _gram_from_distances(D):
    """Gram matrix -(1/2) H D^2 H with H the centering projection."""
    D2 = D * D
    row = D2.mean(axis=1, keepdims=True)
    col = D2.mean(axis=0, keepdims=True)
    tot = D2.mean()
    return -0.5 * (D2 - row - col + tot)


def mds_isometric_embed(X: FiniteMetricSpace) -> PointCloud:
    """Exact Euclidean realization of a metric via classical MDS.

    Only succeeds when the metric is Euclidean-realizable: the centered
    Gram matrix must be positive semidefinite up to 1e-9 (relative to
    its top eigenvalue), and the realized pairwise distances must match
    the input to 1e-8 relative.  Raises NotEuclidean otherwise.  The
    result carries the squared distances that check measured.
    """
    D = X.dist
    n = X.n
    if n == 1:
        return PointCloud(np.zeros((1, 0)))
    eig = sym_eigen(_gram_from_distances(D))
    lam_max = float(max(eig.values[0], 0.0))
    thresh = _MDS_TOL * lam_max
    lam_min = float(eig.values[-1])
    if lam_min < -max(thresh, 1e-300):
        raise NotEuclidean(lam_min)
    keep = eig.values > thresh
    cloud = _measured(PointCloud(eig.vectors[:, keep]
                                 * np.sqrt(eig.values[keep])))
    err = float(np.abs(pairwise_distances(cloud) - D).max())
    if err > 1e-8 * max(float(D.max()), 1e-300):
        raise NotEuclidean(lam_min)
    return cloud


def mds_best_effort(X: FiniteMetricSpace) -> PointCloud:
    """Classical MDS with negative eigenvalues clipped to zero.

    Always returns a cloud, which carries its squared distances and
    realizes the metric only when it is Euclidean: a lossy embedding.
    """
    if X.n == 1:
        return PointCloud(np.zeros((1, 0)))
    eig = sym_eigen(_gram_from_distances(X.dist))
    lam = np.clip(eig.values, 0.0, None)
    keep = lam > 0.0
    return _measured(PointCloud(eig.vectors[:, keep] * np.sqrt(lam[keep])))


def direct_sum(clouds) -> PointCloud:
    """Coordinate-wise concatenation of clouds over the same point set.

    Squared pairwise distances add exactly across summands, so when every
    summand carries ``sq_dist`` the result carries their sum, added in
    summand order, instead of being measured again; otherwise it carries
    none.  Raises LengthMismatchError when the clouds disagree on point
    count.
    """
    clouds = list(clouds)
    if not clouds:
        raise InputError("direct_sum of no clouds")
    counts = {c.m for c in clouds}
    if len(counts) != 1:
        raise LengthMismatchError(
            f"clouds have differing point counts: {sorted(counts)}")
    out = PointCloud(np.hstack([c.points for c in clouds]))
    if any(c.sq_dist is None for c in clouds):
        return out
    sq = clouds[0].sq_dist.copy()
    for c in clouds[1:]:
        sq += c.sq_dist
    return _carrying(out, sq)
