"""Dense numeric primitives: symmetric eigensystems, MDS, direct sums.

The eigensolver wraps LAPACK (via numpy) behind a checked interface: inputs
must be symmetric, outputs are re-verified against reconstruction and
orthonormality residuals before anything downstream consumes them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, InputError, LengthMismatchError,
                     NotEuclidean, NotSymmetricError)
from .metric import (FiniteMetricSpace, PointCloud, _carrying, _cloud,
                     _measured, _readonly, _real_array, pairwise_distances)

__all__ = [
    "PointCloud", "SymEigen", "sym_eigen", "mds_isometric_embed",
    "mds_best_effort", "direct_sum", "pairwise_distances",
]

_SYM_TOL = 1e-12   # sym_eigen's asymmetry limit, relative to max|M|
_MDS_TOL = 1e-9    # MDS eigenvalue floor, relative to the top eigenvalue


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray  # columns are eigenvectors, aligned with values


def sym_eigen(M) -> SymEigen:
    """Checked symmetric eigendecomposition.

    ``M`` converts by ``_real_array``: what is not a square matrix of
    finite real numbers raises InputError.  Raises NotSymmetricError if
    max|M - M.T| exceeds 1e-12 * max|M|, ConvergenceError if the backend
    fails or the residual checks (reconstruction, orthonormality) do not
    hold; a NaN residual fails them.
    """
    A = _real_array(M, 2, "matrix")
    if A.shape[0] != A.shape[1]:
        raise InputError(f"matrix must be square, got shape {A.shape}")
    scale = float(np.abs(A).max()) if A.size else 0.0
    gap = float(np.abs(A - A.T).max()) if A.size else 0.0
    if not gap <= _SYM_TOL * max(scale, 1e-300):
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
    if not resid <= 1e-9 * max(scale, 1e-300) * n:
        raise ConvergenceError(
            f"reconstruction residual {resid:.3e} too large")
    ortho = float(np.abs(vecs.T @ vecs - np.eye(n)).max())
    if not ortho <= 1e-10 * max(n, 1):
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
    eig = sym_eigen(_gram_from_distances(X.dist))
    lam_max = float(max(eig.values[0], 0.0))
    thresh = _MDS_TOL * lam_max
    lam_min = float(eig.values[-1])
    if lam_min < -max(thresh, 1e-300):
        raise NotEuclidean(lam_min)
    keep = eig.values > thresh
    cloud = _measured(PointCloud(eig.vectors[:, keep]
                                 * np.sqrt(eig.values[keep])))
    err = float(np.abs(pairwise_distances(cloud) - X.dist).max())
    if err > 1e-8 * max(float(X.dist.max()), 1e-300):
        raise NotEuclidean(lam_min)
    return cloud


def mds_best_effort(X: FiniteMetricSpace) -> PointCloud:
    """Classical MDS with negative eigenvalues clipped to zero.

    Always returns a cloud, which carries its squared distances and
    realizes the metric only when it is Euclidean: a lossy embedding.
    """
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
    clouds = [_cloud(c) for c in clouds]
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
