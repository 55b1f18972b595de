"""Seeded generators for two-sided metric spaces with known side geometry.

Each instance samples side A in R^dim_a and side B in R^dim_b, keeps
intra-side distances Euclidean, and draws cross distances uniformly from
[M, 2M] with M the larger side diameter.  Cross weights that large admit
no shortcut through the other side, so both sides stay isometrically
embedded by their sampled coordinates while cross distances are free to
be non-Euclidean.

Overlap points (shared by both sides) get coordinates in the smaller of
the two dimensions, zero-padded into each side's space, which keeps the
two side geometries consistent on shared pairs.

The drawn weights are closed under shortest paths by one crossing: a
shortest path from an A-only to a B-only point runs inside side A, takes
one step from a point of A to a point of B (a cross weight, or a side
edge into a shared point, whose crossing costs nothing), and runs inside
side B.  A path that leaves a side and comes back is never shorter than
staying: out and back through shared points s, s' costs at least
d(s, s'), a side distance, and any other excursion takes a cross weight,
at least M, which no side distance exceeds.  So the side blocks stay as
drawn, the cross block is two min-plus products, and the result is a
metric by construction.  ``shortest_path_closure`` (Floyd–Warshall over
all points) stays as its test oracle: the two agree bit for bit on every
recipe the package, its demos, tests and bench use.  They can differ by
an ulp where Floyd–Warshall's sum along near-collinear side points
rounds below the drawn distance (seen on one-dimensional sides); the
one-crossing closure keeps the drawn value.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .glue import GlueInstance, glue_instance
from .linalg import PointCloud
from .metric import (FiniteMetricSpace, UnionPartition, _built_space,
                     _integral, _min_plus, _real, build_partition,
                     pairwise_distances)
# no longer called here, but kept as a module attribute: the benchmark's
# traced run wraps instances.validate_metric by name (bench/spans.py)
from .metric import validate_metric  # noqa: F401
from .seeds import stream

__all__ = ["Instance", "shortest_path_closure", "union_instance",
           "distort_sides", "sample_glue_instance"]


@dataclass(frozen=True)
class Instance:
    """A space, its two-sided partition, and exact side coordinates."""

    space: FiniteMetricSpace
    partition: UnionPartition
    phi_a: PointCloud
    phi_b: PointCloud


def shortest_path_closure(w) -> np.ndarray:
    """All-pairs shortest paths of a symmetric weight matrix.

    Floyd–Warshall, O(n^3).  ``union_instance`` no longer calls it; it is
    the oracle its one-crossing closure is tested against.
    """
    d = np.array(w, dtype=np.float64)
    n = d.shape[0]
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def _drawn(n_a, n_b, dim_a, dim_b, seed, overlap):
    """The drawn weights before closure, with both sides' indices and
    coordinates: Euclidean side blocks, cross weights in [M, 2M]."""
    rng = stream(seed, "testgen")
    o = int(overlap)
    only_a, only_b = n_a - o, n_b - o
    n = o + only_a + only_b

    shared = rng.normal(size=(o, min(dim_a, dim_b)))
    pts_a = np.zeros((n_a, dim_a))
    pts_a[:o, : shared.shape[1]] = shared
    pts_a[o:] = rng.normal(size=(only_a, dim_a))
    pts_b = np.zeros((n_b, dim_b))
    pts_b[:o, : shared.shape[1]] = shared
    pts_b[o:] = rng.normal(size=(only_b, dim_b))

    # point order: shared, then A-only, then B-only
    idx_a = np.arange(n_a)
    idx_b = np.concatenate([np.arange(o), np.arange(n_a, n)])

    da = pairwise_distances(pts_a)
    db = pairwise_distances(pts_b)
    m_scale = max(da.max(), db.max(), 1e-9)
    w = np.zeros((n, n))
    w[np.ix_(idx_a, idx_a)] = da
    w[np.ix_(idx_b, idx_b)] = db
    if only_a and only_b:
        cross = rng.uniform(m_scale, 2.0 * m_scale, size=(only_a, only_b))
        w[o : n_a, n_a :] = cross
        w[n_a :, o : n_a] = cross.T
    return w, idx_a, idx_b, pts_a, pts_b


def union_instance(n_a, n_b, dim_a, dim_b, seed, overlap=0) -> Instance:
    """Random two-sided instance with ``overlap`` shared points.

    The cross block between A-only and B-only points is closed by one
    crossing (see the module docstring), (D_A ⊗ K) ⊗ D_B in the min-plus
    product, with D_A and D_B the drawn side blocks and K the drawn
    weights from A to B, in which a shared point is a zero-cost crossing.
    A metric by construction, it takes the O(n^2) axiom checks only.
    """
    n_a, n_b = _integral(n_a, "n_a"), _integral(n_b, "n_b")
    dim_a, dim_b = _integral(dim_a, "dim_a"), _integral(dim_b, "dim_b")
    overlap = _integral(overlap, "overlap")
    if n_a < 1 or n_b < 1:
        raise InputError("both sides need at least one point")
    if not (0 <= overlap <= min(n_a, n_b)):
        raise InputError(f"overlap must lie in [0, {min(n_a, n_b)}], "
                         f"got {overlap}")
    w, idx_a, idx_b, pts_a, pts_b = _drawn(n_a, n_b, dim_a, dim_b, seed,
                                           overlap)
    o = int(overlap)
    cross = _min_plus(_min_plus(w[o:n_a, :n_a], w[np.ix_(idx_a, idx_b)]),
                      w[idx_b, n_a:])
    w[o:n_a, n_a:] = cross
    w[n_a:, o:n_a] = cross.T
    X = _built_space(w)
    P = build_partition(X, idx_a, idx_b)
    return Instance(space=X, partition=P,
                    phi_a=PointCloud(pts_a), phi_b=PointCloud(pts_b))


def distort_sides(inst: Instance, d_a: float, d_b: float) -> Instance:
    """Stretch the first coordinate of each side by its factor.

    The scaled coordinates stay non-contracting (no direction shrinks)
    with Lipschitz constant at most the factor, so they exercise the
    d > 1 paths without touching the metric itself.
    """
    if _real(d_a, "d_a") < 1.0 or _real(d_b, "d_b") < 1.0:
        raise InputError("distortion factors must be >= 1")
    pa = np.array(inst.phi_a.points)
    pa[:, 0] *= d_a
    pb = np.array(inst.phi_b.points)
    pb[:, 0] *= d_b
    return Instance(space=inst.space, partition=inst.partition,
                    phi_a=PointCloud(pa), phi_b=PointCloud(pb))


def sample_glue_instance(n_pairs, extra_u, extra_v, dim_a, dim_b, seed,
                         wobble=0.3) -> GlueInstance:
    """Random pairing between perturbed-linear images, with ambient extras.

    The matched points are Gaussian in R^dim_a; their partners are a
    random linear image in R^dim_b plus ``wobble`` noise, so the measured
    pairing distortion grows with the noise (``wobble = 0`` with
    dim_a <= dim_b gives an isometry-like map up to the linear factor).
    Extra ambient points are drawn at the same scale and shuffled into
    both sides, exercising nontrivial index bookkeeping.
    """
    n_pairs = _integral(n_pairs, "n_pairs")
    extra_u = _integral(extra_u, "extra_u")
    extra_v = _integral(extra_v, "extra_v")
    dim_a, dim_b = _integral(dim_a, "dim_a"), _integral(dim_b, "dim_b")
    wobble = _real(wobble, "wobble")
    if n_pairs < 1:
        raise InputError("need at least one matched pair")
    if extra_u < 0 or extra_v < 0:
        raise InputError("extra point counts must be nonnegative")
    rng = stream(seed, "glue")
    A = rng.normal(size=(n_pairs, dim_a))
    Q = np.linalg.qr(rng.normal(size=(max(dim_a, dim_b), dim_b)))[0]
    B = A @ Q[:dim_a] + wobble * rng.normal(size=(n_pairs, dim_b))

    U = np.vstack([A, rng.normal(size=(extra_u, dim_a))])
    V = np.vstack([B, rng.normal(size=(extra_v, dim_b))])
    perm_u = rng.permutation(U.shape[0])
    perm_v = rng.permutation(V.shape[0])
    U, V = U[perm_u], V[perm_v]
    pos_u = np.argsort(perm_u)  # new row of old row i
    pos_v = np.argsort(perm_v)
    a_idx = pos_u[:n_pairs]
    pairing = pos_v[:n_pairs]
    return glue_instance(U, V, a_idx, np.sort(pairing), pairing)
