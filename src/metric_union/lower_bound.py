"""Distortion lower bound from a spectral split of a complete bipartite graph.

A uniform coin per cross edge splits K_{n,n} into two spanning subgraphs
whose Laplacians each sandwich half the full Laplacian within a factor
(1 + delta).  On the metric space that assigns distance 2 within sides and
1 / 3 across the two edge classes — whose sides are regular simplices, so
each side embeds isometrically — any Euclidean embedding must then distort
by at least 3/(1 + delta)^2.  A split is its n x n biadjacency mask, and
``delta_star`` is measured from that mask when the split is built, from
the generalized eigenvalues of the (subgraph-Laplacian, half-Laplacian)
pencil, so every downstream claim is checkable without appeal to the
asymptotic behaviour of random graphs.  The half-Laplacian of K_{n,n} has
a closed-form inverse square root, so one symmetric eigensolve of the
e1 class gives the eigenvalues of both classes.
"""

from dataclasses import dataclass, field

import numpy as np

from .audit import AuditEntry, Collector, raise_failing
from .errors import (InputError, RangeViolation, RetryBudgetExceeded,
                     SingularPencil)
from .linalg import sym_eigen
from .metric import (FiniteMetricSpace, _built_space, _cloud, _integral,
                     _measured, _real, _readonly, build_partition,
                     distortion_of)
# no longer called here, but kept as a module attribute: the benchmark's
# traced run wraps lower_bound.validate_metric by name (bench/spans.py)
from .metric import validate_metric  # noqa: F401
from .seeds import stream

__all__ = [
    "BipartiteSplit", "sample_split", "measure_delta", "build_123_metric",
    "certified_lower_bound", "ratio_check", "audit_image",
    "choose_n_for_epsilon",
]

_MAX_ATTEMPTS = 64
_DELTA_CUSHION = 1e-9
# eigenvalues of the (L1, L/2) pencil within this of 0 or 2 are round-off
# of a disconnected class; a connected class on 2n vertices has
# lam_min >= 1/n^3, far above it at any n a dense eigensolve can reach
_SINGULAR_FLOOR = 1e-12
# choose_n_for_epsilon: splits sampled per n, and the largest n it tries
_SAMPLES = 5
_N_CAP = 512


@dataclass(frozen=True)
class BipartiteSplit:
    """Edge 2-colouring of K_{n,n} with its measured sandwich parameter.

    ``mask`` is the n x n boolean biadjacency, kept as a read-only copy:
    ``mask[i, j]`` puts the edge between vertex i of side A and vertex
    n + j of side B into e1, else into e2.  ``delta_star`` is measured at
    construction, never given: ``measure_delta(mask)`` plus a 1e-9
    cushion.  ``attempts`` is the number of draws ``sample_split`` took
    to reach this mask.  A mask that is not square and boolean raises
    InputError, and a disconnected edge class raises SingularPencil.
    """

    mask: np.ndarray
    attempts: int
    delta_star: float = field(init=False)

    def __post_init__(self):
        mask = np.asarray(self.mask)
        if mask.dtype != bool:
            raise InputError(f"mask must be boolean, got {mask.dtype}")
        object.__setattr__(self, "mask", _readonly(mask))
        # through the module global, which the traced bench wraps by name
        object.__setattr__(self, "delta_star",
                           float(measure_delta(self.mask) + _DELTA_CUSHION))

    @property
    def n(self):
        return self.mask.shape[0]


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
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InputError(f"mask must be square and non-empty, got shape "
                         f"{m.shape}")
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


def sample_split(n: int, seed: int) -> BipartiteSplit:
    """Uniform edge split of K_{n,n}, resampled until usable.

    A sample is accepted when both subgraphs are connected and the
    measured delta is below 1; failures draw a fresh derived stream, up
    to 64 attempts.  Exhaustion is expected at n = 16, not a bug: the
    minimum delta over thousands of samples there is about 1.12.
    """
    n = _integral(n, "n")   # 64.0 is 64, as an index 2.0 is 2
    if n < 4:
        raise InputError(f"need n >= 4, got {n}")
    if n ** 2 > np.iinfo(np.intp).max // 8:   # numpy refuses the draw
        raise InputError(f"n = {n} is too large: an n x n draw has more "
                         "bytes than an array can hold")
    for attempt in range(_MAX_ATTEMPTS):
        rng = stream(seed, "lower_bound.split", attempt)
        try:
            split = BipartiteSplit(rng.random((n, n)) < 0.5, attempt + 1)
        except SingularPencil:   # an edge class is disconnected
            continue
        if split.delta_star < 1.0:
            return split
    raise RetryBudgetExceeded(
        _MAX_ATTEMPTS, f"no usable split of K_{{{n},{n}}} found")


def build_123_metric(split: BipartiteSplit):
    """The 1/2/3-distance space over the split, with its partition.

    Distance 2 within each side, 1 across e1 edges, 3 across e2 edges.
    Returns (space, partition) with side A = [0, n), side B = [n, 2n).
    Every mask gives a metric, so ``_built_space`` checks only the O(n^2)
    axioms: a 3 lies only across the sides, and any third point is on one
    of them, so one of its two legs is a 2 and the other at least 1:
    3 <= 2 + 1.  Every other triangle has 2 <= 1 + 1.
    """
    n = split.n
    D = np.full((2 * n, 2 * n), 2.0)
    np.fill_diagonal(D, 0.0)
    cross = np.where(split.mask, 1.0, 3.0)
    D[:n, n:] = cross
    D[n:, :n] = cross.T
    X = _built_space(D)
    return X, build_partition(X, np.arange(n), np.arange(n, 2 * n))


def certified_lower_bound(split: BipartiteSplit) -> float:
    """Every Euclidean embedding of the 1/2/3 space distorts this much.

    The bound rests on ``split.delta_star``, which the split measured from
    its own mask when it was built."""
    return 3.0 / (1.0 + split.delta_star) ** 2


def _ratio_window(delta_star):
    """ratio_check's window (lo, hi)."""
    return (1.0 + delta_star) ** -2, (1.0 + delta_star) ** 2


def _window_entries(split, images):
    """ratio_check's entries, each class's ratio against lo and hi with
    1e-9 * hi allowed; a failing one raises RangeViolation."""
    images, n = _cloud(images), split.n
    if images.m != 2 * n:
        raise InputError(f"{images.m} image rows for {2 * n} vertices")
    # copied contiguous: the means below sum in an order set by the layout
    cross = np.ascontiguousarray(_measured(images).sq_dist[:n, n:])
    mean_all = float(cross.mean())
    if mean_all == 0.0:
        raise InputError("all cross images coincide; ratios are undefined")
    lo, hi = _ratio_window(split.delta_star)
    audit = Collector()
    for name, m in (("e1", split.mask), ("e2", ~split.mask)):
        r = float(cross[m].mean()) / mean_all
        audit.scalar(f"{name}.ratio_lower", "lower", r, lo, allow=1e-9 * hi)
        audit.scalar(f"{name}.ratio_upper", "upper", r, hi, allow=1e-9 * hi)
    raise_failing(audit.entries, lambda e: RangeViolation(
        e.name.split(".")[0], e.measured, lo, hi))
    return audit.entries


def ratio_check(split: BipartiteSplit, images) -> tuple:
    """Mean squared image distances over e1 and e2, relative to all edges.

    Both ratios must land in [(1+delta*)^-2, (1+delta*)^2], which the
    measured sandwich guarantees for every image; a value outside (beyond
    round-off) is a fault and raises RangeViolation naming the class.
    ``images`` (2n rows) converts through ``PointCloud``, and the cross
    block is read from its squared distances: carried ones, else one
    kernel call measures the whole image.
    """
    entries = _window_entries(split, images)
    return entries[0].measured, entries[2].measured


def audit_image(split: BipartiteSplit, X: FiniteMetricSpace,
                images) -> list:
    """Entries of one image of the split's 1/2/3 space ``X``: its
    distortion is at least ``certified_lower_bound(split)`` (allowing 1e-9,
    else CertificateViolation), then ratio_check's four window entries."""
    images = _measured(_cloud(images))
    entry = AuditEntry("mds_distortion_above_bound", "lower",
                       distortion_of(X, images).distortion,
                       certified_lower_bound(split), 1e-9, None)
    raise_failing([entry])
    return [entry] + _window_entries(split, images)


def choose_n_for_epsilon(epsilon: float, seed: int) -> tuple:
    """Smallest power-of-two n whose median delta meets 3/(1+d)^2 >= 3-eps.

    The median is over 5 splits, ``sample_split(n, seed + 1000 * i)``.
    Returns (n, median_delta, split), where split is the first of the
    samples, ``sample_split(n, seed)``, so a caller that wants that split
    need not draw and measure it again.  Doubles n from 16 up to 512;
    exceeding the cap raises RetryBudgetExceeded.
    """
    seed = _integral(seed, "seed")
    if not (0.0 < _real(epsilon, "epsilon") < 1.0):
        raise InputError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    target = np.sqrt(3.0 / (3.0 - epsilon)) - 1.0
    n = 16
    while n <= _N_CAP:
        try:
            splits = [sample_split(n, seed + 1000 * i)
                      for i in range(_SAMPLES)]
        except RetryBudgetExceeded:
            # small n cannot even clear the delta < 1 sampling gate, so it
            # certainly misses the (always < 0.225) target; keep doubling
            n *= 2
            continue
        med = sorted(split.delta_star for split in splits)[_SAMPLES // 2]
        if med <= target:
            return n, med, splits[0]
        n *= 2
    raise RetryBudgetExceeded(
        _SAMPLES, f"epsilon {epsilon} unreachable at n <= {_N_CAP}")
