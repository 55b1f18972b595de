"""Independent check of each certified result, outside the timed region.

Distances are recomputed from the returned coordinates in row blocks, so
the check holds O(block * n) memory and never sets the run's peak RSS, and
it uses none of the package's distortion or audit code: the audit rule is
restated here from the entries' raw (sense, measured, bound) values.
"""

import math
from dataclasses import dataclass, field

import numpy as np

AUDIT_REL = 1e-6       # relative slack at which an audit entry fails
_BLOCK_ELEMS = 1 << 20  # float64 elements per row-block temporary


@dataclass
class Verdict:
    """Outcome of checking one result.

    ``problems`` is empty when the result passes.  ``distortion`` is the
    recomputed distortion of the certified map and ``ceiling`` the bound
    its certificate states for it; ``audit`` lists the
    result's (name, sense, measured, bound) entries; ``extra`` carries
    workload-specific facts (the certified lower bound, the split).
    """

    problems: list = field(default_factory=list)
    distortion: float = 0.0
    ceiling: float = math.inf
    audit: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _block_rows(pts, lo, hi):
    diff = pts[lo:hi, None, :] - pts[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def ratio_range(images, reference):
    """(min, max) over pairs i < j of |f(i) - f(j)| / d(i, j).

    ``reference`` is either an (n, n) distance matrix or an (n, k) point
    array whose Euclidean distances are the reference metric.
    """
    img = np.asarray(images, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    n = img.shape[0]
    if ref.shape[0] != n:
        raise ValueError(f"{n} images for {ref.shape[0]} reference points")
    is_matrix = ref.shape == (n, n)
    width = max(img.shape[1], 1 if is_matrix else ref.shape[1], 1)
    block = max(1, _BLOCK_ELEMS // (n * width))
    lo_ratio, hi_ratio = math.inf, -math.inf
    cols = np.arange(n)
    for lo in range(0, n - 1, block):
        hi = min(n, lo + block)
        num = _block_rows(img, lo, hi)
        den = ref[lo:hi] if is_matrix else _block_rows(ref, lo, hi)
        upper = cols[None, :] > np.arange(lo, hi)[:, None]
        r = num[upper] / den[upper]
        if r.size:
            lo_ratio = min(lo_ratio, float(r.min()))
            hi_ratio = max(hi_ratio, float(r.max()))
    return lo_ratio, hi_ratio


def audit_failures(entries):
    """Names of (name, sense, measured, bound) entries whose slack is
    below -AUDIT_REL * max(|bound|, 1)."""
    bad = []
    for name, sense, measured, bound in entries:
        slack = bound - measured if sense == "upper" else measured - bound
        if not slack >= -AUDIT_REL * max(abs(bound), 1.0):
            bad.append(name)
    return bad


def check_map(verdict, label, images, reference, ceiling):
    """Non-contraction and expansion <= ceiling for one map; returns its
    recomputed distortion and records any miss in ``verdict``."""
    lo, hi = ratio_range(images, reference)
    if not lo >= 1.0 - AUDIT_REL:
        verdict.problems.append(f"{label} contracts: min ratio {lo:.9g}")
    if not hi <= ceiling * (1.0 + AUDIT_REL):
        verdict.problems.append(
            f"{label} expansion {hi:.9g} above {ceiling:.9g}")
    return hi / lo if lo > 0.0 else math.inf


def check_embedding(points, dist, entries, ceiling):
    """A certified union embedding: every audit entry passes, the map is
    non-contracting, and its expansion stays under the headline bound."""
    verdict = Verdict(audit=list(entries), ceiling=ceiling)
    bad = audit_failures(verdict.audit)
    if bad:
        verdict.problems.append(f"audit entries fail: {', '.join(bad)}")
    verdict.distortion = check_map(verdict, "embedding", points, dist,
                                   ceiling)
    return verdict


def audit_of(embedding):
    """(name, sense, measured, bound) rows of a UnionEmbedding's audit."""
    return [(e.name, e.sense, e.measured, e.bound) for e in embedding.audit]


def slack_minima(audits):
    """Smallest relative slack per audit family (the name's last part)."""
    out = {}
    for name, sense, measured, bound in audits:
        slack = bound - measured if sense == "upper" else measured - bound
        rel = slack / max(abs(bound), 1.0)
        family = name.rsplit(".", 1)[-1]
        out[family] = min(out.get(family, math.inf), rel)
    return out
