"""Audit entries: each re-measured inequality is one record.

An entry asserts measured <= bound (sense "upper") or measured >= bound
("lower") within its margin ``allow``; its witness is the extremal point
pair (space indices), or None for an aggregate check.  One rule judges
every entry, slack >= -allow, so a NaN measure fails, and one path raises
on failed entries, as the error of the layer that made them.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import CertificateViolation

__all__ = ["AuditEntry"]


@dataclass(frozen=True)
class AuditEntry:
    """One measured inequality; it passes when slack >= -allow."""

    name: str
    sense: str
    measured: float
    bound: float
    allow: float
    witness: tuple | None

    @property
    def slack(self):
        s = self.bound - self.measured
        return s if self.sense == "upper" else -s

    def ok(self):
        return self.slack >= -self.allow

    def as_dict(self):
        return dict(asdict(self), slack=self.slack, ok=bool(self.ok()),
                    witness=list(self.witness) if self.witness else None)


class Collector:
    """Entries in the order they are added.  An entry allows what its call
    gives, else ``rel * max(|bound|, 1)``."""

    def __init__(self, rel=0.0):
        self.rel = rel
        self.entries = []

    def add(self, name, sense, vals, pairs, bound, allow=None):
        # the max ("upper") or min ("lower") of vals, with its pair
        vals = np.asarray(vals, dtype=np.float64)
        if vals.size:
            k = int(np.argmax(vals) if sense == "upper" else np.argmin(vals))
            self.scalar(name, sense, vals[k], bound,
                        (int(pairs[0][k]), int(pairs[1][k])), allow)

    def scalar(self, name, sense, measured, bound, witness=None, allow=None):
        if allow is None:
            allow = self.rel * max(abs(bound), 1.0)
        self.entries.append(AuditEntry(name, sense, float(measured),
                                       float(bound), float(allow), witness))


def _certificate_violation(e):
    return CertificateViolation(e.name, e.witness, e.measured, e.bound)


def raise_failing(entries, error=_certificate_violation):
    """Raise ``error(entry)`` for a failing entry, a witnessed one when
    any fails with a witness, else the first; return when all pass."""
    bad = [e for e in entries if not e.ok()]
    if bad:
        raise error(next((e for e in bad if e.witness is not None), bad[0]))
