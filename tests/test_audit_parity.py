"""Audit parity against a recorded oracle.

``data/audit_parity_oracle.json`` was recorded by running this file as a
script (``PYTHONPATH=src python tests/test_audit_parity.py``) on the
implementation that measured every cloud of ``embed_union`` with the
distance kernel, including the rescaled sides and the 511-coordinate
``full``.  Now ``full`` carries the sum of its summands' matrices and a
rescaled side carries scale**2 times its measured one, so the audit's
distances round differently by a few ulps, while the coordinates must
not move at all.  The points are compared by a hash of their bytes, so
the oracle holds for the numpy and LAPACK build it was recorded with.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from metric_union import (build_123_metric, embed_union,
                          mds_isometric_embed, sample_split, union_instance,
                          validate_metric)

ORACLE = Path(__file__).parent / "data" / "audit_parity_oracle.json"
# |measured - oracle| <= _REL * max(|oracle|, |bound|, 1), the scale at
# which AuditEntry.ok() judges an entry
_REL = 1e-14


def _cases():
    """(key, X, P, phi_a, phi_b): spectral splits at n = 64 and 256,
    seeds 0-2, with their MDS sides, then 20 union instances."""
    for n in (64, 256):
        for seed in range(3):
            X, P = build_123_metric(sample_split(n, seed))
            phi_a, phi_b = (mds_isometric_embed(validate_metric(X.sub(idx)))
                            for idx in (P.idx_a, P.idx_b))
            yield f"spectral/n={n}/seed={seed}", X, P, phi_a, phi_b
    for k in range(20):
        inst = union_instance(8 + 3 * k, 6 + 2 * k, 2 + k % 4, 2 + k % 3,
                              seed=100 + k, overlap=k % 4)
        yield (f"union/{k}", inst.space, inst.partition, inst.phi_a,
               inst.phi_b)


def _record(X, P, phi_a, phi_b):
    emb = embed_union(X, P, phi_a, phi_b)
    pts = np.ascontiguousarray(emb.full.points)
    return {"points": hashlib.sha256(pts.tobytes()).hexdigest(),
            "audit": [[e.name, bool(e.ok()), e.measured, e.bound]
                      for e in emb.audit]}


def test_audit_matches_recorded_oracle():
    oracle = json.loads(ORACLE.read_text(encoding="utf-8"))
    keys = []
    for key, *case in _cases():
        keys.append(key)
        got, want = _record(*case), oracle[key]
        assert got["points"] == want["points"], key
        assert [e[:2] for e in got["audit"]] == [e[:2] for e in want["audit"]]
        for (name, _, measured, bound), (_, _, m0, b0) in zip(got["audit"],
                                                              want["audit"]):
            assert bound == b0, (key, name)
            assert abs(measured - m0) <= _REL * max(abs(m0), abs(b0), 1.0), \
                (key, name, measured, m0)
    assert keys == list(oracle)


if __name__ == "__main__":
    json.dump({key: _record(*case) for key, *case in _cases()}, sys.stdout,
              indent=0)
    sys.stdout.write("\n")
