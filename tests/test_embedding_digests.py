"""Embeddings pinned bit for bit by a recorded digest.

``data/embedding_digests.json`` holds, per case, the sha256 of
``canonical_dumps(emb.as_dict())``: coordinates, report, every audit
entry with its measured value, bound, allow and witness, and the
parameters.  It was recorded by running this file as a script
(``PYTHONPATH=src python tests/test_embedding_digests.py``).  Unlike
``test_audit_parity`` (1e-14 on measured values, no witnesses), a digest
moves when any witness moves on a tie, so a change of pair order or of a
gathered distance shows here.  Like that oracle, the digests hold for the
numpy and LAPACK build they were recorded with.
"""

import hashlib
import json
import sys
from pathlib import Path

from metric_union import (EmbedParams, canonical_dumps, embed_union,
                          external_extend, sample_glue_instance, stream,
                          union_instance)
from metric_union.acceptance import _Context

DIGESTS = Path(__file__).parent / "data" / "embedding_digests.json"


def _battery():
    """The selftest's 50-instance battery at alpha = 1/2."""
    params = EmbedParams.derive(0.5, 1.0, 1.0)
    for k, inst in enumerate(_Context(0).battery):
        yield f"battery/{k}", lambda i=inst: embed_union(
            i.space, i.partition, i.phi_a, i.phi_b, params=params)


def _glue():
    """The benchmark's 40 glue instances at seed 0: sizes and wobble drawn
    from seed 0's ``bench.glue`` stream, point sets from seed k."""
    for k in range(40):
        rng = stream(0, "bench.glue", k)
        G = sample_glue_instance(
            int(rng.integers(40, 121)), int(rng.integers(40, 121)),
            int(rng.integers(40, 121)), int(rng.integers(2, 6)),
            int(rng.integers(2, 6)), seed=k,
            wobble=float(rng.uniform(0.0, 0.5)))
        yield f"glue/{k}", lambda g=G: external_extend(g).embedding


def _overlap():
    """``test_audit_parity``'s 20 union instances, overlaps 0-3."""
    for k in range(20):
        inst = union_instance(8 + 3 * k, 6 + 2 * k, 2 + k % 4, 2 + k % 3,
                              seed=100 + k, overlap=k % 4)
        yield f"union/{k}", lambda i=inst: embed_union(
            i.space, i.partition, i.phi_a, i.phi_b)


def _cases():
    yield from _battery()
    yield from _glue()
    yield from _overlap()


def _digest(emb):
    return hashlib.sha256(
        canonical_dumps(emb.as_dict()).encode("utf-8")).hexdigest()


def test_embeddings_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = {key: _digest(run()) for key, run in _cases()}
    assert list(got) == list(recorded)
    assert [k for k in got if got[k] != recorded[k]] == []


if __name__ == "__main__":
    json.dump({key: _digest(run()) for key, run in _cases()}, sys.stdout,
              indent=0)
    sys.stdout.write("\n")
