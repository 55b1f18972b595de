"""Deterministic random streams.

Every random draw in the package flows through ``stream(seed, name, index)``,
a counter-based (Philox) generator keyed by the user seed, a stable hash of
the purpose name, and a sample index.  Streams are independent of draw order
and of each other, which is what makes reports byte-reproducible.
"""

import zlib

import numpy as np

from .errors import InputError

__all__ = ["stream"]


def _name_key(name: str) -> int:
    # crc32 is stable across platforms and Python versions
    return zlib.crc32(name.encode("utf-8"))


def stream(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Return a fresh Generator for (seed, name, index).

    Same triple, same stream, regardless of how many other streams were
    consumed before it.  A seed outside [0, 2**64) raises InputError.
    """
    if not (0 <= int(seed) < 2 ** 64):
        raise InputError(f"seed must be an unsigned 64-bit integer, "
                         f"got {seed!r}")
    ss = np.random.SeedSequence((int(seed), _name_key(name), int(index)))
    return np.random.Generator(np.random.Philox(ss))
