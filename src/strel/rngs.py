"""Counter-based deterministic RNG streams.

Every random draw in the package comes from a stream keyed by a user seed
plus a tuple of purpose tags (strings and counters).  Identical keys yield
identical streams, so exact resume needs no serialized RNG state: the seed
and the iteration counters are the state.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _tag_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    return zlib.crc32(str(tag).encode("utf-8")) & _MASK32


def stream(seed: int, *tags) -> np.random.Generator:
    """Generator for the stream keyed by ``(seed, *tags)``.

    The entropy is the ``uint32`` array that ``SeedSequence`` derives from
    the list ``[seed, *tags]``: each value's 32-bit words, least significant
    first, with a zero as one word.  Passing the array skips numpy's coercion
    of the list element by element and seeds the same stream.
    """
    words = []
    for value in (int(seed) & _MASK64, *map(_tag_int, tags)):
        words += (value & _MASK32, value >> 32) if value >> 32 else (value,)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))
