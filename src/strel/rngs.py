"""Counter-based deterministic RNG streams.

Every random draw in the package comes from a stream keyed by a user seed
plus a tuple of purpose tags (strings and counters).  Identical keys yield
identical streams, so exact resume needs no serialized RNG state: the seed
and the iteration counters are the state.

``stream(seed, *tags)`` builds one generator: numpy's ``SeedSequence``
mixes the key's entropy words into a 4-word pool, ``generate_state`` hashes
the pool into four ``uint64`` words (a Python loop, ≈8 µs), and ``PCG64``
seeds itself from them.  ``streams(seed, *tags, keys=ks)`` yields the
generators of ``stream(seed, *tags, k)`` for many trailing keys, in the same
states, for the hot loops: it keeps numpy's own ``SeedSequence`` mix per key
and reads its ``pool``, runs ``generate_state(4, np.uint64)``'s output hash
for a block of keys at once as four ``uint32`` ufuncs, and hands each key's
words to ``PCG64`` through numpy's ``ISeedSequence`` interface, so that
PCG64's own seeding runs.  ``tests/test_rngs.py`` pins the mirrored hash:
each generator's ``bit_generator.state`` equals ``stream``'s for its key.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Iterable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# generate_state's running hash constant before each of the 8 words and
# after the last one: INIT_B * MULT_B**i mod 2**32 (numpy/random/bit_generator.pyx)
_HASH = np.array([0x8B51F9DD * 0x58F38DED**i & _MASK32 for i in range(9)], dtype=np.uint32)
_BLOCK = 256  # keys hashed together; bounds the memory of a long key range


def _tag_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    return zlib.crc32(str(tag).encode("utf-8")) & _MASK32


def _words(seed: int, tags: tuple) -> list[int]:
    """The ``uint32`` entropy that ``SeedSequence`` derives from the list
    ``[seed, *tags]``: each value's 32-bit words, least significant first,
    with a zero as one word."""
    words = []
    for value in (int(seed) & _MASK64, *map(_tag_int, tags)):
        words += (value & _MASK32, value >> 32) if value >> 32 else (value,)
    return words


def stream(seed: int, *tags) -> np.random.Generator:
    """Generator for the stream keyed by ``(seed, *tags)``.

    Passing the entropy as a ``uint32`` array skips numpy's coercion of the
    list ``[seed, *tags]`` element by element and seeds the same stream.
    """
    entropy = np.array(_words(seed, tags), dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class _StateWords(ISeedSequence):
    """A seed sequence that holds only the words ``generate_state`` returns."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"holds {len(self.words)} {self.words.dtype} words")
        return self.words


def streams(seed: int, *tags, keys: Iterable) -> Iterator[np.random.Generator]:
    """The generators of ``stream(seed, *tags, k)`` for each integer ``k``
    in ``keys``, in order, each a new and independent generator.

    Keys are derived ``_BLOCK`` at a time as the iterator is advanced.  A
    generator's ``bit_generator.seed_seq`` holds only its state words, so it
    cannot ``spawn``.
    """
    prefix = _words(seed, tags)
    keys = iter(keys)
    while block := list(itertools.islice(keys, _BLOCK)):
        entropy = (np.array(prefix + _words(k, ()), dtype=np.uint32) for k in block)
        pools = np.array([np.random.SeedSequence(e).pool for e in entropy])
        state = np.tile(pools, 2) ^ _HASH[:-1]
        state *= _HASH[1:]
        state ^= state >> 16
        for words in state.astype("<u4").view("<u8").astype(np.uint64):
            yield np.random.Generator(np.random.PCG64(_StateWords(words)))
