"""Counter-based deterministic RNG streams.

Every random draw in the package comes from a stream keyed by a user seed
plus a tuple of purpose tags (strings and counters).  Identical keys yield
identical streams, so exact resume needs no serialized RNG state: the seed
and the iteration counters are the state.

``stream(seed, *tags)`` seeds one generator through numpy's ``SeedSequence``:
an entropy mix into a 4-word pool, then ``generate_state``'s output hash.
``streams`` (many keys of one stream family) and ``children`` (numpy's
spawned children) yield generators in the same states, but run the mix
(``_mix``, mirroring ``mix_entropy`` in numpy/random/bit_generator.pyx) and
the hash (``_state``) as ``uint32`` ufuncs over a block of keys, and build
each ``PCG64`` from its key's words when the generator is consumed.  The
ufunc calls cost nearly as much for 20 keys as for 2,000, so a single key
stays on numpy.  ``tests/test_rngs.py`` pins both mirrors against numpy.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Iterable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# mix_entropy's constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _MIX_MULT_L, _MIX_MULT_R = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD, 0x4973F715
_POOL = 4
# generate_state's running hash constant before each of the 8 words and
# after the last one: INIT_B * MULT_B**i mod 2**32
_HASH = np.array([0x8B51F9DD * 0x58F38DED**i & _MASK32 for i in range(9)], dtype=np.uint32)
_BLOCK = 2048  # keys derived together: a default epoch's Gumbel keys, or all scenes


def _tag_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    return zlib.crc32(str(tag).encode("utf-8")) & _MASK32


def _int_words(value: int) -> list[int]:
    """A non-negative int's ``uint32`` words, least significant first, as numpy splits it."""
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _words(seed: int, tags: tuple) -> list[int]:
    """The ``uint32`` entropy ``SeedSequence`` derives from ``[seed, *tags]``."""
    return [w for v in (int(seed) & _MASK64, *map(_tag_int, tags)) for w in _int_words(v)]


def stream(seed: int, *tags) -> np.random.Generator:
    """Generator for the stream keyed by ``(seed, *tags)``; the entropy goes
    in as ``uint32`` words, which numpy seeds as it would the list ``[seed, *tags]``."""
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


def _mix_hash(n_words: int) -> np.ndarray:
    """mix_entropy's hash constant before each hashmix call and after the last, as a column."""
    n_calls = _POOL * max(n_words, _POOL)
    return np.array([[_INIT_A * _MULT_A**i & _MASK32] for i in range(n_calls + 1)], np.uint32)


def _hashmix(value: np.ndarray, hash_: np.ndarray) -> np.ndarray:
    value = value ^ hash_[:-1]
    value *= hash_[1:]
    return value ^ (value >> 16)


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L)
    result -= y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> 16)


def _mix(entropy: np.ndarray) -> np.ndarray:
    """The pool of each row of an ``(n_keys, n_words)`` ``uint32`` matrix,
    computed with the pool words as rows."""
    n_words, hash_ = entropy.shape[1], _mix_hash(entropy.shape[1])
    pool = np.zeros((_POOL, len(entropy)), dtype=np.uint32)  # short entropy hashes zeros
    pool[: min(n_words, _POOL)] = entropy[:, :_POOL].T
    pool, call = _hashmix(pool, hash_[: _POOL + 1]), _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mixed(pool[dst], _hashmix(pool[src], hash_[call : call + _POOL]))
        call += _POOL - 1
    for src in range(_POOL, n_words):  # each further word mixes into every pool word
        pool = _mixed(pool, _hashmix(entropy[:, src], hash_[call : call + _POOL + 1]))
        call += _POOL
    return pool.T


def _pools(words: np.ndarray, present: np.ndarray) -> np.ndarray:
    """The pool of each row's entropy ``words[i][present[i]]``."""
    n_words, pools = present.sum(axis=1), np.empty((len(words), _POOL), dtype=np.uint32)
    for count in set(n_words.tolist()):  # np.unique would import numpy.ma, ≈1 MB
        rows = np.flatnonzero(n_words == count)
        pools[rows] = _mix(words[rows][present[rows]].reshape(len(rows), count))
    return pools


def _state(pools: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each pool."""
    state = np.tile(pools, 2) ^ _HASH[:-1]
    state *= _HASH[1:]
    state ^= state >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _states(prefix: list[int], values: np.ndarray) -> np.ndarray:
    """The state words of each row of ``uint64`` ``values``, keyed by the
    entropy ``prefix`` and then each value's one or two words."""
    p, hi = len(prefix), values >> 32
    words = np.empty((len(values), p + 2 * values.shape[1]), dtype=np.uint32)
    words[:, :p], words[:, p::2], words[:, p + 1 :: 2] = prefix, values & _MASK32, hi
    present = np.ones(words.shape, dtype=bool)
    present[:, p + 1 :: 2] = hi != 0
    return _state(_pools(words, present))


def _generators(prefix: list[int], values: np.ndarray) -> Iterator[np.random.Generator]:
    for i in range(0, len(values), _BLOCK):  # a suspended frame holds one block's states
        for state_words in _states(prefix, values[i : i + _BLOCK]):
            yield np.random.Generator(np.random.PCG64(_StateWords(state_words)))


def _key_values(keys: Iterable) -> np.ndarray:
    """Integer keys or key tuples as rows of ``uint64``, reduced as ``_tag_int`` does."""
    rows = [[int(v) & _MASK64 for v in (k if isinstance(k, tuple) else (k,))] for k in keys]
    return np.array(rows, dtype=np.uint64)


def streams(seed: int, *tags, keys: Iterable) -> Iterator[np.random.Generator]:
    """The generators of ``stream(seed, *tags, *k)`` for each ``k`` in
    ``keys``, in order, each a new and independent generator.

    A key is an integer or a tuple of integers, all of one length; an
    integer array's rows are keys.  Keys are derived ``_BLOCK`` at a time as
    the iterator is advanced.  A generator's ``bit_generator.seed_seq`` holds
    only its state words, so it cannot ``spawn``.
    """
    prefix = _words(seed, tags)
    if isinstance(keys, np.ndarray):  # the cast wraps negatives mod 2**64 as _tag_int does
        keys = keys.astype(np.uint64)
        yield from _generators(prefix, keys[:, None] if keys.ndim == 1 else keys)
        return
    keys = iter(keys)
    while len(values := _key_values(itertools.islice(keys, _BLOCK))):
        yield from _generators(prefix, values)


def children(seed: int, spawn_key: tuple, n: int) -> Iterator[np.random.Generator]:
    """The generators ``np.random.default_rng(c)`` of the children ``c`` of
    ``np.random.SeedSequence(seed, spawn_key=spawn_key).spawn(n)``: each
    keyed by the seed's words, zero-padded to the pool size as
    ``get_assembled_entropy`` pads them, then those of ``(*spawn_key, i)``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    prefix = _int_words(int(seed))
    prefix += [0] * (_POOL - len(prefix)) + [w for v in spawn_key for w in _int_words(int(v))]
    return _generators(prefix, np.arange(n, dtype=np.uint64)[:, None])
