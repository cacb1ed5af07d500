import zlib

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from strel import rngs
from strel.rngs import children, stream, streams

MAX64 = 2**64 - 1
TAG = st.one_of(st.integers(0, MAX64), st.text(max_size=12))


def listed_entropy(seed, tags):
    """The entropy list of ``(seed, *tags)``, for numpy to coerce itself."""
    return [seed] + [t if isinstance(t, int) else zlib.crc32(t.encode("utf-8")) for t in tags]


@given(st.integers(0, MAX64), st.lists(TAG, max_size=4))
@example(0, [])
@example(0, [0])
@example(MAX64, [2**32, "gumbel", 0])
def test_stream_seeds_as_the_entropy_list(seed, tags):
    expected = np.random.default_rng(np.random.SeedSequence(listed_entropy(seed, tags)))
    assert stream(seed, *tags).bit_generator.state == expected.bit_generator.state


KEY = st.integers(-(2**64), MAX64)


@given(st.integers(0, MAX64), st.lists(TAG, max_size=3), st.lists(KEY, max_size=6))
@example(0, [], [])
@example(MAX64, ["gumbel", 2**33], [0, 2**32 - 1, 2**32, MAX64, -1, -(2**40)])
def test_streams_equal_stream_key_by_key(seed, tags, keys):
    """``streams`` mirrors ``SeedSequence.generate_state``'s output hash; a
    numpy that changes it fails here."""
    batched = [rng.bit_generator.state for rng in streams(seed, *tags, keys=keys)]
    assert batched == [stream(seed, *tags, k).bit_generator.state for k in keys]


@given(st.integers(0, MAX64), st.lists(TAG, max_size=2), st.lists(st.tuples(KEY, KEY), max_size=5))
@example(5, ["gumbel"], [(0, 0), (3, 2**32), (2**40, -1), (MAX64, 7)])
def test_tuple_keys_equal_stream_with_the_key_spread(seed, tags, keys):
    batched = [rng.bit_generator.state for rng in streams(seed, *tags, keys=keys)]
    assert batched == [stream(seed, *tags, *k).bit_generator.state for k in keys]


def test_integer_array_rows_are_tuple_keys():
    keys = np.array([[0, 7], [3, -2], [2**40, 2**33], [-(2**62), 0]], dtype=np.int64)
    batched = [rng.bit_generator.state for rng in streams(4, "gumbel", keys=keys)]
    assert batched == [stream(4, "gumbel", *k).bit_generator.state for k in keys.tolist()]


def assembled(entropy, spawn_key):
    """numpy's assembled entropy: the entropy words, zero-padded to the pool
    size when a spawn key follows, then each spawn key value's words."""
    words = list(entropy) + [0] * (4 - len(entropy) if spawn_key else 0)
    for value in spawn_key:
        words += [value & 0xFFFFFFFF] + ([value >> 32] if value >> 32 else [])
    return words


WORDS = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=9)
SPAWN_KEY = st.lists(st.integers(0, MAX64), max_size=3)


@given(st.lists(st.tuples(WORDS, SPAWN_KEY), min_size=1, max_size=6))
@example([([1], []), ([0], [0]), ([1, 2, 3, 4, 5, 6, 7, 8, 9], [2**32, 0, MAX64]), ([7] * 4, [])])
def test_mix_equals_seed_sequence_pool(keys):
    """Keys of mixed word counts in one block each get ``SeedSequence``'s
    pool; a numpy that changes its entropy mix fails here."""
    rows = [assembled(entropy, spawn_key) for entropy, spawn_key in keys]
    words = np.zeros((len(rows), max(map(len, rows))), dtype=np.uint32)
    present = np.zeros(words.shape, dtype=bool)
    for i, row in enumerate(rows):
        words[i, : len(row)], present[i, : len(row)] = row, True
    for pool, (entropy, spawn_key) in zip(rngs._pools(words, present), keys):
        expected = np.random.SeedSequence(np.array(entropy, dtype=np.uint32), spawn_key=spawn_key)
        assert pool.tolist() == expected.pool.tolist()


@given(st.integers(0, 2 ** (32 * 9) - 1), SPAWN_KEY, st.integers(0, 4))
@example(20240817, [1], 3)
@example(0, [], 1)
def test_children_equal_numpy_spawned_children(seed, spawn_key, n):
    """Seeds of 1–9 words; a child's spawn key is ``(*spawn_key, i)``."""
    spawned = np.random.SeedSequence(seed, spawn_key=spawn_key).spawn(n)
    expected = [np.random.default_rng(child).bit_generator.state for child in spawned]
    assert [rng.bit_generator.state for rng in children(seed, tuple(spawn_key), n)] == expected


def test_scene_generators_equal_numpy_spawn():
    """``synthgen.generate``'s scene generators, over more than one block."""
    n = rngs._BLOCK + 100
    scene_root = np.random.SeedSequence(20240817).spawn(2)[1]
    expected = [np.random.default_rng(seq).bit_generator.state for seq in scene_root.spawn(n)]
    assert [rng.bit_generator.state for rng in children(20240817, (1,), n)] == expected


def test_streams_cross_derivation_blocks():
    keys = range(-3, 2 * rngs._BLOCK + 5)  # more than two blocks of keys
    batched = list(streams(7, "bg-downsample", keys=keys))
    assert len(batched) == len(keys)
    for rng, k in zip(batched, keys):
        assert rng.random() == stream(7, "bg-downsample", k).random()


def test_streams_share_no_state():
    """Drawing from one batched generator moves neither its siblings nor a
    generator built by ``stream``."""
    first, second = streams(3, "gumbel", 1, keys=[10, 11])
    reference = stream(3, "gumbel", 1, 11)
    before = reference.bit_generator.state
    first.random(1000)
    assert reference.bit_generator.state == before
    assert second.bit_generator.state == before
    assert np.array_equal(second.random(5), reference.random(5))
