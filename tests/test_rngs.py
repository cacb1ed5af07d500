import zlib

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from strel.rngs import stream, streams

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


def test_streams_cross_derivation_blocks():
    keys = range(-3, 600)  # more than two blocks of keys
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
