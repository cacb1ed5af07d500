import zlib

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from strel.rngs import stream

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
