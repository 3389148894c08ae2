"""Batched stream seeding: bitwise the scalar per-address streams."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svycdf.errors import ParameterError
from svycdf.streams import substream, substreams

EDGE_INDICES = (0, 1, 2**31, 2**32 - 1)


@given(seed=st.integers(min_value=0, max_value=2**128),
       path=st.lists(st.integers(min_value=0, max_value=2**64), max_size=3),
       indices=st.lists(st.one_of(st.sampled_from(EDGE_INDICES),
                                  st.integers(min_value=0, max_value=2**32 - 1)),
                        min_size=1, max_size=6))
@example(seed=0, path=[], indices=list(EDGE_INDICES))
@example(seed=2**128, path=[2**64, 2**32 + 1, 0], indices=list(EDGE_INDICES))
@example(seed=2**127, path=[2**32 - 1], indices=[5, 5, 0])
@settings(max_examples=200, deadline=None)
def test_batch_streams_are_the_scalar_streams(seed, path, indices):
    for gen, j in zip(substreams(seed, path, indices), indices, strict=True):
        ref = substream(seed, *path, j)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.random(4), ref.random(4))


@pytest.mark.parametrize("indices", [[-1], [0, 2**32], [3, -1, 4], []],
                         ids=["minus-one", "two-to-32", "negative-inside", "empty"])
def test_bad_indices_are_refused(indices):
    with pytest.raises(ParameterError, match=r"\[0, 2\*\*32\)"):
        substreams(7, (1, 2), indices)


def test_batch_generator_does_not_spawn():
    gen = substreams(7, (1,), [3])[0]
    with pytest.raises(TypeError):
        gen.spawn(2)
