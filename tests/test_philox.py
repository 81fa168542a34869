"""The plain-numpy Philox4x64-10 draws the bits of numpy's
``Generator(Philox(key=seed))``, word for word, and holds one chunk of
blocks at a time."""

import tracemalloc

import numpy as np
import pytest

from mfpce.philox import _CHUNK_BLOCKS, Philox

#: Keys from both ends of each 64-bit word, up to ``2**128 - 1``, the top
#: seed that ``config.seed_value`` accepts.
KEYS = [0, 1, 7, 19, 2**64 - 1, 2**64 + 5, 2**127 + 3, 2**128 - 1]


def numpy_generator(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("key", KEYS)
def test_sequential_uniform_draws_match_numpy(key):
    """Draws of uneven sizes, each starting where the last one ended inside
    a block, and one of them longer than a chunk."""
    ours, theirs = Philox(key), numpy_generator(key)
    bounds = [(0, 1), (-3, 3), (2.5, 7.0), (-1e3, 1e-3), (-np.pi, np.pi)]
    for size, (low, high) in zip([1, 3, 6, 17, 100_001], bounds):
        assert_same_bits(ours.uniform(low, high, size), theirs.uniform(low, high, size))


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("first", [0, 1, 3, 4, 6, 100_001])
def test_normal_draws_continue_the_stream(key, first):
    """Uniform, then 1,000 normals by numpy's ziggurat, then uniform again:
    the position goes to numpy and back, at the stream's start, inside a
    block or on its end."""
    ours, theirs = Philox(key), numpy_generator(key)
    assert_same_bits(ours.uniform(-3.0, 3.0, first), theirs.uniform(-3.0, 3.0, first))
    assert_same_bits(ours.normal(5.0, 0.5, 1000), theirs.normal(5.0, 0.5, 1000))
    assert_same_bits(ours.uniform(0.0, 1.0, 11), theirs.uniform(0.0, 1.0, 11))


def test_empty_draw_keeps_the_position():
    ours, theirs = Philox(3), numpy_generator(3)
    assert_same_bits(ours.uniform(0.0, 1.0, 2), theirs.uniform(0.0, 1.0, 2))
    assert ours.uniform(0.0, 1.0, 0).shape == (0,)
    assert_same_bits(ours.uniform(0.0, 1.0, 5), theirs.uniform(0.0, 1.0, 5))


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_a_key_outside_128_bits_is_refused(seed):
    with pytest.raises(ValueError, match="Philox key"):
        Philox(seed)


def test_working_memory_is_one_chunk():
    """10**6 draws peak at their 8 MB output plus one chunk's temporaries:
    about 20 ``uint64`` arrays of ``_CHUNK_BLOCKS`` words, bounded here by
    1 MiB. One pass over all 250,000 blocks would add 28 MB."""
    assert 20 * 8 * _CHUNK_BLOCKS <= 2**20
    rng = Philox(7)
    tracemalloc.start()
    try:
        out = rng.uniform(0.0, 1.0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 * 10**6
    assert peak < out.nbytes + 2**20
