"""The plain-numpy Philox4x64-10 draws the bits of numpy's
``Generator(Philox(key=seed))``, word for word, from any position, and
holds one chunk of blocks at a time; points redrawn block by block from
the positions recorded by a whole draw are that draw's, bit for bit."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from mfpce.orthopoly import OUTER_POINTS, Normal, RedrawnPoints, Uniform, VariableSpec
from mfpce.philox import _CHUNK_BLOCKS, Philox, uniform_columns

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
    1 MiB with the chunk's counters and its words. One pass over all 250,000
    blocks would add 28 MB."""
    assert 25 * 8 * _CHUNK_BLOCKS <= 2**20
    rng = Philox(7)
    tracemalloc.start()
    try:
        out = rng.uniform(0.0, 1.0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 * 10**6
    assert peak < out.nbytes + 2**20


def numpy_position(bits: np.random.Philox) -> int:
    """The words that numpy's bit generator ``bits`` has drawn: its last
    block computed, less the words of it not yet drawn."""
    state = bits.state
    return 4 * (int(state["state"]["counter"][0]) - 1) + int(state["buffer_pos"])


@pytest.mark.parametrize("first", [0, 1, 2, 3, 4, 6, 100_001])
def test_position_is_the_words_numpy_drew(first):
    """After each draw, uniform or normal, at the stream's start, inside a
    block or on its end, the position is the count of words that numpy's
    generator has taken for the same draws."""
    ours, bits = Philox(19), np.random.Philox(key=19)
    theirs = np.random.Generator(bits)
    for draw, size in [("uniform", first), ("normal", 1000), ("uniform", 11), ("normal", 3)]:
        assert_same_bits(getattr(ours, draw)(0.0, 1.0, size), getattr(theirs, draw)(0.0, 1.0, size))
        assert ours.position == numpy_position(bits)


#: Bounds of each column below, and starting words that cover every
#: offset in a block. Five columns of 4,096 draws span 1,024 + 4 * 1,025
#: counters, more than one pass of ``_CHUNK_BLOCKS``.
BOUNDS = [(-3.0, 3.0), (0.0, 1.0), (2.5, 7.0), (-np.pi, np.pi), (-1e3, 1e-3)]
STARTS = [0, 5, 4098, 40_003, 123_456_789]


@pytest.mark.parametrize("key", [7, 2**64 + 5, 2**128 - 1])
def test_uniform_columns_start_at_any_word(key):
    """Each column is numpy's draw after ``STARTS[i]`` words, bit for bit,
    and a stream :class:`Philox` set to that position draws it too."""
    assert sorted(p % 4 for p in STARTS[:4]) == [0, 1, 2, 3]
    assert 1024 + 4 * 1025 > _CHUNK_BLOCKS
    columns = np.empty((len(STARTS), 4096))
    uniform_columns(Philox(key).key, STARTS, BOUNDS, list(columns))
    for column, start, (low, high) in zip(columns, STARTS, BOUNDS):
        bits = np.random.Philox(key=key)
        bits.advance(start // 4)
        bits.random_raw(start % 4)
        want = np.random.Generator(bits).uniform(low, high, 4096)
        assert_same_bits(column, want)
        assert_same_bits(Philox(key, start).uniform(low, high, 4096), want)


def uniform(a, b):
    return VariableSpec("u", Uniform(a, b))


def normal(mu, sigma):
    return VariableSpec("g", Normal(mu, sigma))


#: Uniform inputs alone, normal ones alone, the one normal input after two
#: uniform ones, and a uniform input whose words start wherever the
#: ziggurat before it ended.
SPECS = {
    "uniform": [uniform(-math.pi, math.pi)] * 3,
    "normal": [normal(0.0, 1.0), normal(5.0, 0.5)],
    "one_normal": [uniform(-3.0, 3.0), uniform(-3.0, 3.0), normal(0.0, 1.0)],
    "normal_first": [normal(1.0, 2.0), uniform(2.0, 6.0)],
}


@pytest.mark.parametrize("count", [1, 4095, 4097, 10_001])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_redrawn_blocks_are_the_whole_draw(name, count):
    """:meth:`RedrawnPoints.whole` draws numpy's points, and each block
    redrawn from its marks, last block first, is its rows, bit for bit.
    Redrawing moves no mark, and the whole draw can be made again."""
    specs, key = SPECS[name], 2**64 + 5
    rng = np.random.Generator(np.random.Philox(key=key))
    want = np.column_stack([spec.sample(rng, count) for spec in specs])
    points = RedrawnPoints(specs, key, count)
    assert len(points) == count and points.shape == want.shape
    assert_same_bits(points.whole(), want)
    marks = copy.deepcopy(points.marks)
    for start in reversed(range(0, count, OUTER_POINTS)):
        stop = min(start + OUTER_POINTS, count)
        assert_same_bits(points.block(start, stop), want[start:stop])
    assert points.marks == marks
    assert_same_bits(points.whole(), want)
    assert points.marks == marks


def test_a_block_needs_its_marks_and_its_bounds():
    points = RedrawnPoints(SPECS["one_normal"], 3, 5000)
    with pytest.raises(ValueError, match="whole"):
        points.block(0, OUTER_POINTS)
    points.whole()
    for start, stop in [(1, 2), (0, OUTER_POINTS + 1), (OUTER_POINTS, 5001), (0, 0)]:
        with pytest.raises(ValueError, match="no block"):
            points.block(start, stop)


def test_numpy_reads_the_shape_without_drawing():
    """``np.atleast_2d`` sees the points' shape, as NaN in one float, and
    draws no point."""
    points = RedrawnPoints(SPECS["uniform"], 3, 10_001)
    wrapped = np.atleast_2d(points)
    assert wrapped.shape == (10_001, 3) and len(wrapped) == len(points)
    assert np.isnan(wrapped).all() and wrapped.strides == (0, 0)
    assert points.marks is None
