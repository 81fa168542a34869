"""The counter-based Philox4x64-10 generator in plain numpy.

``Philox(seed)`` draws the same words as numpy's
``np.random.Generator(np.random.Philox(key=seed))``: Philox4x64-10 (Salmon,
Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC11,
2011) is a pure function of a 256-bit counter and a 128-bit key, so a few
whole-array ``uint64`` passes reproduce numpy's stream bit for bit, from
any word on. A uniform draw, the only kind a config of uniform inputs
makes, then follows the published algorithm rather than numpy's
``Generator`` stream policy, and never imports ``numpy.random``, whose
``secrets`` → ``hashlib`` → OpenSSL chain costs about 6 MB of resident
memory. A normal draw hands the stream position to numpy's ziggurat and
reads it back.

numpy's word order: the key is ``(seed mod 2**64, seed >> 64)``; the counter
is incremented before each 4-word block, so block ``i`` of the stream is the
function of counter ``i + 1``; a draw that ends inside a block leaves the
block's other words to the next draw.
"""

from __future__ import annotations

import numpy as np

_MASK = 2**64 - 1
_LOW = 2**32 - 1
#: The round multipliers and the two words added to the key between rounds.
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10
#: Blocks computed per pass. A pass holds about 20 ``uint64`` temporaries of
#: this length, 0.6 MiB, whatever the size of the draw.
_CHUNK_BLOCKS = 4096


def _mulhi(m: int, c: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products ``m * c``, from 32-bit
    halves so that no partial product wraps."""
    m_lo, m_hi = m & _LOW, m >> 32
    c_lo, c_hi = c & _LOW, c >> 32
    lh, hl = m_lo * c_hi, m_hi * c_lo
    mid = ((m_lo * c_lo) >> 32) + (lh & _LOW) + (hl & _LOW)
    return m_hi * c_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _blocks(counters: np.ndarray, key: tuple[int, int]) -> np.ndarray:
    """The words of the blocks with the ``uint64`` ``counters``, as a
    ``(len(counters), 4)`` array, in passes of at most ``_CHUNK_BLOCKS``.
    A counter stays below ``2**64``, so its three high words are 0. The key
    schedule is kept in Python ``int``s masked to 64 bits: numpy scalar
    arithmetic warns on the wrap that whole arrays do silently."""
    words = np.empty((len(counters), 4), dtype=np.uint64)
    for lo in range(0, len(counters), _CHUNK_BLOCKS):
        c0 = counters[lo : lo + _CHUNK_BLOCKS]
        c1 = c2 = c3 = np.zeros(len(c0), dtype=np.uint64)
        k0, k1 = key
        for _ in range(_ROUNDS):
            hi0, lo0 = _mulhi(_M0, c0), c0 * _M0
            hi1, lo1 = _mulhi(_M1, c2), c2 * _M1
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0, k1 = (k0 + _W0) & _MASK, (k1 + _W1) & _MASK
        words[lo : lo + len(c0)] = np.stack([c0, c1, c2, c3], axis=1)
    return words


def uniform_columns(key: tuple[int, int], starts, bounds, columns) -> None:
    """Fill each of the float arrays ``columns`` with the draws that a
    :class:`Philox` of ``key`` at position ``starts[i]`` makes by
    ``uniform(*bounds[i], len(columns[i]))``, from one run of passes over
    the columns' counter ranges, concatenated."""
    ranges = [(p // 4 + 1, -(-(p % 4 + len(col)) // 4)) for p, col in zip(starts, columns)]
    counters = np.concatenate([np.arange(f, f + n, dtype=np.uint64) for f, n in ranges])
    words, at = _blocks(counters, key).ravel(), 0
    for p, (low, high), col, (_, count) in zip(starts, bounds, columns, ranges):
        # Generator.uniform: low + (high - low) * ((word >> 11) * 2**-53).
        low, high = float(low), float(high)
        mine = words[at + p % 4 : at + p % 4 + len(col)]
        col[:] = low + (high - low) * ((mine >> 11) * 2.0**-53)
        at += 4 * count


class Philox:
    """The stream of ``np.random.Generator(np.random.Philox(key=seed))``,
    ``0 <= seed < 2**128``, for the two draws that
    :meth:`~mfpce.orthopoly.VariableSpec.sample` makes.

    ``position`` is the number of words drawn so far: the next word is word
    ``position % 4`` of the block with counter ``position // 4 + 1``. A
    generator with the same key set to a position it once had draws the
    same words again from there.
    """

    def __init__(self, seed: int, position: int = 0):
        if not 0 <= seed < 2**128:
            raise ValueError(f"a Philox key is in [0, 2**128), got {seed}")
        self.key = (seed & _MASK, seed >> 64)
        self.position = position

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        """``size`` draws on ``[low, high)``, as ``Generator.uniform``, by
        :func:`uniform_columns` in pieces that span at most one pass."""
        out, piece = np.empty(size), 4 * (_CHUNK_BLOCKS - 1)
        for at in range(0, size, piece):
            column = out[at : at + piece]
            uniform_columns(self.key, [self.position], [(low, high)], [column])
            self.position += len(column)
        return out

    def normal(self, loc: float, scale: float, size: int) -> np.ndarray:
        """``size`` draws of ``N(loc, scale**2)``, as ``Generator.normal``."""
        out = np.empty(size)
        self.fill_normal(loc, scale, out, max(size, 1))
        return out

    def fill_normal(self, loc: float, scale: float, out: np.ndarray, block: int) -> list[int]:
        """Fill ``out`` with the draws of ``normal(loc, scale, len(out))``,
        ``block`` at a time, and return the position where each block
        starts. numpy's ziggurat draws a varying number of words, so it is
        run by numpy itself from this position, on one bit generator for
        all the blocks, whose position is read back before each block after
        the first and after the last; only here is ``numpy.random``
        imported. numpy's position is the last block computed, its words
        and the next of them to draw (4 when none is left)."""
        import numpy.random

        bits = numpy.random.Philox(key=self.key[0] | self.key[1] << 64)
        state = bits.state
        counter = -(-self.position // 4)
        buffer_pos = self.position - 4 * (counter - 1)
        if buffer_pos < 4:
            state["buffer"] = _blocks(np.array([counter], dtype=np.uint64), self.key)[0]
        state["state"]["counter"][0] = counter
        state["buffer_pos"] = buffer_pos
        bits.state = state

        def position() -> int:
            state = bits.state
            return 4 * (int(state["state"]["counter"][0]) - 1) + int(state["buffer_pos"])

        draw, marks = numpy.random.Generator(bits).normal, []
        for start in range(0, len(out), block):
            marks.append(position() if start else self.position)
            rows = out[start : start + block]
            rows[...] = draw(loc, scale, len(rows))
        self.position = position()
        return marks
