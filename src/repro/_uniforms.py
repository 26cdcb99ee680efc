"""Arrays of ``Pcg64.random()`` draws: numpy's ``Generator.random`` stream.

The array engines (fluid stepping, the batch engine and its oracle) draw
from the same stdlib :class:`repro.net.rand.Pcg64` as the packet DES, so no
process loads ``numpy.random``. :func:`fill_random` computes the LCG states
of a chunk of draws at once instead of one after the other. After ``i``
steps from state ``s``,

    ``s_i = a^i s + (1 + a + ... + a^(i-1)) c = s + G_i ((a - 1) s + c)``

(mod 2**128), because ``(a - 1) G_i = a^i - 1``. ``G_1 .. G_CHUNK`` depend on
nothing but PCG's multiplier, so one shared table serves every generator,
and a chunk costs one 128-bit product of that table with a scalar, done in
32-bit limbs so no uint64 product overflows. The outputs are then numpy's:
XSL-RR, the top 53 bits, times 2**-53.

That is ~6x numpy's cost per value, so :class:`UniformBlocks` (the fluid
engine's loss rows) draws a block only once a row of it is read and jumps
over rows nobody reads with :meth:`Pcg64.advance`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.net.rand import MULT

__all__ = ["UniformBlocks", "fill_random"]

#: Draws per table-driven chunk; the three tables are 96 KiB.
CHUNK = 4096
#: Below this many draws, Python's one-at-a-time ``random()`` (~0.49 us a
#: value) is cheaper than a chunk's fixed cost of ~30 numpy calls (~23 us):
#: the two cross at 48 (docs/measurements/pr25_e2e_pairs.txt).
_SCALAR_BELOW = 48

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1


def _tables():
    """``G_i`` for i = 1..CHUNK as (low word's low limb, low word's high
    limb, high word), each a uint64 array."""
    g, low, high = 0, [], []
    for _ in range(CHUNK):
        g = (g * MULT + 1) & _M128
        low.append(g & _M64)
        high.append(g >> 64)
    low = np.array(low, dtype=np.uint64)
    return low & _M32, low >> 32, np.array(high, dtype=np.uint64)


_G0, _G1, _GHI = _tables()


def fill_random(rng, out: np.ndarray) -> np.ndarray:
    """Write the next ``out.size`` draws of ``rng.random()`` into the
    contiguous float64 array ``out`` and return it — what
    ``default_rng(seed).random(out=out)`` writes, leaving ``rng`` where
    that leaves its bit generator."""
    flat = out.reshape(-1)
    n = flat.size
    if n < _SCALAR_BELOW:
        draw = rng.random
        flat[:] = [draw() for _ in range(n)]
        return out
    width = min(n, CHUNK)
    p00, p01, p10, hi, t, u = (np.empty(width, dtype=np.uint64) for _ in range(6))
    s, inc = rng._state, rng._inc
    for start in range(0, n, CHUNK):
        k = min(CHUNK, n - start)
        if k < width:
            p00, p01, p10, hi, t, u = (a[:k] for a in (p00, p01, p10, hi, t, u))
        g0, g1 = _G0[:k], _G1[:k]
        d = ((MULT - 1) * s + inc) & _M128
        d_lo, d_hi = d & _M64, d >> 64
        b0, b1 = d_lo & _M32, d_lo >> 32
        s_lo = s & _M64
        # Low 128 bits of G_lo * d_lo + s_lo from 32x32-bit products (each
        # partial sum stays below 2**64), then the cross terms mod 2**64.
        np.multiply(g0, b0, out=p00)
        np.add(p00, s_lo & _M32, out=p00)
        np.multiply(g0, b1, out=p01)
        np.multiply(g1, b0, out=p10)
        # g1 * (b1 + d_hi * 2**32) is g1 * b1 plus g1's share of G_lo * d_hi.
        np.multiply(g1, (b1 + (d_hi << 32)) & _M64, out=hi)
        np.right_shift(p00, 32, out=t)
        np.add(t, p10, out=t)
        np.add(t, s_lo >> 32, out=t)
        np.bitwise_and(t, _M32, out=u)
        np.add(u, p01, out=u)
        np.right_shift(t, 32, out=t)
        np.add(hi, t, out=hi)
        np.right_shift(u, 32, out=t)
        np.add(hi, t, out=hi)
        np.left_shift(u, 32, out=u)
        np.bitwise_and(p00, _M32, out=p00)
        lo = np.bitwise_or(p00, u, out=p00)
        np.multiply(g0, d_hi, out=t)
        np.add(hi, t, out=hi)
        np.multiply(_GHI[:k], d_lo, out=t)
        np.add(hi, t, out=hi)
        np.add(hi, s >> 64, out=hi)
        s = int(hi[-1]) << 64 | int(lo[-1])
        # XSL-RR: (hi ^ lo) rotated right by hi's top six bits (a shift by
        # 64 is 0 in numpy, so rotation 0 needs no case of its own).
        x = np.bitwise_xor(hi, lo, out=t)
        rot = np.right_shift(hi, 58, out=hi)
        np.right_shift(x, rot, out=u)
        np.subtract(64, rot, out=rot)
        np.left_shift(x, rot, out=x)
        np.bitwise_or(u, x, out=u)
        np.right_shift(u, 11, out=u)
        np.multiply(u, 2.0 ** -53, out=flat[start:start + k])
    rng._state = s
    return out


class UniformBlocks:
    """Rows of ``width`` uniforms, ``rng``'s stream in order, read or skipped.

    A consumer that needs one row per step (the fluid engine's per-subflow
    loss thinning) but reads it only on some steps calls :meth:`next_row`
    or :meth:`skip_row` once per step. Rows are drawn ``rows_per_block`` at
    a time, from the first row of a block that is read; a block whose rows
    are all skipped is never drawn, only jumped over. Every row read, and
    the generator once all ``total_rows`` are consumed, equal what one
    ``rng.random(width)`` per step would give.

    Rows are views into one reused block buffer: treat each as read-only
    and consumed before the next call.
    """

    __slots__ = ("rng", "width", "rows_per_block", "_buf", "_rows_left",
                 "_block", "_served", "_drawn", "refills")

    def __init__(self, rng, width: int, total_rows: int,
                 rows_per_block: int = 64):
        if width < 0:
            raise ConfigurationError(f"width must be >= 0, got {width}")
        if total_rows < 0:
            raise ConfigurationError(
                f"total_rows must be >= 0, got {total_rows}")
        if rows_per_block < 1:
            raise ConfigurationError(
                f"rows_per_block must be >= 1, got {rows_per_block}")
        self.rng = rng
        self.width = width
        self.rows_per_block = rows_per_block
        self._buf = np.empty((min(rows_per_block, max(total_rows, 1)), width))
        #: Rows not yet in a block.
        self._rows_left = total_rows
        #: Rows in the live block, and how many of them were read or skipped.
        self._block = self._served = 0
        #: Whether the live block's unserved rows are in the buffer; until
        #: then the generator stands at the block's first row.
        self._drawn = False
        self.refills = 0

    def _open_block(self) -> None:
        """Start the next block, undrawn; called once the live one is used up."""
        if self._rows_left == 0:
            raise ConfigurationError(
                "UniformBlocks exhausted: total_rows rows already served")
        self._block = min(self.rows_per_block, self._rows_left)
        self._rows_left -= self._block
        self._served = 0
        self._drawn = False

    def next_row(self) -> np.ndarray:
        """The next ``(width,)`` row, drawing the rest of its block if the
        block has not been drawn."""
        if self._served == self._block:
            self._open_block()
        if not self._drawn:
            if self._served:
                self.rng.advance(self._served * self.width)
            fill_random(self.rng, self._buf[self._served:self._block])
            self._drawn = True
            self.refills += 1
        row = self._buf[self._served]
        self._served += 1
        return row

    def skip_row(self) -> None:
        """Pass over the next row without reading it. This runs on most
        fluid steps, so the live block's check is inline."""
        if self._served == self._block:
            self._open_block()
        self._served += 1
        if self._served == self._block and not self._drawn:
            self.rng.advance(self._block * self.width)
