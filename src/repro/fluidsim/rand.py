"""Block prefetch of the fluid step loop's per-step loss uniforms."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["UniformBlocks"]


class UniformBlocks:
    """Stream-exact block prefetcher for fixed-width uniform row draws.

    A consumer that needs ``width`` uniforms per step (the fluid engine's
    per-subflow loss thinning) is served ``rows_per_block`` steps at a
    time from a single ``rng.random(k * width)`` fill. Because the array
    sampler consumes the bit generator exactly as ``k`` successive
    ``rng.random(width)`` calls would, every served row — and, since the
    prefetcher knows ``total_rows`` up front and never over-draws, the
    generator's final state too — is byte-identical to the unbatched
    per-step path.

    Rows are served as views into one preallocated block buffer, so the
    steady-state cost is one array fill per ``rows_per_block`` rows and
    zero per-row allocation. Treat each row as read-only and consumed
    before the next call: the buffer is reused.
    """

    __slots__ = ("rng", "width", "rows_per_block", "_buf", "_rows_left",
                 "_served", "_filled", "refills")

    def __init__(self, rng: np.random.Generator, width: int, total_rows: int,
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
        #: Rows not yet drawn from the generator.
        self._rows_left = total_rows
        #: Rows of the live block already handed out.
        self._served = 0
        #: Rows drawn into the live block.
        self._filled = 0
        self.refills = 0

    def next_row(self) -> np.ndarray:
        """The next ``(width,)`` row, prefetching a block when drained."""
        if self._served == self._filled:
            if self._rows_left == 0:
                raise ConfigurationError(
                    "UniformBlocks exhausted: total_rows rows already served")
            k = min(self.rows_per_block, self._rows_left)
            # Filling a contiguous view advances the bit generator exactly
            # as k sequential rng.random(width) calls would.
            self.rng.random(out=self._buf[:k].reshape(-1))
            self._rows_left -= k
            self._filled = k
            self._served = 0
            self.refills += 1
        row = self._buf[self._served]
        self._served += 1
        return row
