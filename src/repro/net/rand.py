"""The simulator's random generator: PCG64 on the standard library.

Per-packet loss draws (`Link`), RED early-drop draws and workload arrival
draws all pull single variates from one generator owned by the
:class:`~repro.net.events.Simulator`. Every figure in the repo is pinned to
seeds recorded when that generator was ``numpy.random.default_rng(seed)``,
so :class:`Pcg64` reproduces that stream **bit for bit** — same values, same
final ``{"state", "inc"}`` — without importing numpy:

* seeding is ``SeedSequence``'s hash-mix (a pool of four 32-bit words, eight
  output words) feeding ``pcg_setseq_128_srandom``;
* a step is the 128-bit LCG, the output XSL-RR 128/64;
* ``random()`` is the top 53 bits of one output, ``uniform`` an affine map of
  it, ``exponential`` numpy's 256-layer ziggurat over numpy's own tables
  (:mod:`repro.net._ziggurat`), ``pareto`` ``expm1`` of an exponential.

``tests/test_fastpath.py`` holds the class to ``default_rng`` value for value
over arbitrary interleavings of the five draw kinds. numpy's compatibility
policy (NEP 19) lets ``Generator`` method streams change between releases;
this file does not change with them.
"""

from __future__ import annotations

import math
import operator
import os
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.net._ziggurat import FE, KE, WE, ZIGGURAT_EXP_R

__all__ = ["Pcg64"]

_M32 = (1 << 32) - 1
_M53 = (1 << 53) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 2.0 ** -53

# SeedSequence's constants (O'Neill's seed_seq_fe, as numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(entropy: int) -> list:
    """``SeedSequence(entropy).generate_state(4, uint64)`` as four ints."""
    words = [entropy & _M32]
    while entropy := entropy >> 32:
        words.append(entropy & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 2 * _POOL_SIZE, 2)]


class Pcg64:
    """``numpy.random.default_rng(seed)``'s scalar draws, stdlib only.

    ``seed`` is a non-negative integer of any size, or ``None`` for 128
    bits of OS entropy (what ``default_rng()`` takes).
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: Optional[int] = None):
        if seed is None:
            # What secrets.randbits(128) reads, without secrets' imports
            # (random, hmac, hashlib and OpenSSL: ~3 MiB resident, ~5 ms).
            seed = int.from_bytes(os.urandom(16), "little")
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ConfigurationError(
                f"seed must be a non-negative integer or None, got {seed!r}") from None
        if seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {seed}")
        hi, lo, seq_hi, seq_lo = _seed_words(seed)
        # pcg_setseq_128_srandom: state = 0, step, add the seed, step.
        self._inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
        self._state = ((self._inc + (hi << 64 | lo)) * _MULT + self._inc) & _M128

    @property
    def state(self) -> Dict[str, int]:
        """The position, as ``bit_generator.state["state"]`` reports it."""
        return {"state": self._state, "inc": self._inc}

    def _next64(self) -> int:
        state = self._state = (self._state * _MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64
        # XSL-RR: rotate the folded halves right by the top six bits; the low
        # 64 bits of (x:x) >> rot are that rotation.
        return ((x << 64 | x) >> (state >> 122)) & _M64

    def random(self) -> float:
        """One uniform draw in [0, 1): the top 53 bits of one output. This
        is the per-packet loss/RED hot path, so :meth:`_next64` is written
        out here (with the ``>> 11`` folded into the rotation's shift)."""
        state = self._state = (self._state * _MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64
        return ((x << 64 | x) >> ((state >> 122) + 11) & _M53) * _TWO_M53

    def uniform(self, low: float, high: float) -> float:
        """One uniform draw in [low, high)."""
        return low + (high - low) * self.random()

    def exponential(self, scale: float) -> float:
        """One exponential draw with the given scale (mean)."""
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                return scale * x  # inside the layer's rectangle: ~98.9% of draws
            if idx == 0:
                # The tail; 1 - U keeps log away from 0 (numpy gh-13361).
                return scale * (ZIGGURAT_EXP_R - math.log1p(-self.random()))
            if (FE[idx - 1] - FE[idx]) * self.random() + FE[idx] < math.exp(-x):
                return scale * x
            # rejected in the wedge: redraw

    def pareto(self, shape: float) -> float:
        """One (Lomax-convention, as numpy) Pareto draw."""
        return math.expm1(self.exponential(1.0) / shape)
