"""The repo's random generator: PCG64 on the standard library.

Every engine draws from one :class:`Pcg64` per run: the packet DES's
per-packet loss and workload arrival draws, the fluid engine's loss
uniforms, the batch engine's and its oracle's burst uniforms, and the
fluid networks' host pairing and ECMP path picks. Every figure in the repo
is pinned to seeds recorded when that generator was
``numpy.random.default_rng(seed)``, so :class:`Pcg64` reproduces that
stream **bit for bit** — same values, same final ``bit_generator.state``
— without importing numpy:

* seeding is ``SeedSequence``'s hash-mix (a pool of four 32-bit words, eight
  output words) feeding ``pcg_setseq_128_srandom``;
* a step is the 128-bit LCG, the output XSL-RR 128/64; :meth:`Pcg64.advance`
  jumps the LCG in O(log n) steps;
* ``random()`` is the top 53 bits of one output, ``uniform`` an affine map of
  it, ``exponential`` numpy's 256-layer ziggurat over numpy's own tables
  (:mod:`repro.net._ziggurat`), ``pareto`` ``expm1`` of an exponential;
* the integer draws are numpy's buffered 32-bit halves: ``shuffle`` rejects
  on a bit mask (``random_interval``), ``choice`` bounds by Lemire's method.

The array engines draw whole arrays of ``random()`` through
:func:`repro._uniforms.fill_random`, which jumps this generator's state in
numpy arithmetic. ``tests/test_fastpath.py`` holds both to ``default_rng``
value for value over arbitrary interleavings of every draw kind. numpy's
compatibility policy (NEP 19) lets ``Generator`` method streams change
between releases; this file does not change with them.
"""

from __future__ import annotations

import math
import operator
import os
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.net._ziggurat import FE, KE, WE, ZIGGURAT_EXP_R

__all__ = ["Pcg64"]

_M32 = (1 << 32) - 1
_M53 = (1 << 53) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier.
MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 2.0 ** -53
#: Above this population ``Generator.choice(replace=False)`` shuffles the
#: tail of the whole range instead of running Floyd's algorithm.
_CHOICE_TAIL_POP = 10_000

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
    bits of OS entropy (what ``default_rng()`` takes). ``_state`` and
    ``_inc`` are the LCG's; :func:`repro._uniforms.fill_random` reads and
    moves them too.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

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
        self._state = ((self._inc + (hi << 64 | lo)) * MULT + self._inc) & _M128
        #: numpy's buffered upper half of the last 64-bit output that
        #: :meth:`next_uint32` split (``has_uint32`` / ``uinteger``).
        self._has_uint32 = self._uinteger = 0

    @property
    def state(self) -> Dict[str, Any]:
        """The position, in the form ``bit_generator.state`` reports it."""
        return {"bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": self._has_uint32, "uinteger": self._uinteger}

    def advance(self, delta: int) -> None:
        """Skip the next ``delta`` 64-bit outputs (mod 2**128) in
        O(log delta), as ``bit_generator.advance`` does, dropping the
        buffered 32-bit half.

        ``delta`` steps of ``s -> a*s + c`` are one affine map; squaring
        ``(a, c) -> (a*a, (a + 1)*c)`` builds it from the bits of ``delta``.
        """
        delta &= _M128
        acc_mult, acc_plus = 1, 0
        mult, plus = MULT, self._inc
        while delta:
            if delta & 1:
                acc_mult = acc_mult * mult & _M128
                acc_plus = (acc_plus * mult + plus) & _M128
            plus = (mult + 1) * plus & _M128
            mult = mult * mult & _M128
            delta >>= 1
        self._state = (acc_mult * self._state + acc_plus) & _M128
        self._has_uint32 = self._uinteger = 0

    def _next64(self) -> int:
        state = self._state = (self._state * MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64
        # XSL-RR: rotate the folded halves right by the top six bits; the low
        # 64 bits of (x:x) >> rot are that rotation.
        return ((x << 64 | x) >> (state >> 122)) & _M64

    def random(self) -> float:
        """One uniform draw in [0, 1): the top 53 bits of one output. This
        is the per-packet loss hot path, so :meth:`_next64` is written
        out here (with the ``>> 11`` folded into the rotation's shift)."""
        state = self._state = (self._state * MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64
        return ((x << 64 | x) >> ((state >> 122) + 11) & _M53) * _TWO_M53

    def next_uint32(self) -> int:
        """numpy's 32-bit draw: the low half of a fresh 64-bit output, whose
        high half is buffered for the next call."""
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        x = self._next64()
        self._has_uint32, self._uinteger = 1, x >> 32
        return x & _M32

    def _masked(self, bound: int) -> int:
        """numpy's ``random_interval``: uniform on [0, bound] (< 2**32),
        redrawing 32-bit values masked to ``bound``'s width."""
        mask = (1 << bound.bit_length()) - 1
        while (value := self.next_uint32() & mask) > bound:
            pass
        return value

    def _lemire(self, bound: int) -> int:
        """numpy's ``random_bounded_uint64(0, bound)`` for bound < 2**32:
        Lemire's multiply-shift on 32-bit draws, redrawing the biased low
        products. A zero bound draws nothing."""
        if bound == 0:
            return 0
        span = bound + 1
        m = self.next_uint32() * span
        if m & _M32 < span:
            threshold = (_M32 - bound) % span
            while m & _M32 < threshold:
                m = self.next_uint32() * span
        return m >> 32

    def shuffle(self, items: List) -> None:
        """Permute the mutable sequence ``items`` in place, as
        ``Generator.shuffle`` does: Fisher-Yates from the back."""
        for i in range(len(items) - 1, 0, -1):
            j = self._masked(i)
            items[i], items[j] = items[j], items[i]

    def choice(self, population: int, size: int) -> List[int]:
        """``Generator.choice(population, size, replace=False)``: ``size``
        distinct ints below ``population``, in numpy's order."""
        if not 0 <= size <= population:
            raise ConfigurationError(
                f"cannot pick {size} distinct values below {population}")
        if population > _CHOICE_TAIL_POP and size > population // 50:
            # Shuffle the last ``size`` places of the whole range.
            picks = list(range(population))
            for i in range(population - 1, max(population - size, 1) - 1, -1):
                j = self._lemire(i)
                picks[i], picks[j] = picks[j], picks[i]
            return picks[population - size:]
        # Floyd's algorithm, then a shuffle of the picks.
        seen, picks = set(), []
        for j in range(population - size, population):
            value = self._lemire(j)
            if value in seen:
                value = j
            seen.add(value)
            picks.append(value)
        for i in range(size - 1, 0, -1):
            j = self._lemire(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks

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
