"""Unit helpers and physical constants.

All internal quantities in this package are SI:

- time in **seconds**,
- data rates in **bits per second**,
- data sizes in **bytes** (the one deliberate exception to strict SI,
  because packet and transfer sizes are universally quoted in bytes),
- power in **watts**, energy in **joules**.

These helpers are the only place where unit literals should appear in
calling code; write ``mbps(100)`` rather than ``100 * 1e6``.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

#: Default Ethernet-style maximum segment size, in bytes (payload of a
#: 1500-byte MTU frame minus 40 bytes of TCP/IP headers).
DEFAULT_MSS = 1460

#: Full on-the-wire packet size used for serialization timing, in bytes.
DEFAULT_PACKET_BYTES = 1500

#: Size of a bare ACK segment, in bytes.
ACK_BYTES = 40

BITS_PER_BYTE = 8


def mbps(value: float) -> float:
    """Megabits per second to bits per second."""
    return value * 1e6


def gbps(value: float) -> float:
    """Gigabits per second to bits per second."""
    return value * 1e9


def to_mbps(bits_per_second: float) -> float:
    """Bits per second to megabits per second."""
    return bits_per_second / 1e6


def ms(value: float) -> float:
    """Milliseconds to seconds."""
    return value * 1e-3


def to_ms(seconds: float) -> float:
    """Seconds to milliseconds."""
    return seconds * 1e3


def whole_steps(duration: float, dt: float) -> int:
    """How many fixed ``dt`` steps make up ``duration`` seconds.

    A fixed-step run covers ``steps * dt`` seconds, so a ``duration`` that
    is not a whole number (>= 1) of steps, at relative tolerance 1e-9,
    raises :class:`~repro.errors.ConfigurationError`: totals divided by a
    time the run did not simulate would be wrong by the difference.
    """
    ratio = duration / dt
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or not math.isclose(ratio, steps, rel_tol=1e-9):
        raise ConfigurationError(
            f"duration {duration} s is not a whole number of dt {dt} s steps "
            f"({ratio:.6g}); pick a duration that dt divides")
    return steps


def kib(value: float) -> int:
    """Kibibytes to bytes."""
    return int(value * 1024)


def mib(value: float) -> int:
    """Mebibytes to bytes."""
    return int(value * 1024 * 1024)


def mb(value: float) -> int:
    """Decimal megabytes to bytes."""
    return int(value * 1e6)


def gb(value: float) -> int:
    """Decimal gigabytes to bytes."""
    return int(value * 1e9)


def bytes_to_bits(n_bytes: float) -> float:
    """Bytes to bits."""
    return n_bytes * BITS_PER_BYTE


def milliwatts(value: float) -> float:
    """Milliwatts to watts."""
    return value * 1e-3
