"""Pareto ON/OFF burst traffic — the Fig. 5(b) path degrader.

The paper generates "on each path a bursty traffic that follows Pareto
pattern at rate 45 Mbps and occurs at random intervals (average 10 seconds)
and with average bursty duration of 5 seconds". We model exactly that: OFF
periods are exponential with the given mean; ON durations are Pareto with
the given mean (shape 1.5, the classic heavy-tail choice for bursty traffic
a la Benson et al. IMC'10); during ON the source emits constant-rate
unresponsive packets (the bursts are *not* congestion controlled — that is
what makes the test harsh).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.routing import Route
from repro.units import DEFAULT_PACKET_BYTES, bytes_to_bits

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.events import Simulator


class NullSink:
    """Swallows packets, counting them (cross traffic has no receiver app)."""

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0

    def receive(self, packet: Packet) -> None:
        self.packets += 1
        self.bytes += packet.size_bytes


class ParetoBurstSource:
    """ON/OFF constant-rate burst generator on a fixed route."""

    _next_id = 10**6  # flow-id space distinct from TCP flows

    def __init__(
        self,
        sim: "Simulator",
        route: Route,
        *,
        rate_bps: float,
        mean_interval: float = 10.0,
        mean_duration: float = 5.0,
        pareto_shape: float = 1.5,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
    ):
        if rate_bps <= 0:
            raise ConfigurationError(f"burst rate must be positive, got {rate_bps}")
        if pareto_shape <= 1.0:
            raise ConfigurationError(
                f"pareto shape must exceed 1 for a finite mean, got {pareto_shape}"
            )
        self.sim = sim
        self.route = route
        self.rate_bps = rate_bps
        self.mean_interval = mean_interval
        self.mean_duration = mean_duration
        self.pareto_shape = pareto_shape
        self.packet_bytes = packet_bytes
        self.sink = NullSink()
        self.flow_id = ParetoBurstSource._next_id
        ParetoBurstSource._next_id += 1
        self._gap = bytes_to_bits(packet_bytes) / rate_bps
        self._burst_end = 0.0
        self._on = False
        self._started = False
        self.bursts_generated = 0
        self.packets_sent = 0

    def start(self, at: float = 0.0) -> None:
        """Schedule the first OFF->ON transition."""
        if self._started:
            raise ConfigurationError("burst source already started")
        self._started = True
        self.sim.schedule_at(
            max(at, self.sim.now) + self._next_off_period(), self._begin_burst
        )

    def _next_off_period(self) -> float:
        return self.sim.rand.exponential(self.mean_interval)

    def _next_on_period(self) -> float:
        # Pareto with mean m and shape a has scale m*(a-1)/a.
        scale = self.mean_duration * (self.pareto_shape - 1) / self.pareto_shape
        return scale * (1.0 + self.sim.rand.pareto(self.pareto_shape))

    def _begin_burst(self) -> None:
        self._on = True
        self.bursts_generated += 1
        self._burst_end = self.sim.now + self._next_on_period()
        self._emit()
        self.sim.schedule_at(self._burst_end, self._end_burst)

    def _end_burst(self) -> None:
        self._on = False
        self.sim.schedule(self._next_off_period(), self._begin_burst)

    def _emit(self) -> None:
        if not self._on or self.sim.now >= self._burst_end:
            return
        pkt = Packet.data(
            self.flow_id,
            self.packets_sent,
            self.route.forward,
            self.sink,
            self.sim.now,
            size_bytes=self.packet_bytes,
        )
        self.route.forward[0].transmit(pkt)
        self.packets_sent += 1
        self.sim.schedule(self._gap, self._emit)
