"""Rate-limited (streaming) application sources — an extension.

The paper's future work calls out "energy-efficient designs for multimedia
applications over MPTCP". Multimedia traffic is application-limited: the
encoder produces bytes at a target bitrate and the transport should not
run faster. :class:`StreamingSupply` is a token-bucket-limited
:class:`~repro.net.flow.SegmentSupply`: senders can only take segments as
the bucket refills, and a periodic kicker re-opens the senders' windows
when fresh tokens arrive (window space without tokens means an idle,
energy-cheap transport — exactly the regime where energy-aware congestion
control matters most).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.errors import ConfigurationError
from repro.net.flow import SegmentSupply, TcpSender
from repro.net.mptcp import MptcpConnection

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.events import Simulator


class StreamingSupply(SegmentSupply):
    """A segment supply throttled to a target application bitrate."""

    def __init__(
        self,
        sim: "Simulator",
        *,
        bitrate_bps: float,
        segment_bytes: int,
        total_segments: Optional[int] = None,
        burst_segments: float = 16.0,
        refill_interval: float = 0.02,
    ):
        if bitrate_bps <= 0:
            raise ConfigurationError(f"bitrate must be positive, got {bitrate_bps}")
        if segment_bytes <= 0:
            raise ConfigurationError(f"segment size must be positive, got {segment_bytes}")
        super().__init__(total_segments)
        self.sim = sim
        self.bitrate_bps = bitrate_bps
        self.segment_bytes = segment_bytes
        self.burst_segments = burst_segments
        self.refill_interval = refill_interval
        self._tokens = burst_segments
        self._senders: List[TcpSender] = []
        self._segments_per_second = bitrate_bps / (segment_bytes * 8)
        sim.schedule(refill_interval, self._refill)

    def bind(self, connection: MptcpConnection) -> None:
        """Route a connection's subflows through this supply.

        Call immediately after constructing the connection; replaces its
        greedy supply with this throttled one.
        """
        self._senders = list(connection.subflows)
        connection.supply = self
        for sender in self._senders:
            sender.supply = self

    def take(self) -> bool:
        if self._tokens < 1.0:
            return False
        if not super().take():
            return False
        self._tokens -= 1.0
        return True

    def _refill(self) -> None:
        self._tokens = min(
            self.burst_segments,
            self._tokens + self._segments_per_second * self.refill_interval,
        )
        # Wake the senders: they may have window space idled by an earlier
        # empty bucket.
        for sender in self._senders:
            if sender.started and not self.completed:
                sender._send_available()
        if not self.completed:
            self.sim.schedule(self.refill_interval, self._refill)


def attach_streaming_source(
    connection: MptcpConnection,
    *,
    bitrate_bps: float,
    total_bytes: Optional[int] = None,
) -> StreamingSupply:
    """Convenience: throttle ``connection`` to a streaming bitrate."""
    mss = connection.subflows[0].mss
    total_segments = None
    if total_bytes is not None:
        total_segments = max(1, -(-total_bytes // mss))
    supply = StreamingSupply(
        connection.sim,
        bitrate_bps=bitrate_bps,
        segment_bytes=mss,
        total_segments=total_segments,
    )
    supply.bind(connection)
    return supply
