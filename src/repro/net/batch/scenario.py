"""Declarative scenarios for the batched packet engine.

The batch engine and its scalar oracle both consume a
:class:`BatchScenario`: a set of independent MPTCP connections, each with
its own subflow paths, congestion-control algorithm, and (optionally
finite) transfer.  Connections are independent by construction — each
path models its own bottleneck (an ENI-style per-host cap, as in the
paper's EC2 experiment, Fig. 10) — which is exactly the regime where
stepping thousands of connections as numpy arrays pays off.

The abstract network model is *round-clocked*: every subflow alternates
between sending a burst of ``min(cwnd, rwnd)`` segments and, one
path-RTT later, processing the burst's delivery in a single event.  The
RTT of a burst of ``n`` segments is deterministic,

    RTT(n) = base_rtt + n * seg_time,

i.e. propagation plus the serialization of the whole burst through the
path's bottleneck, so queueing delay grows with the window and the DTS
factor (Eq. 5) reacts to it.  Losses are iid per segment with
probability ``loss_rate``, plus deterministic drop-tail overflow: any
segment beyond ``bdp + queue_segments`` in one burst is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.algorithms import create_controller
from repro.errors import ConfigurationError
from repro.units import DEFAULT_PACKET_BYTES, mbps, ms


def _require_positive_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class BatchPath:
    """One subflow path: a private bottleneck with fixed propagation."""

    base_rtt: float = 0.002
    rate_bps: float = mbps(256)
    loss_rate: float = 0.0
    queue_segments: int = 64
    switch_hops: int = 1

    def __post_init__(self) -> None:
        _require_positive_finite("base_rtt", self.base_rtt)
        _require_positive_finite("rate_bps", self.rate_bps)
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigurationError(f"loss_rate must be in [0, 1], got {self.loss_rate}")
        if self.queue_segments < 0:
            raise ConfigurationError(
                f"queue_segments must be non-negative, got {self.queue_segments}"
            )

    def seg_time(self, packet_bytes: int) -> float:
        """Serialization time of one segment through the bottleneck."""
        return packet_bytes * 8 / self.rate_bps

    def bdp_segments(self, packet_bytes: int) -> int:
        """Bandwidth-delay product of the path in whole segments."""
        return int(self.rate_bps * self.base_rtt / (8 * packet_bytes))

    def over_limit(self, packet_bytes: int) -> int:
        """Segments per burst beyond this are drop-tail losses."""
        return self.bdp_segments(packet_bytes) + self.queue_segments


@dataclass(frozen=True)
class BatchConnection:
    """One MPTCP connection: paths, controller, and workload."""

    paths: Tuple[BatchPath, ...]
    algorithm: str = "dts"
    total_segments: Optional[int] = None
    initial_cwnd: float = 10.0
    rwnd_segments: float = 256.0
    packet_bytes: int = DEFAULT_PACKET_BYTES
    controller_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.paths:
            raise ConfigurationError("a connection needs at least one path")
        if self.total_segments is not None and self.total_segments < 1:
            raise ConfigurationError(
                f"total_segments must be >= 1, got {self.total_segments}"
            )
        if not (math.isfinite(self.initial_cwnd) and self.initial_cwnd >= 1.0):
            raise ConfigurationError(
                f"initial_cwnd must be finite and >= 1, got {self.initial_cwnd}"
            )
        # "not >=" so that NaN is refused; inf is a legal "no receive window".
        if not self.rwnd_segments >= 1.0:
            raise ConfigurationError(
                f"rwnd_segments must be >= 1, got {self.rwnd_segments}"
            )
        if self.packet_bytes <= 0:
            raise ConfigurationError(
                f"packet_bytes must be positive, got {self.packet_bytes}"
            )
        try:  # fail fast on unknown names and on kwargs the controller rejects
            create_controller(self.algorithm, **self.controller_kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                f"controller_kwargs do not fit {self.algorithm!r}: {exc}"
            ) from None

    @property
    def n_subflows(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class BatchScenario:
    """A full batch-engine run: connections, clock quantum, horizon."""

    connections: Tuple[BatchConnection, ...]
    duration: float = 2.0
    tick: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.connections:
            raise ConfigurationError("scenario needs at least one connection")
        _require_positive_finite("tick", self.tick)
        _require_positive_finite("duration", self.duration)

    @property
    def n_connections(self) -> int:
        return len(self.connections)

    @property
    def max_subflows(self) -> int:
        return max(c.n_subflows for c in self.connections)

    @property
    def horizon_tick(self) -> int:
        """Last tick index processed (deadlines beyond it never fire)."""
        return int(math.ceil(self.duration / self.tick))


def ec2_scenario(
    n_hosts: int = 40,
    n_subflows: int = 4,
    algorithm: str = "dts",
    *,
    eni_bps: float = mbps(64),
    link_delay: float = ms(0.5),
    loss_rate: float = 1e-3,
    queue_segments: int = 16,
    rwnd_segments: float = 64.0,
    total_segments: Optional[int] = None,
    duration: float = 1.0,
    tick: float = 2e-3,
    seed: int = 0,
) -> BatchScenario:
    """EC2-style scenario (Fig. 10 shape): one sender per host, each with
    ``n_subflows`` ENI-limited paths.

    Every host's ENIs are its private bottlenecks — the fabric behind
    them is overprovisioned — so connections are independent, matching
    the paper's EC2 setup and the batch engine's model.  A path's base
    RTT is two traversals of two ``link_delay`` hops (host - subnet
    switch - host).
    """
    if n_hosts < 1:
        raise ConfigurationError(f"n_hosts must be >= 1, got {n_hosts}")
    if n_subflows < 1:
        raise ConfigurationError(f"n_subflows must be >= 1, got {n_subflows}")
    path = BatchPath(
        base_rtt=4 * link_delay,
        rate_bps=eni_bps,
        loss_rate=loss_rate,
        queue_segments=queue_segments,
        switch_hops=1,
    )
    conn = BatchConnection(
        paths=(path,) * n_subflows,
        algorithm=algorithm,
        total_segments=total_segments,
        rwnd_segments=rwnd_segments,
    )
    return BatchScenario(
        connections=(conn,) * n_hosts,
        duration=duration,
        tick=tick,
        seed=seed,
    )
