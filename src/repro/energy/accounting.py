"""Energy accounting: the Eq. (2) integral over simulated transfers.

    E_total = (M / tau_avg) * sum_r P_r(tau_r, RTT_r)

In a dynamic simulation throughput and RTT vary, so we integrate: a
:class:`ConnectionEnergyMeter` samples each subflow's goodput and smoothed
RTT on a fixed interval, evaluates the host power model, and accumulates
``P * dt``. For steady-state analytic cases :func:`transfer_energy`
evaluates Eq. (2) directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.energy.cpu import HostPowerModel
from repro.errors import ConfigurationError
from repro.net.monitor import PeriodicSampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.events import Simulator
    from repro.net.mptcp import MptcpConnection


def transfer_energy(
    data_bytes: float,
    host_model: HostPowerModel,
    paths: Sequence[Tuple[float, float]],
    *,
    n_subflows: Optional[int] = None,
) -> float:
    """Eq. (2) in closed form for a steady-rate transfer.

    ``paths`` is one ``(throughput_bps, rtt)`` pair per path; the transfer
    duration is ``data_bytes * 8 / sum(throughputs)``.
    """
    aggregate = sum(tau for tau, _ in paths)
    if aggregate <= 0:
        raise ConfigurationError("aggregate throughput must be positive")
    duration = data_bytes * 8 / aggregate
    return host_model.power(paths, n_subflows=n_subflows) * duration


class TransferEnergyAccount:
    """Wall-clock Eq. (2) integrator for the real UDP transport.

    The DES :class:`ConnectionEnergyMeter` below owns its sampling timer;
    on the asyncio side the runtime already has a periodic tick, so this
    account is passive: the caller pushes ``(throughput_bps, rtt)`` pairs
    with a timestamp whenever it likes (intervals may be irregular) and
    the account integrates ``P * dt`` trapezoidally between samples.

    It keeps the last sample and two running totals, not the series: a
    server samples every connection 20-40 times a second for as long as
    it lives, and nothing reads the history back.
    """

    def __init__(self, host_model: HostPowerModel, *,
                 n_subflows: Optional[int] = None):
        self.host_model = host_model
        self.n_subflows = n_subflows
        self.energy_j = 0.0
        self.samples = 0
        self._power_sum = 0.0
        self._last_time = 0.0
        self._last_power = 0.0

    def sample(self, now: float, paths: Sequence[Tuple[float, float]]) -> float:
        """Record one power sample at wall time ``now``; returns the power."""
        power = self.host_model.power(paths, n_subflows=self.n_subflows)
        if self.samples:
            dt = now - self._last_time
            if dt > 0:
                self.energy_j += 0.5 * (power + self._last_power) * dt
        self.samples += 1
        self._power_sum += power
        self._last_time = now
        self._last_power = power
        return power

    @property
    def mean_power_w(self) -> float:
        """Average power over the sampled window, in watts."""
        if not self.samples:
            return 0.0
        return self._power_sum / self.samples


class ConnectionEnergyMeter:
    """Integrates host power over one connection's lifetime.

    Samples per-subflow goodput (delta of ACKed segments) and smoothed RTT
    every ``interval`` seconds, evaluates ``host_model.power`` and
    accumulates energy. Sampling stops automatically once the transfer
    completes, so the measured energy covers exactly the transfer window —
    the same protocol as the paper's RAPL readings.
    """

    def __init__(
        self,
        sim: "Simulator",
        connection: "MptcpConnection",
        host_model: HostPowerModel,
        *,
        interval: float = 0.05,
        n_subflows: Optional[int] = None,
    ):
        self.sim = sim
        self.connection = connection
        self.host_model = host_model
        self.interval = interval
        self.n_subflows = n_subflows
        self.energy_j = 0.0
        self.times: List[float] = []
        self.powers: List[float] = []
        self._last_acked = [0 for _ in connection.subflows]
        registry = obs.registry_or_new()
        self.tracer = obs.current_tracer()
        self._power_hist = registry.histogram(
            "energy.power_w", obs.geometric_buckets(0.25, 256.0))
        self._samples_counter = registry.counter("energy.samples")
        self._joules_counter = registry.counter("energy.joules")
        self._sampler = PeriodicSampler(sim, interval, self._sample)

    def stop(self) -> None:
        """Stop metering."""
        self._sampler.stop()

    @property
    def mean_power_w(self) -> float:
        """Average power over the metered window, in watts."""
        if not self.powers:
            return 0.0
        return sum(self.powers) / len(self.powers)

    def _sample(self, now: float) -> None:
        conn = self.connection
        mss = conn.subflows[0].mss
        paths = []
        for i, sf in enumerate(conn.subflows):
            delta = sf.acked - self._last_acked[i]
            self._last_acked[i] = sf.acked
            throughput = delta * mss * 8 / self.interval
            paths.append((throughput, sf.rtt))
        power = self.host_model.power(paths, n_subflows=self.n_subflows)
        self.times.append(now)
        self.powers.append(power)
        self.energy_j += power * self.interval
        self._power_hist.observe(power)
        self._samples_counter.inc()
        self._joules_counter.inc(power * self.interval)
        if self.tracer.enabled:
            self.tracer.instant(
                "energy.sample", power_w=round(power, 3), sim_now=round(now, 6))
        if conn.completed:
            self._sampler.stop()
