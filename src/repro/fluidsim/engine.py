"""The fluid window-dynamics integrator with energy accounting.

Each step of length ``dt``:

1. subflow rates ``x = w * packet_bits / rtt`` (bps), link loads
   ``y = R x``;
2. queue evolution ``q += (y - c) dt`` clamped to the buffer; a full queue
   with persistent overload drops the excess, yielding per-link loss
   probability ``p = (y - c)/y``; queues above the ECN threshold mark;
3. per-subflow RTT ``rtt = base + R^T (q/c)`` and path loss
   ``p_path ~ sum of link p`` (clamped);
4. loss events are sampled per subflow as a Poisson thinning of the packet
   arrival rate, at most one event per RTT (fast recovery), each applying
   the algorithm's multiplicative decrease;
5. windows grow by the algorithm's per-ACK increase times the ACK rate,
   plus any algorithm-specific adjustment (wVegas/DCTCP/extended-DTS);
6. host and switch power are evaluated on the sampled state and integrated
   into energy (Eq. 2).

The loop body is allocation-light; ``tests/oracles/fluid_reference.py``
holds the straight-line transcription of the six steps it must match bit
for bit (results, RNG stream, trace events):

* every routing product is :meth:`repro.fluidsim.csr.Csr.matvec` or
  ``rmatvec`` on the one path table — scipy's compiled ``csr_matvec`` /
  ``csc_matvec``, the routines scipy's own ``@`` dispatches to, written
  into a preallocated vector and loaded without importing ``scipy.sparse``;
* every per-step temporary lives in a preallocated buffer reused across
  steps (``out=`` ufunc forms, ``np.copyto`` masking);
* ``delivered_bits`` accumulates through a seeded-head ``bincount`` fold
  over a precomputed index vector;
* cohort state is served through persistent slice views;
* the per-step loss uniforms come in blocks through
  :class:`~repro._uniforms.UniformBlocks`, which draws a block only once a
  lossy step reads a row of it and jumps the generator over the rest,
  leaving it exactly where one ``random(n)`` per step would.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

import repro.obs as obs
from repro._uniforms import UniformBlocks
from repro.energy.cpu import HostPowerModel, default_wired_host
from repro.energy.switch import SwitchPowerModel
from repro.errors import ConfigurationError
from repro.fluidsim.adapters import FluidAlgorithm
from repro.fluidsim.network import FluidNetwork
from repro.fluidsim.state import CohortState
from repro.net.rand import Pcg64
from repro.units import whole_steps

_EPS = 1e-12

#: Steps of loss uniforms prefetched per RNG block.
_RNG_BLOCK_STEPS = 64

#: Energy and the obs probes are sampled once per this many steps; each
#: sample stands in for the steps up to the next one.
_ENERGY_SAMPLE_EVERY = 10

#: A link marks ECN once its queue holds this fraction of its buffer.
_ECN_THRESHOLD_FRACTION = 0.3

#: Valid values of the ``dtype`` knob.
_DTYPE_MODES = ("auto", "float32", "float64")
#: ``dtype="auto"`` switches to float32 at this many subflows — the
#: point where halving memory traffic beats the (small) extra rounding.
_FLOAT32_AUTO_THRESHOLD = 65536


class PowerEvaluator:
    """Eq. 2's host and switch power evaluated on a network state.

    Extracted from the engine so the equilibrium executor prices energy
    on a solved stationary state with exactly the arithmetic (same
    operation order, bit-identical) the time-stepped loop integrates.
    The per-path and per-port formulas are the power models' own,
    evaluated over ``numpy``.
    """

    def __init__(
        self,
        net: FluidNetwork,
        host_power: HostPowerModel,
        switch_power: SwitchPowerModel,
    ):
        self.net = net
        self.host_power = host_power
        self.switch_power = switch_power
        # Precompute per-host overhead: idle for every host that touches
        # traffic, plus per-subflow socket overhead at the endpoints only.
        counts = net.host_subflow_count
        endpoints = net.host_endpoint_count
        self.host_static_w = float(
            np.sum(
                np.where(
                    counts > 0,
                    host_power.idle_w
                    + host_power.subflow_overhead_w * np.maximum(0, endpoints - 1),
                    0.0,
                )
            )
        )
        # Egress ports, grouped by switch, for vectorized switch power.
        self.switch_ports = net.switch_egress
        self._per_host = np.empty(len(counts))

    def host_power_now(self, x_bps: np.ndarray, rtt: np.ndarray) -> float:
        """Total host CPU power: static part + per-path marginal terms."""
        pm = self.host_power.path_model
        try:
            marginal = pm.path_power(np, x_bps, rtt)
        except (TypeError, ValueError) as exc:
            # e.g. ``if tau <= 0`` or ``math.exp(tau)`` in a user's model
            raise ConfigurationError(
                f"{type(pm).__name__}'s power formula cannot take arrays: {exc}"
            ) from exc
        self.net.hosts.rmatvec(marginal, self._per_host)
        return self.host_static_w + float(np.sum(self._per_host))

    def switch_power_now(self, util: np.ndarray) -> float:
        """Total switch power: chassis + utilization-proportional ports."""
        sp = self.switch_power
        ports = self.switch_ports
        if len(ports) == 0:
            return sp.chassis_w * len(self.net.topology.switches)
        port_power = sp.port_power(np, util[ports])
        return sp.chassis_w * len(self.net.topology.switches) + float(np.sum(port_power))


@dataclass
class SimulationResult:
    """Outputs of one fluid run."""

    duration: float
    #: Delivered goodput per connection, bits/second (time average).
    connection_goodput_bps: np.ndarray
    #: Total delivered bits per connection.
    connection_bits: np.ndarray
    #: Host CPU energy, joules (summed over hosts).
    host_energy_j: float
    #: Switch energy, joules (summed over switches).
    switch_energy_j: float
    #: Loss events observed per subflow.
    loss_events: np.ndarray
    #: Mean RTT per subflow over the run, seconds.
    mean_rtt: np.ndarray
    #: Mean link utilization over the run (per link).
    mean_utilization: np.ndarray
    #: Sampled time series (coarse): times, aggregate goodput, total power.
    sample_times: List[float] = field(default_factory=list)
    sample_goodput_bps: List[float] = field(default_factory=list)
    sample_power_w: List[float] = field(default_factory=list)

    @property
    def total_energy_j(self) -> float:
        """Host plus switch energy, joules."""
        return self.host_energy_j + self.switch_energy_j

    @property
    def aggregate_goodput_bps(self) -> float:
        """Sum of connection goodputs, bits/second."""
        return float(np.sum(self.connection_goodput_bps))

    def energy_per_gb(self) -> float:
        """Energy overhead in joules per delivered decimal gigabyte — the
        y-axis of the paper's Figs. 12-15."""
        delivered_gb = float(np.sum(self.connection_bits)) / 8e9
        if delivered_gb <= 0:
            return float("inf")
        return self.total_energy_j / delivered_gb


def fluid_metrics(
    *,
    aggregate_goodput_bps: float,
    host_energy_j: float,
    switch_energy_j: float,
    delivered_bits: float,
    loss_events: int,
    mean_rtt_s: float,
    mean_utilization: float,
    n_connections: int,
    n_subflows: int,
    steps_taken: int,
) -> Dict[str, Any]:
    """The deterministic ``metrics`` of one fluid run, from its totals.

    The one statement of the keys campaign payloads, sweeps and reports
    read: a stepped run reaches it through :func:`run_metrics`, a sharded
    one after the merge, a solved equilibrium with ``steps_taken=0``.
    """
    total_energy_j = host_energy_j + switch_energy_j
    delivered_gb = delivered_bits / 8e9
    return {
        "energy_per_gb": (total_energy_j / delivered_gb
                          if delivered_gb > 0 else float("inf")),
        "aggregate_goodput_bps": aggregate_goodput_bps,
        "host_energy_j": host_energy_j,
        "switch_energy_j": switch_energy_j,
        "total_energy_j": total_energy_j,
        "delivered_bits": delivered_bits,
        "loss_events": loss_events,
        "mean_rtt_s": mean_rtt_s,
        "mean_utilization": mean_utilization,
        "n_connections": n_connections,
        "n_subflows_total": n_subflows,
        "steps_taken": steps_taken,
    }


class _StepBuffers:
    """Preallocated per-step work arrays.

    One instance per simulation, sized once from the network; every step
    of :meth:`FluidSimulation.run` writes into these with ``out=`` forms
    instead of allocating temporaries.
    """

    __slots__ = (
        "x_pkts", "x_bps", "qdelay", "p_path", "marked_path", "lam",
        "sub_tmp", "can_lose", "lt", "losing",
        "y", "overload", "link_tmp", "denom", "ratio", "p_link",
        "marked_link", "util", "qc", "full", "lossy", "mark_bool",
        "full_threshold",
        "fold_idx", "fold_w", "fold_head", "delivered",
    )

    def __init__(self, net: FluidNetwork,
                 dtype: np.dtype = np.dtype(np.float64)):
        n = net.n_subflows
        n_links = net.n_links
        n_conns = len(net.connections)
        self.y = np.empty(n_links, dtype=dtype)
        self.x_pkts = np.empty(n, dtype=dtype)
        self.x_bps = np.empty(n, dtype=dtype)
        self.qdelay = np.empty(n, dtype=dtype)
        self.p_path = np.empty(n, dtype=dtype)
        self.marked_path = np.empty(n, dtype=dtype)
        self.lam = np.empty(n, dtype=dtype)
        self.sub_tmp = np.empty(n, dtype=dtype)
        self.can_lose = np.empty(n, dtype=bool)
        self.lt = np.empty(n, dtype=bool)
        self.losing = np.empty(n, dtype=bool)
        self.overload = np.empty(n_links, dtype=dtype)
        self.link_tmp = np.empty(n_links, dtype=dtype)
        self.denom = np.empty(n_links, dtype=dtype)
        self.ratio = np.empty(n_links, dtype=dtype)
        self.p_link = np.empty(n_links, dtype=dtype)
        self.marked_link = np.empty(n_links, dtype=dtype)
        self.util = np.empty(n_links, dtype=dtype)
        self.qc = np.empty(n_links, dtype=dtype)
        self.full = np.empty(n_links, dtype=bool)
        self.lossy = np.empty(n_links, dtype=bool)
        self.mark_bool = np.empty(n_links, dtype=bool)
        #: buffer_bits * 0.999 hoisted out of the loop (the product is
        #: deterministic, so precomputing preserves bit-identity); one
        #: value broadcast, as the buffer is.
        self.full_threshold = np.broadcast_to(
            (net.buffer_bits[:1] * 0.999).astype(dtype), (n_links,))
        # Seeded-head bincount fold replacing np.add.at on delivered_bits:
        # the fold input lists each connection's current total first, then
        # every subflow's delivery in storage order, so each bin
        # accumulates 0 + total + deliveries — the exact sequential order
        # np.add.at would have used.
        self.fold_idx = np.concatenate([
            np.arange(n_conns, dtype=np.intp),
            net.subflow_conn.astype(np.intp),
        ])
        self.fold_w = np.empty(n_conns + n)
        self.fold_head = self.fold_w[:n_conns]
        self.delivered = self.fold_w[n_conns:]


class FluidSimulation:
    """Integrates a finalized :class:`FluidNetwork`.

    ``dtype`` picks the step-loop precision: ``"float64"`` (the
    reference), ``"float32"`` (half the memory traffic; windows and rates
    carry ~7 significant digits, which moves per-connection goodput by
    well under a percent on the fleets it is meant for — see USAGE.md §14
    for measured drift bounds), or ``"auto"`` (float32 once the network
    reaches ``_FLOAT32_AUTO_THRESHOLD`` subflows, float64 below).
    Delivered bits, RTT/utilization means and energy integrate in float64
    in every mode.
    """

    def __init__(
        self,
        network: FluidNetwork,
        *,
        dt: float = 0.005,
        seed: Optional[int] = None,
        switch_power: Optional[SwitchPowerModel] = None,
        initial_window: float = 10.0,
        metrics: Optional["obs.MetricsRegistry"] = None,
        tracer=None,
        dtype: str = "auto",
    ):
        if network.base_rtt is None:
            raise ConfigurationError("finalize() the FluidNetwork before simulating")
        if not (math.isfinite(dt) and dt > 0):
            raise ConfigurationError(f"dt must be positive and finite, got {dt}")
        if not (math.isfinite(initial_window) and initial_window >= 1):
            raise ConfigurationError(
                f"initial_window must be finite and >= 1 segment, got {initial_window}")
        if dtype not in _DTYPE_MODES:
            raise ConfigurationError(
                f"dtype must be one of {_DTYPE_MODES}, got {dtype!r}")
        self.net = network
        self.dt = dt
        self.rng = Pcg64(seed)
        #: Work arrays, allocated on the first run().
        self._buffers: Optional[_StepBuffers] = None
        # Registry-backed run counters (read by campaign telemetry for
        # steps/second without instrumenting callers) plus the per-step
        # probe instruments; :attr:`steps_taken` / :attr:`wall_time_s`
        # remain available as compatibility properties.
        self.metrics = metrics if metrics is not None else obs.registry_or_new()
        self.tracer = tracer if tracer is not None else obs.current_tracer()
        self._steps_counter = self.metrics.counter("engine.steps_taken")
        self._wall_counter = self.metrics.counter("engine.wall_time_s")
        self._residual_gauge = self.metrics.gauge("fluid.residual")
        self._rate_norm_hist = self.metrics.histogram(
            "fluid.rate_norm_bps", obs.geometric_buckets(1e3, 1e13, 10.0))
        self._prev_w: Optional[np.ndarray] = None
        self.switch_power = switch_power if switch_power is not None else SwitchPowerModel()

        n = network.n_subflows
        #: Resolved compute dtype for the step-loop state and work arrays.
        #: ``"auto"`` stays float64 until the subflow count is large
        #: enough that float32's halved memory traffic pays for its
        #: rounding (see USAGE.md for the measured drift bounds).
        #: Accumulators (delivered bits, RTT/utilization means, energy)
        #: are float64 in every mode.
        if dtype == "float32":
            self.compute_dtype = np.dtype(np.float32)
        elif dtype == "auto" and n >= _FLOAT32_AUTO_THRESHOLD:
            self.compute_dtype = np.dtype(np.float32)
        else:
            self.compute_dtype = np.dtype(np.float64)
        self.w = np.full(n, float(initial_window), dtype=self.compute_dtype)
        self.rtt = network.base_rtt.astype(self.compute_dtype)
        self.queue_bits = np.zeros(network.n_links, dtype=self.compute_dtype)
        self.loss_events = np.zeros(n)
        self.recovery_until = np.zeros(n)
        self.delivered_bits = np.zeros(len(network.connections))
        #: Steps integrated so far: the clock successive run() calls share
        #: (the ``engine.steps_taken`` counter cannot serve — sims reporting
        #: into one registry share it).
        self._clock_steps = 0
        self.ecn_threshold_bits = (
            _ECN_THRESHOLD_FRACTION * float(network.buffer_bits[0]))
        #: Shared host/switch power arithmetic (also used standalone by
        #: the equilibrium executor).
        self.power = PowerEvaluator(network, default_wired_host(),
                                    self.switch_power)

    # ------------------------------------------------------------------ run

    @property
    def steps_taken(self) -> int:
        """Integration steps executed so far (compat view of the
        ``engine.steps_taken`` counter)."""
        return int(self._steps_counter.value)

    @property
    def wall_time_s(self) -> float:
        """Wall-clock seconds spent in run() so far (compat view of the
        ``engine.wall_time_s`` counter)."""
        return float(self._wall_counter.value)

    def _build_cohort_views(self, b: _StepBuffers):
        """Per-cohort :class:`CohortState`\\ s viewing the engine buffers.

        ``finalize()`` stores each cohort's subflows contiguously, so
        every view is a slice. Rebuilt per run, not per step.
        """
        views = []
        net = self.net
        base_rtt = net.compute_arrays(self.compute_dtype).base_rtt
        base_adj = FluidAlgorithm.rate_adjustment
        for cohort in net.cohorts:
            sl = cohort.span
            st = CohortState(
                w=self.w[sl],
                rtt=self.rtt[sl],
                base_rtt=base_rtt[sl],
                loss=b.p_path[sl],
                queueing=b.qdelay[sl],
                switch_hops=net.switch_hops[sl],
                ecn_marked=b.marked_path[sl],
                user_starts=cohort.user_starts,
                x=b.x_pkts[sl],
            )
            # Algorithms still on the base-class rate_adjustment return
            # all-zeros; adding that is the identity on the eventual
            # st.w + dw (w >= 1, so the sign of a zero dw cannot show),
            # and skipping the call + add is safe.
            has_adj = type(cohort.algorithm).rate_adjustment is not base_adj
            views.append((cohort, st, sl,
                          np.empty(sl.stop - sl.start, dtype=self.compute_dtype),
                          has_adj))
        return views

    def run(self, duration: float) -> SimulationResult:
        """Integrate for ``duration`` seconds and return the results.

        ``duration`` must be a whole number of ``dt`` steps
        (:func:`~repro.units.whole_steps`), the time the run covers.
        Successive calls continue one trajectory; each result covers the
        call it is returned from.
        """
        if not (math.isfinite(duration) and duration > 0):
            raise ConfigurationError(
                f"duration must be positive and finite, got {duration}")
        n_steps = whole_steps(duration, self.dt)
        wall_start = time.perf_counter()
        net = self.net
        dt = self.dt
        pkt_bits = net.packet_bits
        # All step-loop constants in the resolved compute dtype (the
        # float64 entries are the canonical arrays themselves).
        ca = net.compute_arrays(self.compute_dtype)
        cap = ca.capacity
        buf = ca.buffer_bits
        base_rtt = ca.base_rtt
        inv_cap = ca.inv_capacity
        mul_R, mul_Rt, R_data = net.paths.rmatvec, net.paths.matvec, ca.paths_data
        n = len(self.w)
        n_links = net.n_links
        n_conns = len(net.connections)
        bits_before = self.delivered_bits.copy()
        losses_before = self.loss_events.copy()
        first = self._clock_steps

        if self._buffers is None:
            self._buffers = _StepBuffers(net, self.compute_dtype)
        b = self._buffers
        views = self._build_cohort_views(b)

        # Loss uniforms, one row per step, read on lossy steps only.
        # total_rows == n_steps, so the generator ends where one draw per
        # subflow and step would leave it.
        uniforms = UniformBlocks(self.rng, n, n_steps,
                                 rows_per_block=_RNG_BLOCK_STEPS)

        # Accumulators stay float64 in every compute dtype: they sum
        # O(n_steps) terms and would lose the tail in float32.
        rtt_accum = np.zeros(n)
        util_accum = np.zeros(n_links)
        host_energy = 0.0
        switch_energy = 0.0
        samples_t: List[float] = []
        samples_goodput: List[float] = []
        samples_power: List[float] = []

        tracer = self.tracer
        traced = tracer.enabled
        probe_span = tracer.span("fluid.run", duration=duration,
                                 n_steps=n_steps, n_subflows=n)
        probe_span.__enter__()
        steps_done = 0
        ese = _ENERGY_SAMPLE_EVERY
        try:
            for step in range(n_steps):
                now = (first + step + 1) * dt
                np.divide(self.w, self.rtt, out=b.x_pkts)
                np.multiply(b.x_pkts, pkt_bits, out=b.x_bps)
                mul_R(b.x_bps, b.y, R_data)
                y = b.y
                # Queues and loss.
                np.subtract(y, cap, out=b.overload)
                np.multiply(b.overload, dt, out=b.link_tmp)
                np.add(self.queue_bits, b.link_tmp, out=self.queue_bits)
                np.clip(self.queue_bits, 0.0, buf, out=self.queue_bits)
                np.greater_equal(self.queue_bits, b.full_threshold, out=b.full)
                np.greater(b.overload, 0, out=b.lossy)
                np.logical_and(b.lossy, b.full, out=b.lossy)
                # Zero-loss shortcut: most steps drop nothing, and with
                # p_link == 0 the whole loss pipeline collapses exactly —
                # p_path = min(Rt@0, .5) = 0, delivered = x*(1-0)*dt =
                # x*dt bit-for-bit (x*1.0 == x), loss probability
                # 1-exp(-0) = 0 so no subflow can lose. Only the RNG row
                # must still be skipped to keep the stream aligned.
                lossy_step = bool(b.lossy.any())
                if lossy_step:
                    np.maximum(y, _EPS, out=b.denom)
                    np.divide(b.overload, b.denom, out=b.ratio)
                    b.p_link.fill(0.0)
                    np.copyto(b.p_link, b.ratio, where=b.lossy)
                np.greater(self.queue_bits, self.ecn_threshold_bits,
                           out=b.mark_bool)
                np.copyto(b.marked_link, b.mark_bool, casting="unsafe")
                # Per-subflow path state.
                np.multiply(self.queue_bits, inv_cap, out=b.qc)
                mul_Rt(b.qc, b.qdelay, R_data)
                if lossy_step:
                    mul_Rt(b.p_link, b.p_path, R_data)
                    np.minimum(b.p_path, 0.5, out=b.p_path)
                else:
                    b.p_path.fill(0.0)
                mul_Rt(b.marked_link, b.marked_path, R_data)
                np.minimum(b.marked_path, 1.0, out=b.marked_path)
                np.add(base_rtt, b.qdelay, out=self.rtt)
                np.multiply(y, inv_cap, out=b.util)
                np.minimum(b.util, 1.0, out=b.util)

                # delivered = x_bps * (1 - p_path) * dt, folded into
                # delivered_bits via the seeded-head bincount plan.
                if lossy_step:
                    np.subtract(1.0, b.p_path, out=b.sub_tmp)
                    np.multiply(b.x_bps, b.sub_tmp, out=b.sub_tmp)
                    np.multiply(b.sub_tmp, dt, out=b.delivered)
                    goodput_now = b.sub_tmp
                else:
                    np.multiply(b.x_bps, dt, out=b.delivered)
                    goodput_now = b.x_bps
                np.copyto(b.fold_head, self.delivered_bits)
                np.copyto(self.delivered_bits,
                          np.bincount(b.fold_idx, weights=b.fold_w,
                                      minlength=n_conns))

                # Loss events: Poisson thinning, suppressed during recovery.
                if lossy_step:
                    u = uniforms.next_row()
                    np.multiply(b.p_path, b.x_pkts, out=b.lam)
                    np.greater_equal(now, self.recovery_until, out=b.can_lose)
                    np.negative(b.lam, out=b.lam)
                    np.multiply(b.lam, dt, out=b.lam)
                    np.exp(b.lam, out=b.lam)
                    np.subtract(1.0, b.lam, out=b.lam)  # lam now holds prob
                    np.less(u, b.lam, out=b.lt)
                    np.logical_and(b.can_lose, b.lt, out=b.losing)
                else:
                    uniforms.skip_row()

                # Refresh the rate views with the *updated* RTT: the
                # algorithms see current-step queueing delay, while
                # everything up to the loss draw used start-of-step rates.
                np.divide(self.w, self.rtt, out=b.x_pkts)

                # Per-cohort CC updates through the persistent views.
                for cohort, st, sl, dw, has_adj in views:
                    algorithm = cohort.algorithm
                    increase = algorithm.per_ack_increase(st)
                    np.multiply(increase, st.x_pkts, out=dw)
                    np.multiply(dw, dt, out=dw)
                    if has_adj:
                        np.add(dw, algorithm.rate_adjustment(st, dt), out=dw)
                    np.add(st.w, dw, out=dw)  # dw now holds new_w
                    new_w = dw
                    any_lose = False
                    if lossy_step:
                        lose_here = b.losing[sl]
                        if algorithm.uses_ecn:
                            lose_here = lose_here & (st.loss > 0)
                        any_lose = bool(np.any(lose_here))
                    if any_lose:
                        factor = algorithm.loss_decrease_factor(st)
                        new_w = np.where(lose_here, st.w * factor, new_w)
                    np.maximum(new_w, 1.0, out=self.w[sl])
                    if any_lose:
                        self.loss_events[sl][lose_here] += 1
                        self.recovery_until[sl][lose_here] = (
                            now + self.rtt[sl][lose_here])

                rtt_accum += self.rtt
                util_accum += b.util
                steps_done += 1

                # Energy + obs probes (sampled every few steps for speed).
                if step % ese == 0:
                    # Clamp the final window: the sample stands in for the
                    # remaining steps, which may be fewer than a full
                    # sampling interval.
                    window = min(ese, n_steps - step)
                    host_p = self.power.host_power_now(b.x_bps, self.rtt)
                    switch_p = self.power.switch_power_now(b.util)
                    host_energy += host_p * dt * window
                    switch_energy += switch_p * dt * window
                    samples_t.append(now)
                    # goodput_now holds x_bps * (1 - p_path) elementwise
                    # (== x_bps itself on zero-loss steps).
                    samples_goodput.append(float(np.sum(goodput_now)))
                    samples_power.append(host_p + switch_p)
                    rate_norm = float(np.linalg.norm(b.x_bps))
                    self._rate_norm_hist.observe(rate_norm)
                    if self._prev_w is not None and len(self._prev_w) == n:
                        denom = float(np.linalg.norm(self._prev_w))
                        residual = float(
                            np.linalg.norm(self.w - self._prev_w) / (denom + _EPS))
                        self._residual_gauge.set(residual)
                        np.copyto(self._prev_w, self.w)
                    else:
                        residual = float("nan")
                        self._prev_w = self.w.copy()
                    if traced:
                        tracer.instant(
                            "fluid.step", step=step, sim_now=round(now, 6),
                            rate_norm_bps=rate_norm, residual=residual,
                            power_w=host_p + switch_p)
        finally:
            probe_span.__exit__(None, None, None)
            self._clock_steps = first + steps_done
            self._steps_counter.inc(steps_done)
            self._wall_counter.inc(time.perf_counter() - wall_start)
        bits = self.delivered_bits - bits_before
        return SimulationResult(
            duration=duration,
            connection_goodput_bps=bits / duration,
            connection_bits=bits,
            host_energy_j=host_energy,
            switch_energy_j=switch_energy,
            loss_events=self.loss_events - losses_before,
            mean_rtt=rtt_accum / n_steps,
            mean_utilization=util_accum / n_steps,
            sample_times=samples_t,
            sample_goodput_bps=samples_goodput,
            sample_power_w=samples_power,
        )


def run_metrics(sim: FluidSimulation, result: SimulationResult) -> Dict[str, Any]:
    """:func:`fluid_metrics` of the run ``result = sim.run(...)``.

    ``steps_taken`` is the sim's registry counter, so it means this run
    when the sim reports into its own registry (as every runner's does).
    """
    net = sim.net
    return fluid_metrics(
        aggregate_goodput_bps=result.aggregate_goodput_bps,
        host_energy_j=result.host_energy_j,
        switch_energy_j=result.switch_energy_j,
        delivered_bits=float(np.sum(result.connection_bits)),
        loss_events=int(np.sum(result.loss_events)),
        mean_rtt_s=float(np.mean(result.mean_rtt)),
        mean_utilization=float(np.mean(result.mean_utilization)),
        n_connections=len(net.connections),
        n_subflows=net.n_subflows,
        steps_taken=sim.steps_taken,
    )
