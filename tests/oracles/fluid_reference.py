"""Straight-line transcription of the fluid step loop (the paper's Eq. 3
integrated with forward Euler), one allocating numpy expression per line
of the model. ``FluidSimulation.run`` must match it bit for bit — every
``SimulationResult`` array, the obs instruments, the ``fluid.step`` trace
instants and the RNG stream; ``tests/test_fluid_fastpath.py`` holds that
property. The reference draws its loss uniforms from a numpy ``Generator``
of its own, one ``random(n)`` per step, so the engine's stdlib generator,
its array fill and its skipped rows are held against numpy's stream, not
against themselves. Lived in the engine as ``FluidSimulation._run_legacy`` until
ISSUE 15. Its routing products are scipy's own ``R @ x`` on two matrices —
``R^T`` viewing the network's path table, ``R`` scipy's transpose of it —
so the engine's two kernels on one table are held against the operator on
a matrix each, not against themselves.
"""

import time
from typing import List

import numpy as np
from scipy import sparse

from repro.fluidsim.engine import (_ENERGY_SAMPLE_EVERY, _EPS, FluidSimulation,
                                   SimulationResult)
from repro.fluidsim.state import CohortState


def run_reference(sim: FluidSimulation, duration: float,
                  rng: np.random.Generator) -> SimulationResult:
    """Advance ``sim`` by ``duration`` with the reference loop, drawing
    from ``rng`` (seeded as ``sim`` was).

    Reads and writes the simulation's own state (windows, RTTs, queues,
    counters, tracer) but not its generator, so successive calls continue
    one trajectory exactly as successive ``sim.run()`` calls do.
    """
    wall_start = time.perf_counter()
    net = sim.net
    n_steps = max(1, int(round(duration / sim.dt)))
    dt = sim.dt
    pkt_bits = net.packet_bits
    cap = net.capacity
    buf = net.buffer_bits
    paths = net.paths
    Rt = sparse.csr_matrix((paths.data, paths.indices, paths.indptr),
                           shape=paths.shape)
    R = Rt.T.tocsr()
    inv_cap = 1.0 / cap
    bits_before = sim.delivered_bits.copy()
    losses_before = sim.loss_events.copy()
    first = sim._clock_steps

    rtt_accum = np.zeros_like(sim.w)
    util_accum = np.zeros(net.n_links)
    host_energy = 0.0
    switch_energy = 0.0
    samples_t: List[float] = []
    samples_goodput: List[float] = []
    samples_power: List[float] = []

    tracer = sim.tracer
    traced = tracer.enabled
    probe_span = tracer.span("fluid.run", duration=duration,
                             n_steps=n_steps, n_subflows=len(sim.w))
    probe_span.__enter__()
    steps_done = 0
    try:
        for step in range(n_steps):
            now = (first + step + 1) * dt
            x_pkts = sim.w / sim.rtt
            x_bps = x_pkts * pkt_bits
            y = R @ x_bps
            # Queues and loss.
            overload = y - cap
            sim.queue_bits += overload * dt
            np.clip(sim.queue_bits, 0.0, buf, out=sim.queue_bits)
            full = sim.queue_bits >= buf * 0.999
            p_link = np.where((overload > 0) & full,
                              overload / np.maximum(y, _EPS), 0.0)
            marked_link = (sim.queue_bits > sim.ecn_threshold_bits).astype(float)
            # Per-subflow path state.
            qdelay = Rt @ (sim.queue_bits * inv_cap)
            sim.rtt = net.base_rtt + qdelay
            p_path = np.minimum(Rt @ p_link, 0.5)
            marked_path = np.minimum(Rt @ marked_link, 1.0)
            util = np.minimum(y * inv_cap, 1.0)

            delivered = x_bps * (1.0 - p_path) * dt
            np.add.at(sim.delivered_bits, net.subflow_conn, delivered)

            # Loss events: Poisson thinning, suppressed during recovery.
            lam = p_path * x_pkts
            can_lose = now >= sim.recovery_until
            prob = 1.0 - np.exp(-lam * dt)
            losing = can_lose & (rng.random(len(sim.w)) < prob)

            # Per-cohort CC updates.
            for cohort in net.cohorts:
                ids = np.arange(cohort.span.start, cohort.span.stop)
                st = CohortState(
                    w=sim.w[ids],
                    rtt=sim.rtt[ids],
                    base_rtt=net.base_rtt[ids],
                    loss=p_path[ids],
                    queueing=qdelay[ids],
                    switch_hops=net.switch_hops[ids],
                    ecn_marked=marked_path[ids],
                    user_starts=cohort.user_starts,
                )
                increase = cohort.algorithm.per_ack_increase(st)
                dw = increase * st.x_pkts * dt
                dw += cohort.algorithm.rate_adjustment(st, dt)
                new_w = st.w + dw
                lose_here = losing[ids]
                if cohort.algorithm.uses_ecn:
                    lose_here = lose_here & (st.loss > 0)
                if np.any(lose_here):
                    factor = cohort.algorithm.loss_decrease_factor(st)
                    new_w = np.where(lose_here, st.w * factor, new_w)
                sim.w[ids] = np.maximum(new_w, 1.0)
                if np.any(lose_here):
                    gids = ids[lose_here]
                    sim.loss_events[gids] += 1
                    sim.recovery_until[gids] = now + sim.rtt[gids]

            rtt_accum += sim.rtt
            util_accum += util
            steps_done += 1

            # Energy + obs probes (sampled every few steps for speed).
            if step % _ENERGY_SAMPLE_EVERY == 0:
                # Clamp the final window: the sample stands in for the
                # remaining steps, which may be fewer than a full
                # sampling interval.
                window = min(_ENERGY_SAMPLE_EVERY, n_steps - step)
                host_p = sim.power.host_power_now(x_bps, sim.rtt)
                switch_p = sim.power.switch_power_now(util)
                host_energy += host_p * dt * window
                switch_energy += switch_p * dt * window
                samples_t.append(now)
                samples_goodput.append(float(np.sum(x_bps * (1.0 - p_path))))
                samples_power.append(host_p + switch_p)
                # Rate-vector norm and convergence residual: how far
                # the window vector moved since the last sample,
                # relative to its magnitude — near zero at the
                # equilibrium of the Section IV fluid model.
                rate_norm = float(np.linalg.norm(x_bps))
                sim._rate_norm_hist.observe(rate_norm)
                if sim._prev_w is not None and len(sim._prev_w) == len(sim.w):
                    denom = float(np.linalg.norm(sim._prev_w))
                    residual = float(
                        np.linalg.norm(sim.w - sim._prev_w) / (denom + _EPS))
                    sim._residual_gauge.set(residual)
                else:
                    residual = float("nan")
                sim._prev_w = sim.w.copy()
                if traced:
                    tracer.instant(
                        "fluid.step", step=step, sim_now=round(now, 6),
                        rate_norm_bps=rate_norm, residual=residual,
                        power_w=host_p + switch_p)
    finally:
        probe_span.__exit__(None, None, None)
        sim._clock_steps = first + steps_done
        sim._steps_counter.inc(steps_done)
        sim._wall_counter.inc(time.perf_counter() - wall_start)
    bits = sim.delivered_bits - bits_before
    return SimulationResult(
        duration=duration,
        connection_goodput_bps=bits / duration,
        connection_bits=bits,
        host_energy_j=host_energy,
        switch_energy_j=switch_energy,
        loss_events=sim.loss_events - losses_before,
        mean_rtt=rtt_accum / n_steps,
        mean_utilization=util_accum / n_steps,
        sample_times=samples_t,
        sample_goodput_bps=samples_goodput,
        sample_power_w=samples_power,
    )
