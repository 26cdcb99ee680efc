"""Stage-by-stage recomposition of one fluid ``execute_run`` from public
functions, one span per layer boundary.

``execute_run`` is a single opaque call; to attribute its wall time the
traced pass rebuilds the same run from the functions it is made of
(``build_topology`` -> pairing -> ``add_connection`` loop -> ``finalize``
-> ``FluidSimulation.run`` or ``solve_fluid_equilibrium`` -> metric
extraction) and then asserts the metrics equal ``execute_run``'s bit for
bit, so the decomposition cannot drift from the thing it decomposes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from common import Spans


@dataclass
class Staged:
    """What one staged run produced (metrics plus the live objects)."""

    metrics: Optional[Dict[str, Any]]
    net: Any
    #: ``FluidSimulation`` (engine "fluid") or ``FluidEquilibrium``.
    engine: Any
    result: Any = None


def _stepped_metrics(net, result, steps_taken: int) -> Dict[str, Any]:
    return {
        "energy_per_gb": result.energy_per_gb(),
        "aggregate_goodput_bps": result.aggregate_goodput_bps,
        "host_energy_j": result.host_energy_j,
        "switch_energy_j": result.switch_energy_j,
        "total_energy_j": result.total_energy_j,
        "delivered_bits": float(np.sum(result.connection_bits)),
        "loss_events": int(np.sum(result.loss_events)),
        "mean_rtt_s": float(np.mean(result.mean_rtt)),
        "mean_utilization": float(np.mean(result.mean_utilization)),
        "n_connections": len(net.connections),
        "n_subflows_total": net.n_subflows,
        "steps_taken": steps_taken,
    }


def _equilibrium_metrics(net, eq, duration: float, power) -> Dict[str, Any]:
    # Same operation order as the executor: the comparison is bitwise.
    x_bps = eq.x_pkts * net.packet_bits
    host_energy = power.host_power_now(x_bps, eq.rtt) * duration
    switch_energy = power.switch_power_now(eq.link_utilization) * duration
    delivered_bits = eq.aggregate_goodput_bps * duration
    lam = eq.p_path * eq.x_pkts
    eff_rate = lam / (1.0 + lam * eq.rtt)
    delivered_gb = delivered_bits / 8e9
    return {
        "energy_per_gb": ((host_energy + switch_energy) / delivered_gb
                          if delivered_gb > 0 else float("inf")),
        "aggregate_goodput_bps": eq.aggregate_goodput_bps,
        "host_energy_j": host_energy,
        "switch_energy_j": switch_energy,
        "total_energy_j": host_energy + switch_energy,
        "delivered_bits": delivered_bits,
        "loss_events": int(np.sum(eff_rate) * duration),
        "mean_rtt_s": float(np.mean(eq.rtt)),
        "mean_utilization": float(np.mean(eq.link_utilization)),
        "n_connections": len(net.connections),
        "n_subflows_total": net.n_subflows,
        "steps_taken": 0,
        "solver": {"fallback": False, "converged": True,
                   "iterations": eq.iterations, "residual": eq.residual},
    }


def stage_fluid_run(spans: Spans, spec, *, seed: Optional[int] = None,
                    sim_kwargs: Optional[dict] = None,
                    path_pool: Optional[int] = None) -> Staged:
    """Rebuild ``execute_run(spec)`` (engine ``fluid`` without shards, or
    ``fluid-equilibrium``) under spans.

    ``seed``/``sim_kwargs``/``path_pool`` let the caller stage one *shard*
    of a sharded run, whose derived seed and engine knobs are not fields
    of the spec.  ``metrics`` is None when the solver did not converge
    (``execute_run`` falls back to stepping there; nothing to compare).
    """
    import repro.obs as obs
    from repro.campaign import build_topology
    from repro.energy.cpu import default_wired_host
    from repro.energy.switch import SwitchPowerModel
    from repro.fluidsim import (FluidNetwork, FluidSimulation, PowerEvaluator,
                                solve_fluid_equilibrium)
    from repro.workloads.permutation import random_permutation_pairs

    seed = spec.seed if seed is None else seed
    pool = {} if path_pool is None else {"path_pool": path_pool}
    with spans.span("staged.run", spec=spec.content_hash()[:12],
                    engine=spec.engine, topology=spec.topology):
        with spans.span("topology.build"):
            topo = build_topology(spec.topology, link_delay=spec.link_delay)
        with spans.span("workloads.pairing"):
            pairs = random_permutation_pairs(topo.hosts,
                                             np.random.default_rng(seed))
        with spans.span("fluidsim.network.paths"):
            net = FluidNetwork(topo, path_seed=seed)
            for src, dst in pairs:
                net.add_connection(src, dst, spec.algorithm,
                                   n_subflows=spec.n_subflows, **pool)
        with spans.span("fluidsim.network.finalize"):
            net.finalize()
        if spec.engine == "fluid":
            kwargs = dict(spec.params) if sim_kwargs is None else sim_kwargs
            with spans.span("fluidsim.engine.init"):
                sim = FluidSimulation(net, dt=spec.dt, seed=seed,
                                      metrics=obs.MetricsRegistry(), **kwargs)
            with spans.span("fluidsim.engine.step"):
                result = sim.run(spec.duration)
            with spans.span("campaign.metrics"):
                metrics = _stepped_metrics(net, result, sim.steps_taken)
            return Staged(metrics, net, sim, result)
        with spans.span("fluidsim.equilibrium.solve"):
            eq = solve_fluid_equilibrium(net)
        if not eq.converged:
            return Staged(None, net, eq)
        with spans.span("campaign.metrics"):
            power = PowerEvaluator(net, default_wired_host(),
                                   SwitchPowerModel())
            metrics = _equilibrium_metrics(net, eq, spec.duration, power)
        return Staged(metrics, net, eq)


def evaluator_us(net, x_bps, rtt, util, calls: int = 100) -> float:
    """Isolated ``PowerEvaluator`` cost on a run's final state: micro-
    seconds per (host power + switch power) evaluation."""
    from repro.energy.cpu import default_wired_host
    from repro.energy.switch import SwitchPowerModel
    from repro.fluidsim import PowerEvaluator

    power = PowerEvaluator(net, default_wired_host(), SwitchPowerModel())
    t0 = time.perf_counter()
    for _ in range(calls):
        power.host_power_now(x_bps, rtt)
        power.switch_power_now(util)
    return (time.perf_counter() - t0) / calls * 1e6


def source_capacity_bps(net) -> float:
    """Sum over connections of the sender's access capacity (the distinct
    first links its paths leave by): the ceiling on delivered goodput."""
    total = 0.0
    for conn in net.connections:
        first = {path.link_indices[0] for path in conn.paths}
        total += float(sum(net.capacity[i] for i in first))
    return total
