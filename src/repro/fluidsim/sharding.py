"""Sharded fluid stepping: independent fabric replicas across processes.

The time-stepped engine is memory-bandwidth bound once a fabric holds
tens of thousands of subflows, and a single permutation workload on one
fat-tree caps out at ``n_hosts`` connections.  City-scale sweeps want an
order of magnitude more.  This module scales *population*, not fabric
size: a sharded run steps ``n_shards`` full replicas of the topology,
each carrying its own independently-seeded permutation workload, and
merges their results.

Sharding is **exact**, not an approximation.  Two replicas share no
links and no subflows, so stepping them in separate processes is
algebraically identical to stepping one block-diagonal network that
contains both — there is no coupling term to drop.  Each shard's
dynamics are fully determined by its :class:`ShardSpec` (derived seeds
included), which makes the merged result byte-identical whether shards
run serially in one process or fan out over a pool — the same
determinism contract the campaign executor makes for whole runs.

:func:`simulate_shard` is the module-level worker (picklable for
``ProcessPoolExecutor``); :func:`run_sharded` builds the specs, fans
out, and folds the per-shard payloads into a :class:`ShardedResult`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.errors import ConfigurationError
from repro.fluidsim.engine import FluidSimulation, fluid_metrics, run_metrics
from repro.fluidsim.network import FluidNetwork
from repro.units import ms, whole_steps

#: Multiplier folding the shard index into the base seed.  Prime and
#: far larger than any realistic shard count, so shard streams of one
#: run never collide with each other or with neighbouring base seeds.
_SHARD_SEED_STRIDE = 100_003


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard needs to rebuild and step its replica."""

    topology: str
    algorithm: str
    n_subflows: int
    duration: float
    dt: float
    seed: int
    shard_index: int
    n_shards: int
    link_delay: float = ms(1)
    dtype: str = "auto"
    path_pool: int = 64
    initial_window: float = 10.0

    @property
    def shard_seed(self) -> int:
        """Derived seed for this shard's paths, workload, and engine."""
        return self.seed * _SHARD_SEED_STRIDE + self.shard_index


def simulate_shard(spec: ShardSpec) -> Dict[str, Any]:
    """Build and step one shard; the pool's worker function.

    Derives everything from the spec (module-level so the pool can
    pickle it) and returns the shard's :func:`run_metrics` plus what the
    merge weighs by, already reduced to scalars, and its registry's
    snapshot (``obs``) with each instrument's kind (``obs_kinds``).
    """
    # Lazy: campaign.spec imports nothing from fluidsim, but keeping the
    # import local avoids making the fluid package depend on the
    # campaign layer at import time.
    from repro.campaign.spec import build_topology

    t0 = time.perf_counter()
    net = FluidNetwork.permutation(
        build_topology(spec.topology, link_delay=spec.link_delay),
        spec.algorithm, n_subflows=spec.n_subflows, seed=spec.shard_seed,
        path_pool=spec.path_pool)
    # A private registry: shards sharing an ambient obs session (or
    # forked from one) must not accumulate each other's engine counters
    # into their payloads.
    registry = obs.MetricsRegistry()
    sim = FluidSimulation(net, dt=spec.dt, seed=spec.shard_seed,
                          dtype=spec.dtype,
                          initial_window=spec.initial_window,
                          metrics=registry)
    return {
        **run_metrics(sim, sim.run(spec.duration)),
        "n_links": net.n_links,
        "wall_s": time.perf_counter() - t0,
        "obs": registry.snapshot(),
        "obs_kinds": {inst.name: inst.kind for inst in registry.instruments()},
    }


@dataclass(frozen=True)
class ShardedResult:
    """Merged outcome of a sharded run (sums over shard replicas)."""

    n_shards: int
    n_subflows: int
    n_connections: int
    aggregate_goodput_bps: float
    delivered_bits: float
    host_energy_j: float
    switch_energy_j: float
    loss_events: int
    #: Subflow-weighted mean RTT across shards, seconds.
    mean_rtt_s: float
    #: Link-weighted mean utilization across shards.
    mean_utilization: float
    steps_taken: int
    #: Worker wall-clock seconds per shard, shard order.
    shard_wall_s: Tuple[float, ...]
    #: The shards' registry snapshots folded into one (counters sum,
    #: gauges take the last shard's value).  It holds wall-clock
    #: counters, so results compare equal without it.
    obs: Dict[str, Any] = field(default_factory=dict, compare=False)

    def metrics(self) -> Dict[str, Any]:
        """:func:`fluid_metrics` of the merged totals, plus ``n_shards``
        (the other fields are that function's arguments by name)."""
        totals = asdict(self)
        del totals["shard_wall_s"], totals["obs"]
        n_shards = totals.pop("n_shards")
        return {**fluid_metrics(**totals), "n_shards": n_shards}


def make_shard_specs(
    topology: str,
    *,
    n_shards: int,
    algorithm: str = "lia",
    n_subflows: int = 2,
    duration: float = 10.0,
    dt: float = 0.004,
    seed: int = 1,
    link_delay: float = ms(1),
    dtype: str = "auto",
    path_pool: int = 64,
) -> List[ShardSpec]:
    """The shard specs of one sharded run, shard order."""
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    whole_steps(duration, dt)  # before any shard builds its replica
    return [
        ShardSpec(
            topology=topology, algorithm=algorithm, n_subflows=n_subflows,
            duration=duration, dt=dt, seed=seed, shard_index=i,
            n_shards=n_shards, link_delay=link_delay, dtype=dtype,
            path_pool=path_pool)
        for i in range(n_shards)
    ]


def merge_shard_payloads(payloads: Sequence[Dict[str, Any]]) -> ShardedResult:
    """Fold per-shard summaries (shard order) into one result.

    Pure arithmetic on the already-reduced scalars, so the merge is
    identical however the payloads were produced.  The shards' ``obs``
    snapshots fold by :meth:`~repro.obs.MetricsRegistry.merge_snapshot`.
    """
    if not payloads:
        raise ConfigurationError("cannot merge zero shard payloads")
    registry = obs.MetricsRegistry()
    for p in payloads:
        registry.merge_snapshot(p.get("obs", {}), p.get("obs_kinds"))
    subflows = np.array([p["n_subflows_total"] for p in payloads], dtype=float)
    links = np.array([p["n_links"] for p in payloads], dtype=float)
    rtts = np.array([p["mean_rtt_s"] for p in payloads])
    utils = np.array([p["mean_utilization"] for p in payloads])
    return ShardedResult(
        n_shards=len(payloads),
        n_subflows=int(np.sum(subflows)),
        n_connections=sum(p["n_connections"] for p in payloads),
        aggregate_goodput_bps=float(
            sum(p["aggregate_goodput_bps"] for p in payloads)),
        delivered_bits=float(sum(p["delivered_bits"] for p in payloads)),
        host_energy_j=float(sum(p["host_energy_j"] for p in payloads)),
        switch_energy_j=float(sum(p["switch_energy_j"] for p in payloads)),
        loss_events=sum(p["loss_events"] for p in payloads),
        mean_rtt_s=float(np.sum(rtts * subflows) / np.sum(subflows)),
        mean_utilization=float(np.sum(utils * links) / np.sum(links)),
        steps_taken=sum(p["steps_taken"] for p in payloads),
        shard_wall_s=tuple(p["wall_s"] for p in payloads),
        obs=registry.snapshot(),
    )


def run_sharded(
    topology: str,
    *,
    n_shards: int,
    jobs: int = 1,
    **spec_kwargs,
) -> ShardedResult:
    """Step ``n_shards`` replicas of ``topology`` and merge the results.

    ``jobs > 1`` fans the shards out over a process pool; ``jobs=1``
    steps them serially in this process.  Both produce byte-identical
    merged results — each shard is deterministic in its spec and the
    merge runs in shard order.
    """
    specs = make_shard_specs(topology, n_shards=n_shards, **spec_kwargs)
    if jobs > 1:
        # Local: only a pooled run pays for the executor machinery (DESIGN §8).
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as px:
            payloads = list(px.map(simulate_shard, specs))
    else:
        payloads = [simulate_shard(s) for s in specs]
    return merge_shard_payloads(payloads)
