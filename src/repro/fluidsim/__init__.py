"""Fluid/window-dynamics simulator for datacenter-scale experiments.

The offline substitute for the C++ ``htsim`` simulator used in the paper's
Figs. 10 and 12-16: pure-Python packet simulation of 128 hosts x 8 subflows
x 1000 s is infeasible, but the quantities those figures depend on —
per-path equilibrium rates, loss rates, RTT inflation, link utilization and
the energy integrals over them — are exactly what a fluid model of the
window dynamics (the paper's own Eq. 3) computes. The engine advances all
subflow windows synchronously with vectorized numpy updates: link loads and
queues from a sparse routing matrix, loss events sampled per subflow (at
most one per RTT, as fast recovery enforces), and the same per-ACK
increase rules as the packet-level controllers.

Two scale levers sit alongside the stepping engine:

- :mod:`repro.fluidsim.equilibrium` solves the stationary state of a
  network *directly* (a damped relaxation on the window-balance and
  capacity conditions) instead of integrating to it — orders of
  magnitude faster on large fabrics for the supported algorithms;
- :mod:`repro.fluidsim.sharding` steps many independently-seeded
  replicas of a topology across a process pool and merges them exactly,
  growing subflow populations past what one process holds comfortably.

Each name resolves on first use (DESIGN.md §8): a stepped run loads the
network, the adapters and the engine, never the solver or the shard
pool, and ``import repro.fluidsim`` alone loads none of them.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.fluidsim.adapters import (
        FluidAlgorithm,
        create_fluid_algorithm,
        fluid_algorithm_names,
    )
    from repro.fluidsim.engine import (
        FluidSimulation,
        PowerEvaluator,
        SimulationResult,
        fluid_metrics,
        run_metrics,
    )
    from repro.fluidsim.equilibrium import (
        FluidEquilibrium,
        equilibrium_supported,
        solve_fluid_equilibrium,
    )
    from repro.fluidsim.network import FluidConnection, FluidNetwork
    from repro.fluidsim.sharding import (
        ShardedResult,
        ShardSpec,
        make_shard_specs,
        merge_shard_payloads,
        run_sharded,
        simulate_shard,
    )

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.fluidsim.adapters": (
        "FluidAlgorithm", "create_fluid_algorithm", "fluid_algorithm_names",
    ),
    "repro.fluidsim.engine": (
        "FluidSimulation", "PowerEvaluator", "SimulationResult",
        "fluid_metrics", "run_metrics",
    ),
    "repro.fluidsim.equilibrium": (
        "FluidEquilibrium", "equilibrium_supported", "solve_fluid_equilibrium",
    ),
    "repro.fluidsim.network": ("FluidConnection", "FluidNetwork"),
    "repro.fluidsim.sharding": (
        "ShardedResult", "ShardSpec", "make_shard_specs",
        "merge_shard_payloads", "run_sharded", "simulate_shard",
    ),
})

__all__ = [
    "FluidAlgorithm",
    "FluidConnection",
    "FluidEquilibrium",
    "FluidNetwork",
    "FluidSimulation",
    "PowerEvaluator",
    "ShardSpec",
    "ShardedResult",
    "SimulationResult",
    "create_fluid_algorithm",
    "equilibrium_supported",
    "fluid_algorithm_names",
    "fluid_metrics",
    "make_shard_specs",
    "merge_shard_payloads",
    "run_metrics",
    "run_sharded",
    "simulate_shard",
    "solve_fluid_equilibrium",
]
