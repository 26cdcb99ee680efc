"""``fluid_cityscale``: the fluid layers at city scale.

Timed body: ``repro sweep --engine fluid-equilibrium`` over the k=24
fat-tree at 2, 4 and 8 subflows, then one sharded float32 stepping sweep.
Topology build, path enumeration and network build dominate here and
stepping is minor, so a step-kernel gain should show on
``campaign_fig12_14`` and not here, a path-enumeration gain the reverse.
It is the only workload that runs the solver and the shard pool.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from common import Checks, Spans, finite, jain, per_unit, read_jsonl, run_cli
from staged import evaluator_us, source_capacity_bps, stage_fluid_run

JOBS = 2
SHARD_DTYPE = "float32"
PATH_POOL = 8

SIZES = {
    "smoke": {"topologies": ["fattree"], "subflows": [2],
              "shard_topology": "fattree", "shards": 2, "shard_duration": 0.1},
    "bench": {"topologies": ["fattree24"], "subflows": [2, 4, 8],
              "shard_topology": "fattree24", "shards": 2, "shard_duration": 0.5},
}
SHARD_SUBFLOWS = 4
ALGORITHM = "dts"

POOLS: Dict[str, Any] = {}


def inputs(seed: int, size: str) -> Dict[str, Any]:
    return {**SIZES[size], "scenario_seed": seed}


def _solve_argv(inp, scratch: Path) -> List[str]:
    return ["sweep", "--engine", "fluid-equilibrium",
            "--topologies", *inp["topologies"],
            "--subflows", *map(str, inp["subflows"]),
            "--seeds", str(inp["scenario_seed"]), "--algorithm", ALGORITHM,
            "--no-cache", "--log", str(scratch / "solve.log.jsonl")]


def _shard_argv(inp, scratch: Path) -> List[str]:
    return ["sweep", "--engine", "fluid",
            "--topologies", inp["shard_topology"],
            "--subflows", str(SHARD_SUBFLOWS),
            "--seeds", str(inp["scenario_seed"]),
            "--shards", str(inp["shards"]), "--dtype", SHARD_DTYPE,
            "--path-pool", str(PATH_POOL),
            "--duration", str(inp["shard_duration"]), "--jobs", str(JOBS),
            "--no-cache", "--log", str(scratch / "shard.log.jsonl")]


def setup(seed: int, size: str, scratch: Path) -> Dict[str, Any]:
    import repro.cli  # noqa: F401 - the import is part of set-up time
    import repro.fluidsim  # noqa: F401

    return {"inputs": inputs(seed, size), "scratch": scratch}


def teardown(ctx: Dict[str, Any]) -> None:
    pass


def _solve_campaign(inp: Dict[str, Any]):
    """The runs ``_solve_argv`` makes, as specs."""
    from repro.campaign import subflow_sweep_campaign

    return subflow_sweep_campaign(
        inp["topologies"], subflow_counts=inp["subflows"],
        seeds=[inp["scenario_seed"]], algorithm=ALGORITHM,
        engine="fluid-equilibrium")


def _rebuilt_solves(ctx: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every solve of the sweep again, from public functions, untimed and
    untraced: the sweep's log carries no per-connection goodput, and
    ``fairness_x_util`` is Jain index x delivered / access capacity over
    the solver's public per-connection goodput.  A function of the inputs
    alone, so once a process.  A solve that does not converge has no
    equilibrium to score and is left out; ``execute_run`` steps it instead.
    """
    if "rebuilt" not in ctx:
        ctx["rebuilt"] = rebuilt = []
        for spec in _solve_campaign(ctx["inputs"]).runs:
            staged = stage_fluid_run(Spans(), spec)
            if staged.metrics is None:
                continue
            eq, capacity = staged.engine, source_capacity_bps(staged.net)
            rebuilt.append({
                "spec_hash": spec.content_hash(), "capacity_bps": capacity,
                "goodput_bps": eq.aggregate_goodput_bps,
                "score": (jain(eq.connection_goodput_bps.tolist())
                          * eq.aggregate_goodput_bps / capacity)})
    return ctx["rebuilt"]


def body(ctx: Dict[str, Any], checks: Checks) -> Dict[str, Any]:
    from repro.campaign import RunSpec

    inp, scratch = ctx["inputs"], ctx["scratch"]
    wall = joules = gbits = 0.0
    solved: Dict[str, Dict[str, Any]] = {}
    # (argv, runs expected, simulated seconds behind each run's energy)
    plan = [(_solve_argv(inp, scratch),
             len(inp["topologies"]) * len(inp["subflows"]), RunSpec().duration),
            (_shard_argv(inp, scratch), 1, inp["shard_duration"])]
    for argv, n_runs, duration in plan:
        log = Path(argv[argv.index("--log") + 1])
        log.unlink(missing_ok=True)
        rc, _, secs = run_cli(argv)
        wall += secs
        checks.expect(rc == 0, f"{argv[2]} sweep exited {rc}")
        events = read_jsonl(log)
        done = [e for e in events if e["event"] == "run_completed"]
        checks.expect(
            len(done) == n_runs
            and not any(e["event"] == "run_failed" for e in events),
            f"{len(done)}/{n_runs} {argv[2]} runs completed")
        for e in done:
            checks.expect(
                finite(e["energy_per_gb"], e["aggregate_goodput_bps"])
                and e["energy_per_gb"] >= 0.0
                and e["aggregate_goodput_bps"] > 0.0,
                f"invariant broken in run {e['spec_hash'][:12]}")
            # Only a stepped run logs a step rate: a solve that fell back
            # (``fluidsim.equilibrium.fallbacks``) is not an equilibrium.
            if argv[2] == "fluid-equilibrium" and "steps_per_s" not in e:
                solved[e["spec_hash"]] = e
            delivered_gbit = e["aggregate_goodput_bps"] * duration / 1e9
            joules += e["energy_per_gb"] * delivered_gbit / 8.0
            gbits += delivered_gbit
    rebuilt = _rebuilt_solves(ctx)
    for r in rebuilt:
        # Tied to the timed run through the aggregate goodput it logged.
        logged = solved.get(r["spec_hash"], {}).get("aggregate_goodput_bps")
        checks.expect(
            logged == r["goodput_bps"] <= r["capacity_bps"] * (1 + 1e-9),
            f"solve {r['spec_hash'][:12]} exceeds access capacity or "
            "differs from its rebuilt twin")
    fairness = (sum(r["score"] for r in rebuilt) / len(rebuilt)
                if rebuilt else 0.0)
    return {"values": {"wall_s": wall, "energy_j_per_gbit": joules / gbits,
                       "fairness_x_util": fairness},
            "pools": {}}


def traced(ctx: Dict[str, Any], checks: Checks,
           spans: Spans) -> Dict[str, float]:
    import dataclasses

    from repro.campaign import execute_run
    from repro.fluidsim import make_shard_specs, run_sharded

    inp = ctx["inputs"]
    seed = inp["scenario_seed"]
    iterations = iter_subflows = fallbacks = 0
    last = None
    for i, spec in enumerate(_solve_campaign(inp).runs, start=1):
        spans.run = i
        with spans.span("check.execute_run"):
            payload = execute_run(spec)
        staged = stage_fluid_run(spans, spec)
        eq = staged.engine
        iterations += eq.iterations
        iter_subflows += eq.iterations * staged.net.n_subflows
        if staged.metrics is None:
            # Counted, not failed: the program steps the run instead and
            # its output stays correct; the cost shows in wall_s.
            fallbacks += 1
            checks.expect(payload["metrics"]["solver"]["fallback"],
                          f"solve {spec.content_hash()[:12]} stalled here "
                          "but not in execute_run")
            continue
        checks.expect(staged.metrics == payload["metrics"],
                      f"staged metrics differ for run {spec.content_hash()[:12]}")
        last = staged
    solve_s = spans.total("fluidsim.equilibrium.solve")
    traced_wall = spans.total("staged.run")

    shard_kwargs = dict(
        n_shards=inp["shards"], n_subflows=SHARD_SUBFLOWS,
        duration=inp["shard_duration"], seed=seed, dtype=SHARD_DTYPE,
        path_pool=PATH_POOL)
    spans.run = 0
    with spans.span("fluidsim.sharding.serial"):
        serial = run_sharded(inp["shard_topology"], jobs=1, **shard_kwargs)
    with spans.span("fluidsim.sharding.pooled"):
        pooled = run_sharded(inp["shard_topology"], jobs=JOBS, **shard_kwargs)
    checks.expect(
        dataclasses.replace(serial, shard_wall_s=()) ==
        dataclasses.replace(pooled, shard_wall_s=()),
        "pooled shards differ from serial shards")
    serial_s = spans.total("fluidsim.sharding.serial")
    pooled_s = spans.total("fluidsim.sharding.pooled")
    traced_wall += pooled_s

    # Shard 0 again, stage by stage: where a shard's time goes.
    shard = make_shard_specs(inp["shard_topology"], **shard_kwargs)[0]
    from repro.campaign import RunSpec
    stepped = stage_fluid_run(
        spans,
        RunSpec(engine="fluid", topology=shard.topology,
                algorithm=shard.algorithm, n_subflows=shard.n_subflows,
                duration=shard.duration, dt=shard.dt, seed=shard.seed),
        seed=shard.shard_seed, path_pool=shard.path_pool,
        sim_kwargs={"dtype": shard.dtype,
                    "initial_window": shard.initial_window})
    steps = stepped.engine.steps_taken
    step_s = spans.total("fluidsim.engine.step")

    eval_us = 0.0
    if last is not None:
        eq, net = last.engine, last.net
        with spans.span("energy.evaluator"):
            eval_us = evaluator_us(net, eq.x_pkts * net.packet_bits, eq.rtt,
                                   eq.link_utilization, calls=20)
    return {
        "traced_wall_s": traced_wall,
        "topology.build_s": spans.total("topology.build"),
        "workloads.pairing_s": spans.total("workloads.pairing"),
        "fluidsim.network.paths_s": spans.total("fluidsim.network.paths"),
        "fluidsim.network.finalize_s": spans.total("fluidsim.network.finalize"),
        "fluidsim.engine.step_s": step_s,
        "fluidsim.engine.steps": float(steps),
        "fluidsim.engine.us_per_subflow_step":
            per_unit(step_s, steps * stepped.net.n_subflows),
        "fluidsim.equilibrium.solve_s": solve_s,
        "fluidsim.equilibrium.iterations": float(iterations),
        "fluidsim.equilibrium.us_per_iter_subflow":
            per_unit(solve_s, iter_subflows),
        "fluidsim.equilibrium.fallbacks": float(fallbacks),
        "fluidsim.sharding.serial_s": serial_s,
        "fluidsim.sharding.pooled_s": pooled_s,
        "fluidsim.sharding.pool_speedup": serial_s / pooled_s,
        "energy.evaluator_us": eval_us,
    }
