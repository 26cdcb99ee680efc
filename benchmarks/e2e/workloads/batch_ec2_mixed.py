"""``batch_ec2_mixed``: the struct-of-arrays packet engine on the Fig. 10
shape, in two phases of roughly equal weight.

Phase ``dts`` is what ``net.batch`` vectorizes today (clean DTS rounds
in numpy, lossy rounds through the scalar fallback).  Phase ``olia`` is
ROADMAP item 2's mixed-algorithm case: every round falls back, so
``vector_round_share`` is 0 today.  A gain in either phase moves
``wall_s``; the per-phase layer metrics say which.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List

from common import Checks, Spans, finite, jain, per_unit

N_SUBFLOWS = 2
TICK = 2e-3
LOSS_RATE = 1e-3

#: phase -> (n_hosts, simulated seconds)
SIZES = {
    "smoke": {"dts": (20, 0.1), "olia": (5, 0.1)},
    "bench": {"dts": (350, 0.7), "olia": (35, 0.6)},
}

LOSSLESS_TWIN = {"loss_rate": 0.0, "queue_segments": 64}

POOLS: Dict[str, Any] = {}


def inputs(seed: int, size: str) -> Dict[str, Any]:
    return {"phases": [
        {"algorithm": alg, "n_hosts": hosts, "duration": duration,
         "seed": seed, "n_subflows": N_SUBFLOWS, "dt": TICK,
         "loss_rate": LOSS_RATE}
        for alg, (hosts, duration) in SIZES[size].items()]}


def _spec(phase: Dict[str, Any]):
    from repro.campaign import RunSpec

    return RunSpec(engine="packet-batch", topology="ec2",
                   algorithm=phase["algorithm"], seed=phase["seed"],
                   n_subflows=phase["n_subflows"], duration=phase["duration"],
                   dt=phase["dt"],
                   params={"n_hosts": phase["n_hosts"],
                           "loss_rate": phase["loss_rate"]})


def setup(seed: int, size: str, scratch: Path) -> Dict[str, Any]:
    from repro.energy.cpu import default_wired_host
    from repro.net.batch import ec2_scenario

    inp = inputs(seed, size)
    path = ec2_scenario(n_hosts=1, n_subflows=1).connections[0].paths[0]
    return {"inputs": inp, "specs": [_spec(p) for p in inp["phases"]],
            "eni_bps": path.rate_bps, "host_model": default_wired_host()}


def teardown(ctx: Dict[str, Any]) -> None:
    pass


def _connection_power_w(host_model, conn: Dict[str, Any], base_rtt: float) -> float:
    """Eq. 2 host power for one connection of the result payload: its
    goodput split over subflows by first transmissions, at each
    subflow's smoothed RTT."""
    firsts = [sf["packets_sent"] - sf["retransmitted"] for sf in conn["subflows"]]
    total = sum(firsts) or 1
    paths = [(conn["goodput_bps"] * first / total,
              sf["srtt"] if sf["srtt"] is not None else base_rtt)
             for first, sf in zip(firsts, conn["subflows"])]
    return host_model.power(paths)


def body(ctx: Dict[str, Any], checks: Checks) -> Dict[str, Any]:
    from repro.campaign import execute_run

    wall = joules = bits = capacity = 0.0
    goodputs: List[float] = []
    for phase, spec in zip(ctx["inputs"]["phases"], ctx["specs"]):
        t0 = time.perf_counter()
        payload = execute_run(spec)
        wall += time.perf_counter() - t0
        m = payload["metrics"]
        phase_capacity = phase["n_hosts"] * phase["n_subflows"] * ctx["eni_bps"]
        checks.expect(
            m["n_connections"] == phase["n_hosts"]
            and finite(m["aggregate_goodput_bps"])
            and 0.0 < m["aggregate_goodput_bps"] <= phase_capacity,
            f"invariant broken in phase {phase['algorithm']}")
        power = sum(_connection_power_w(ctx["host_model"], c, 4 * spec.link_delay)
                    for c in m["connections"])
        checks.expect(finite(power) and power >= 0.0,
                      f"negative energy in phase {phase['algorithm']}")
        joules += power * phase["duration"]
        bits += m["aggregate_goodput_bps"] * phase["duration"]
        capacity += phase_capacity
        goodputs.extend(c["goodput_bps"] for c in m["connections"])
    return {"values": {"wall_s": wall,
                       "energy_j_per_gbit": joules / (bits / 1e9),
                       "fairness_x_util": jain(goodputs) * sum(goodputs) / capacity},
            "pools": {}}


def _staged(spans: Spans, spec, **scenario_kwargs):
    """``_execute_packet_run`` from its public parts, one span each."""
    import repro.obs as obs
    from repro.net.batch import BatchEngine, ec2_scenario

    alg = spec.algorithm
    with spans.span("staged.run", algorithm=alg, **scenario_kwargs):
        with spans.span("net.batch.scenario_build") as build:
            scenario = ec2_scenario(
                n_hosts=spec.params["n_hosts"], n_subflows=spec.n_subflows,
                algorithm=alg, link_delay=spec.link_delay,
                duration=spec.duration, tick=spec.dt, seed=spec.seed,
                **scenario_kwargs)
        with spans.span("net.batch.engine_init"):
            engine = BatchEngine(scenario, metrics=obs.MetricsRegistry())
        with spans.span(f"net.batch.{alg}.run") as run:
            engine.run()
        with spans.span("net.batch.result") as collect:
            result = engine.result()
        with spans.span("campaign.metrics"):
            metrics = {
                "aggregate_goodput_bps": result["aggregate_goodput_bps"],
                "n_connections": result["n_connections"],
                **{f"total_{k}": v for k, v in result["totals"].items()},
                "connections": result["connections"],
            }
    seconds = {name: rec["end"] - rec["start"] for name, rec in
               (("build", build), ("run", run), ("result", collect))}
    return metrics, engine.counters, seconds


def traced(ctx: Dict[str, Any], checks: Checks,
           spans: Spans) -> Dict[str, float]:
    from repro.campaign import execute_run

    out: Dict[str, float] = {}
    traced_wall = build_s = result_s = 0.0
    for i, spec in enumerate(ctx["specs"], start=1):
        spans.run = i
        alg = spec.algorithm
        with spans.span("check.execute_run"):
            payload = execute_run(spec)
        before = spans.total("staged.run")
        metrics, counters, seconds = _staged(
            spans, spec, loss_rate=spec.params["loss_rate"])
        traced_wall += spans.total("staged.run") - before
        run_s = seconds["run"]
        build_s += seconds["build"]
        result_s += seconds["result"]
        checks.expect(metrics == payload["metrics"],
                      f"staged metrics differ in phase {alg}")
        rounds = counters["rounds"]
        us_per_vector = 0.0
        if counters["vector_rounds"]:
            # Split per-round cost with a lossless twin: with no random
            # loss and a queue deep enough never to overflow, every round
            # of a vectorized controller takes the numpy path.
            _, twin, twin_s = _staged(spans, spec, **LOSSLESS_TWIN)
            us_per_vector = per_unit(twin_s["run"], twin["vector_rounds"])
            checks.expect(twin["fallback_rounds"] == 0,
                          f"lossless {alg} twin still fell back")
        vector_s = counters["vector_rounds"] * us_per_vector / 1e6
        out.update({
            f"net.batch.{alg}.run_s": run_s,
            f"net.batch.{alg}.rounds": float(rounds),
            f"net.batch.{alg}.vector_round_share":
                counters["vector_rounds"] / rounds,
            f"net.batch.{alg}.us_per_fallback_round":
                per_unit(max(run_s - vector_s, 0.0), counters["fallback_rounds"]),
            f"net.batch.{alg}.us_per_vector_round": us_per_vector,
        })
    spans.run = 0
    out.update({
        "traced_wall_s": traced_wall,
        "net.batch.scenario_build_s": build_s,
        "net.batch.result_s": result_s,
    })
    return out
