"""``campaign_fig12_14``: the ROADMAP's named end-to-end path.

Timed body: ``repro campaign fig12 fig13 fig14 --jobs 2`` cold into a
fresh cache, then cached replays of the same command, then ``obs report``
on the campaign log.  Fluid stepping on small fabrics does most of the
work; spec hashing, pool, cache and report are the measurable remainder.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Dict, List

from common import Checks, Spans, finite, per_unit, read_jsonl, run_cli
from staged import evaluator_us, stage_fluid_run

JOBS = 2

SIZES = {
    "smoke": {"figures": ["fig12"], "n_seeds": 1, "subflows": [1, 2],
              "duration": 0.4, "dt": 0.01, "replays": 2},
    "bench": {"figures": ["fig12", "fig13", "fig14"], "n_seeds": 4,
              "subflows": [1, 2, 4, 8], "duration": 6.0, "dt": 0.004,
              "replays": 10},
}

#: metric -> (pool, percentile)
POOLS = {"replay_ms": ("replay_ms", 50)}


def inputs(seed: int, size: str) -> Dict[str, Any]:
    cfg = SIZES[size]
    seeds = [seed * 100 + i for i in range(1, cfg["n_seeds"] + 1)]
    n_runs = len(cfg["figures"]) * len(cfg["subflows"]) * len(seeds)
    return {
        "figures": cfg["figures"],
        "campaign_seeds": seeds,
        "overrides": {"subflow_counts": cfg["subflows"], "seeds": seeds,
                      "duration": cfg["duration"], "dt": cfg["dt"]},
        "replays": cfg["replays"],
        "n_runs": n_runs,
        #: which spec is re-run inline and compared with the pooled result
        "sample_index": seed % n_runs,
    }


def _argv(inp: Dict[str, Any], cache_dir: Path) -> List[str]:
    ov = inp["overrides"]
    return (["campaign", *inp["figures"], "--jobs", str(JOBS),
             "--seeds", *map(str, ov["seeds"]),
             "--subflows", *map(str, ov["subflow_counts"]),
             "--duration", str(ov["duration"]), "--dt", str(ov["dt"]),
             "--cache-dir", str(cache_dir)])


def setup(seed: int, size: str, scratch: Path) -> Dict[str, Any]:
    import repro.cli  # noqa: F401 - the import is part of set-up time
    from repro.campaign import figure_campaign

    inp = inputs(seed, size)
    campaign = figure_campaign(inp["figures"], **inp["overrides"])
    return {"inputs": inp, "scratch": scratch, "campaign": campaign, "n": 0}


def teardown(ctx: Dict[str, Any]) -> None:
    pass


def _tables(stdout: str) -> str:
    """The figure tables without the two lines that name wall time and
    the log path (those differ between a cold run and a replay)."""
    return "\n".join(line for line in stdout.splitlines()
                     if not line.startswith(("campaign '", "telemetry log:")))


def _user_path(ctx: Dict[str, Any], checks: Checks, spans: Spans) -> Dict[str, Any]:
    """Cold campaign, cached replays, report: the timed user path."""
    from repro.campaign import ResultCache

    inp = ctx["inputs"]
    ctx["n"] += 1
    cache_dir = ctx["scratch"] / f"cache-{ctx['n']}"
    argv = _argv(inp, cache_dir)
    with spans.span("cli.campaign.cold"):
        rc, cold_out, cold_s = run_cli(argv)
    checks.expect(rc == 0, f"cold campaign exited {rc}")
    replay_s = []
    for _ in range(inp["replays"]):
        with spans.span("cli.campaign.replay"):
            rc, out, secs = run_cli(argv)
        replay_s.append(secs)
        checks.expect(rc == 0 and _tables(out) == _tables(cold_out),
                      "cached replay output differs from cold output")
    log = cache_dir / "campaign.log.jsonl"
    with spans.span("cli.report"):
        rc, _, report_s = run_cli(["obs", "report", str(log)])
    checks.expect(rc == 0, f"obs report exited {rc}")

    events = read_jsonl(log)
    completed = [e for e in events if e["event"] == "run_completed"]
    failed = [e for e in events if e["event"] == "run_failed"]
    expected = inp["n_runs"] * (1 + inp["replays"])
    checks.expect(len(completed) == expected and not failed,
                  f"{len(completed)}/{expected} runs ok, {len(failed)} failed")
    cached = sum(1 for e in completed if e["cached"])
    checks.expect(cached == inp["n_runs"] * inp["replays"],
                  f"{cached} cache hits over {inp['replays']} replays")

    cache = ResultCache(cache_dir)
    payloads = [cache.get(spec) for spec in ctx["campaign"].runs]
    checks.expect(all(p is not None for p in payloads),
                  "a cold result is missing from the cache")
    payloads = [p for p in payloads if p is not None]
    return {"cache_dir": cache_dir, "cold_s": cold_s, "replay_s": replay_s,
            "report_s": report_s, "payloads": payloads}


def _check_payloads(checks: Checks, payloads) -> "tuple[float, float]":
    """Simulated invariants; returns (joules, delivered bits)."""
    joules = bits = 0.0
    for p in payloads:
        m = p["metrics"]
        checks.expect(
            finite(m["total_energy_j"], m["delivered_bits"])
            and m["total_energy_j"] >= 0.0 and m["delivered_bits"] > 0.0
            # delivered <= capacity x duration, link by link
            and 0.0 <= m["mean_utilization"] <= 1.0 + 1e-9,
            f"invariant broken in run {p['spec_hash'][:12]}")
        joules += m["total_energy_j"]
        bits += m["delivered_bits"]
    return joules, bits


def body(ctx: Dict[str, Any], checks: Checks) -> Dict[str, Any]:
    from repro.campaign import execute_run

    run = _user_path(ctx, checks, Spans())
    joules, bits = _check_payloads(checks, run["payloads"])
    # --jobs 2 metrics equal inline metrics for one sampled spec.
    spec = ctx["campaign"].runs[ctx["inputs"]["sample_index"]]
    pooled = next((p for p in run["payloads"]
                   if p["spec_hash"] == spec.content_hash()), None)
    inline = execute_run(spec)
    checks.expect(pooled is not None
                  and pooled["metrics"] == inline["metrics"],
                  "pooled metrics differ from inline metrics")
    shutil.rmtree(run["cache_dir"], ignore_errors=True)
    return {
        "values": {
            "wall_s": run["cold_s"] + sum(run["replay_s"]) + run["report_s"],
            "energy_j_per_gbit": joules / (bits / 1e9),
        },
        "pools": {"replay_ms": [s * 1e3 for s in run["replay_s"]]},
    }


def traced(ctx: Dict[str, Any], checks: Checks,
           spans: Spans) -> Dict[str, float]:
    from repro.campaign import ResultCache, figure_campaign

    inp = ctx["inputs"]
    with spans.span("campaign.spec.build"):
        campaign = figure_campaign(inp["figures"], **inp["overrides"])
    hashes = 200
    with spans.span("campaign.spec.hash"):
        for i in range(hashes):
            campaign.runs[i % len(campaign.runs)].content_hash()

    with spans.span("user_path"):
        run = _user_path(ctx, checks, spans)
    payloads = run["payloads"]
    run_cpu_s = sum(p["wall_s"] for p in payloads)

    # The cache layer alone, on the same payloads.
    twin = ResultCache(ctx["scratch"] / "cache-twin")
    bytes_written = 0
    for spec, payload in zip(campaign.runs, payloads):
        with spans.span("campaign.cache.put"):
            path = twin.put(spec, payload)
        bytes_written += path.stat().st_size
    for spec, payload in zip(campaign.runs, payloads):
        with spans.span("campaign.cache.get"):
            got = twin.get(spec)
        checks.expect(got == payload, "cache round trip changed a payload")

    # Every run again, stage by stage, against the pooled result.
    by_hash = {p["spec_hash"]: p for p in payloads}
    last = None
    for i, spec in enumerate(campaign.runs, start=1):
        spans.run = i
        last = stage_fluid_run(spans, spec)
        pooled = by_hash.get(spec.content_hash())
        checks.expect(pooled is not None
                      and last.metrics == pooled["metrics"],
                      f"staged metrics differ for run {spec.content_hash()[:12]}")
    spans.run = 0
    sim, net = last.engine, last.net
    with spans.span("energy.evaluator"):
        eval_us = evaluator_us(net, sim.w / sim.rtt * net.packet_bits,
                               sim.rtt, last.result.mean_utilization)
    shutil.rmtree(run["cache_dir"], ignore_errors=True)

    steps = sum(p["metrics"]["steps_taken"] for p in payloads)
    subflow_steps = sum(p["metrics"]["steps_taken"]
                        * p["metrics"]["n_subflows_total"] for p in payloads)
    step_s = spans.total("fluidsim.engine.step")
    n = len(payloads)
    return {
        "traced_wall_s": (spans.total("cli.campaign.cold")
                          + spans.total("cli.campaign.replay")
                          + spans.total("cli.report")),
        "campaign.spec.build_s": spans.total("campaign.spec.build"),
        "campaign.spec.hash_us": per_unit(spans.total("campaign.spec.hash"), hashes),
        "campaign.cache.get_ms": per_unit(spans.total("campaign.cache.get"), n, 1e3),
        "campaign.cache.put_ms": per_unit(spans.total("campaign.cache.put"), n, 1e3),
        "campaign.cache.bytes_written": float(bytes_written),
        "campaign.executor.run_cpu_s": run_cpu_s,
        "campaign.executor.parallel_efficiency": run_cpu_s / (JOBS * run["cold_s"]),
        "campaign.executor.pool_overhead_s": run["cold_s"] - run_cpu_s / JOBS,
        "cli.report_s": spans.total("cli.report"),
        "topology.build_s": spans.total("topology.build"),
        "workloads.pairing_s": spans.total("workloads.pairing"),
        "fluidsim.network.paths_s": spans.total("fluidsim.network.paths"),
        "fluidsim.network.finalize_s": spans.total("fluidsim.network.finalize"),
        "fluidsim.engine.step_s": step_s,
        "fluidsim.engine.steps": float(steps),
        "fluidsim.engine.us_per_subflow_step": per_unit(step_s, subflow_steps),
        "energy.evaluator_us": eval_us,
    }
