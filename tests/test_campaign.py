"""Campaign subsystem: specs, cache, executor, telemetry."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignExecutor,
    CampaignTelemetry,
    ResultCache,
    RunSpec,
    execute_run,
    figure_campaign,
    subflow_sweep_campaign,
    throughput_from_snapshot,
)
from repro.campaign import cache as cache_mod
from repro.campaign import executor as executor_mod
from repro.campaign import spec as spec_mod
from repro.errors import ConfigurationError

#: A cheap-but-real fluid run (BCube 64 hosts, 40 integration steps).
FAST = dict(topology="bcube", duration=0.4, dt=0.01)


# ---------------------------------------------------------------------- specs

def test_spec_hash_is_stable_within_process():
    a = RunSpec(n_subflows=4, seed=7, **FAST)
    b = RunSpec(n_subflows=4, seed=7, **FAST)
    assert a.content_hash() == b.content_hash()
    assert len(a.content_hash()) == 64


def test_spec_hash_is_stable_across_processes():
    spec = RunSpec(n_subflows=4, seed=7, **FAST)
    code = (
        "from repro.campaign import RunSpec; "
        f"print(RunSpec(n_subflows=4, seed=7, topology='bcube', "
        f"duration=0.4, dt=0.01).content_hash())"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == spec.content_hash()


def test_spec_hashes_are_pinned():
    """Cache keys are committed hex strings: the SHA-256 implementation,
    the canonical JSON or the hashed prefix cannot change under a cache
    without this failing (the builtin module must equal ``hashlib``)."""
    import hashlib

    assert RunSpec().content_hash() == (
        "bd74a9afeda2fc8cfba4a622a746031653cc93cb40f4681e3e2fe5e3ac6b22b7")
    assert figure_campaign(["fig12"]).content_hash() == (
        "0be019a1441d6984ae245c0959935db7f12181ea8d9f712686c8e6529051f06b")
    body = b"repro.campaign.runspec"
    assert spec_mod.sha256(body).hexdigest() == hashlib.sha256(body).hexdigest()


def test_spec_hash_changes_with_any_field():
    base = RunSpec(**FAST)
    for changes in ({"seed": 2}, {"n_subflows": 2}, {"duration": 0.8},
                    {"dt": 0.02}, {"algorithm": "olia"},
                    {"topology": "vl2"}, {"link_delay": 0.002},
                    {"params": {"initial_window": 5.0}}):
        assert base.replace(**changes).content_hash() != base.content_hash(), changes


def test_spec_json_roundtrip():
    spec = RunSpec(algorithm="olia", n_subflows=3, seed=9, **FAST)
    again = RunSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert again == spec
    assert again.content_hash() == spec.content_hash()


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        RunSpec(topology="hypercube")
    with pytest.raises(ConfigurationError):
        RunSpec(engine="quantum")
    with pytest.raises(ConfigurationError):
        RunSpec(n_subflows=0)
    with pytest.raises(ConfigurationError):
        RunSpec(duration=-1.0)
    with pytest.raises(ConfigurationError):
        RunSpec.from_json_dict({"banana": 1})


@pytest.mark.parametrize("engine", sorted(spec_mod.KNOWN_ENGINES))
@pytest.mark.parametrize("field", ["duration", "dt", "link_delay"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spec_rejects_non_finite_times(engine, field, bad):
    """Before any pool: ``nan <= 0`` is False, so a sign check alone lets
    NaN through to the worker, which fails and is retried."""
    point = {**ENGINE_POINTS[engine], field: bad}
    with pytest.raises(ConfigurationError, match=field):
        RunSpec(**point)


#: (duration, dt) a fixed-step fluid run cannot cover: one 0.5 s step for
#: 0.1 s reported 13.65 Gbps against 2.73 at duration 0.5; 1.67 and 2.5
#: steps were rounded to 0.12 s (+20% goodput) and 0.08 s (-20%).
PARTIAL_STEPS = [(0.1, 0.5), (0.1, 0.06), (0.1, 0.04)]
#: Every preset, default and e2e workload pair.
WHOLE_STEPS = [(6.0, 0.004), (30.0, 0.004), (1000.0, 0.02), (0.5, 0.004),
               (0.4, 0.004), (1.0, 0.01)]


@pytest.mark.parametrize("engine", ["fluid", "fluid-equilibrium"])
@pytest.mark.parametrize("duration, dt", PARTIAL_STEPS)
def test_fluid_spec_rejects_a_partial_step(engine, duration, dt):
    with pytest.raises(ConfigurationError, match="whole number of dt"):
        RunSpec(engine=engine, topology="fattree", algorithm="dts",
                n_subflows=2, seed=1, duration=duration, dt=dt)


@pytest.mark.parametrize("engine", ["fluid", "fluid-equilibrium"])
@pytest.mark.parametrize("duration, dt", WHOLE_STEPS)
def test_fluid_spec_accepts_whole_steps(engine, duration, dt):
    spec = RunSpec(engine=engine, topology="fattree", duration=duration, dt=dt)
    assert spec.replace(seed=2).duration == duration


def test_packet_batch_spec_keeps_its_own_tick():
    RunSpec(**{**ENGINE_POINTS["packet-batch"], "duration": 0.1, "dt": 0.06})


def test_cli_rejects_a_partial_step_before_running(tmp_path, capsys):
    from repro.cli import main

    rc = main(["campaign", "fig12", "--duration", "0.1", "--dt", "0.5",
               "--cache-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "whole number" in err[0]
    assert not (tmp_path / "campaign.log.jsonl").exists()


def test_campaign_builders():
    camp = subflow_sweep_campaign(["bcube", "vl2"], subflow_counts=[1, 2],
                                  seeds=[1, 2, 3])
    assert len(camp) == 2 * 2 * 3
    # Topology-major, then count, then seed — the CLI grouping relies on it.
    assert [r.topology for r in camp.runs[:6]] == ["bcube"] * 6
    assert camp.content_hash() == subflow_sweep_campaign(
        ["bcube", "vl2"], subflow_counts=[1, 2], seeds=[1, 2, 3]).content_hash()

    fig = figure_campaign(["fig12"], subflow_counts=[1], seeds=[1])
    assert fig.runs[0].topology == "bcube"
    with pytest.raises(ConfigurationError):
        figure_campaign(["fig09"])


# ---------------------------------------------------------------------- cache

def _payload(spec):
    return {"schema_version": spec_mod.SCHEMA_VERSION,
            "spec_hash": spec.content_hash(),
            "metrics": {"energy_per_gb": 42.0}, "wall_s": 0.1}


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = RunSpec(**FAST)
    assert cache.get(spec) is None
    cache.put(spec, _payload(spec))
    assert cache.get(spec)["metrics"]["energy_per_gb"] == 42.0
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.writes == 1 and cache.size() == 1


def test_cache_field_change_misses(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec(**FAST)
    cache.put(spec, _payload(spec))
    assert cache.get(spec.replace(seed=2)) is None
    assert cache.get(spec.replace(n_subflows=2)) is None
    assert cache.stats.hits == 0


def test_cache_schema_bump_invalidates(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    spec = RunSpec(**FAST)
    cache.put(spec, _payload(spec))
    assert cache.get(spec) is not None
    # An engine-breaking change bumps SCHEMA_VERSION: old entries (same
    # path only if the hash matched, but the hash moves too) must never
    # be served.  Simulate both halves: a stale file under the new
    # version, and the hash movement itself.
    monkeypatch.setattr(spec_mod, "SCHEMA_VERSION", spec_mod.SCHEMA_VERSION + 1)
    monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", cache_mod.SCHEMA_VERSION + 1)
    assert cache.get(spec) is None

    # Force the stale-file half explicitly: entry on disk written under
    # an older schema_version at the exact lookup path.
    path = cache.path_for(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {"schema_version": spec_mod.SCHEMA_VERSION - 1,
             "spec_hash": spec.content_hash(), "payload": _payload(spec)}
    path.write_text(json.dumps(entry), encoding="utf-8")
    before = cache.stats.invalidations
    assert cache.get(spec) is None
    assert cache.stats.invalidations == before + 1


def test_cache_corrupted_file_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec(**FAST)
    cache.put(spec, _payload(spec))
    path = cache.path_for(spec)

    path.write_text("{not json at all", encoding="utf-8")
    assert cache.get(spec) is None          # no crash

    path.write_text(json.dumps(["wrong", "shape"]), encoding="utf-8")
    assert cache.get(spec) is None

    path.write_text(json.dumps({"schema_version": spec_mod.SCHEMA_VERSION}),
                    encoding="utf-8")
    assert cache.get(spec) is None          # missing keys

    path.write_bytes(b'{"schema_version": 4, "pay\xff\xfe')
    assert cache.get(spec) is None          # not UTF-8
    assert cache.stats.invalidations == 4

    cache.put(spec, _payload(spec))         # writable again after corruption
    assert cache.get(spec) is not None


# ------------------------------------------------------------------- executor

def _specs(n_seeds=2):
    return [RunSpec(n_subflows=nsub, seed=seed, **FAST)
            for nsub in (1, 2) for seed in range(1, n_seeds + 1)]


def test_jobs1_and_jobs4_are_byte_identical():
    specs = _specs()
    serial = CampaignExecutor(jobs=1).run(specs)
    pooled = CampaignExecutor(jobs=4).run(specs)
    assert all(o.ok for o in serial) and all(o.ok for o in pooled)
    for s, p in zip(serial, pooled):
        assert json.dumps(s.metrics, sort_keys=True) == \
            json.dumps(p.metrics, sort_keys=True)
    # Deterministic step counts surface in the payload for telemetry.
    assert serial[0].metrics["steps_taken"] == 40


_BAD_SEED = 999


def _failing_run(spec):
    if spec.seed == _BAD_SEED:
        raise RuntimeError("boom")
    return {"spec_hash": spec.content_hash(), "metrics": {"seed": spec.seed},
            "wall_s": 0.0}


def _flaky_run(spec):
    flag = Path(spec.params["flag"])
    if not flag.exists():
        flag.touch()
        raise RuntimeError("first attempt always fails")
    return {"spec_hash": spec.content_hash(), "metrics": {"seed": spec.seed},
            "wall_s": 0.0}


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_worker_is_retried_then_reported(jobs):
    specs = [RunSpec(seed=1, **FAST), RunSpec(seed=_BAD_SEED, **FAST),
             RunSpec(seed=2, **FAST)]
    outcomes = CampaignExecutor(jobs=jobs, run_fn=_failing_run).run(specs)
    assert [o.ok for o in outcomes] == [True, False, True]
    bad = outcomes[1]
    assert bad.attempts == 2                       # retried exactly once
    assert "boom" in bad.error
    assert outcomes[0].metrics["seed"] == 1        # campaign not killed
    assert outcomes[2].metrics["seed"] == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_retry_recovers_a_flaky_worker(tmp_path, jobs):
    spec = RunSpec(seed=5, params={"flag": str(tmp_path / f"flag{jobs}")}, **FAST)
    outcomes = CampaignExecutor(jobs=jobs, run_fn=_flaky_run).run([spec])
    assert outcomes[0].ok
    assert outcomes[0].attempts == 2


_KILLER_SEED = 2


def _worker_killing_run(spec):
    """Seed 2 takes its worker process down hard, while its pool-mates
    are still running."""
    if spec.seed == _KILLER_SEED:
        time.sleep(0.2)
        os._exit(1)
    time.sleep(0.6)
    return {"spec_hash": spec.content_hash(), "metrics": {"seed": spec.seed},
            "wall_s": 0.0}


def test_a_run_that_kills_its_worker_fails_alone():
    """A dead worker breaks the pool for every future in it; only the
    run that keeps breaking a pool of its own is charged and fails."""
    import repro.obs as obs

    specs = [RunSpec(seed=seed, **FAST) for seed in (1, 2, 3, 4)]
    with obs.session() as session:
        flight = session.attach_flight()
        outcomes = CampaignExecutor(jobs=2,
                                    run_fn=_worker_killing_run).run(specs)
    assert [o.ok for o in outcomes] == [True, False, True, True]
    assert [o.attempts for o in outcomes] == [1, 2, 1, 1]
    assert "BrokenProcessPool" in outcomes[1].error
    failed = flight.events(kinds=("campaign_run_failed",))
    assert [e.fields["seed"] for e in failed] == [_KILLER_SEED]


def _sleepy_run(spec):
    time.sleep(10.0)
    return {"spec_hash": spec.content_hash(), "metrics": {}, "wall_s": 10.0}


def test_run_timeout_reports_failure(monkeypatch):
    monkeypatch.setattr(executor_mod, "_RETRIES", 0)
    spec = RunSpec(seed=1, **FAST)
    outcomes = CampaignExecutor(jobs=2, run_fn=_sleepy_run,
                                run_timeout=0.3).run([spec])
    assert not outcomes[0].ok
    assert "timed out" in outcomes[0].error


def _fails_once_then_slow_run(spec):
    """Seed 1's first attempt fails at once; every other attempt takes
    0.5 s."""
    flag = spec.params.get("flag")
    if flag is not None and not Path(flag).exists():
        Path(flag).touch()
        raise RuntimeError("first attempt fails")
    time.sleep(0.5)
    return {"spec_hash": spec.content_hash(), "metrics": {"seed": spec.seed},
            "wall_s": 0.5}


def test_a_retry_is_timed_from_its_own_start(tmp_path):
    """A retry is not charged the time the campaign's other runs hold
    the workers: queued behind seven 0.5 s runs at two jobs it would end
    at ~2 s, long after its 1.2 s timeout, although it runs for 0.5 s."""
    specs = [RunSpec(seed=1, params={"flag": str(tmp_path / "flag")}, **FAST)]
    specs += [RunSpec(seed=seed, **FAST) for seed in range(2, 9)]
    outcomes = CampaignExecutor(jobs=2, run_fn=_fails_once_then_slow_run,
                                run_timeout=1.2).run(specs)
    assert [o.error for o in outcomes] == [None] * 8
    assert [o.attempts for o in outcomes] == [2] + [1] * 7


_HUNG_CAMPAIGN = """
import multiprocessing, time
from repro.campaign import CampaignExecutor, RunSpec

def run(spec):
    if spec.seed == 1:
        time.sleep(60.0)
    return {"spec_hash": spec.content_hash(), "metrics": {"seed": spec.seed},
            "wall_s": 0.0}

specs = [RunSpec(seed=seed, topology="bcube", duration=0.4, dt=0.01)
         for seed in (1, 2, 3)]
outcomes = CampaignExecutor(jobs=2, run_fn=run, run_timeout=0.3).run(specs)
assert multiprocessing.active_children() == [], multiprocessing.active_children()
assert [o.ok for o in outcomes] == [False, True, True], outcomes
assert [o.attempts for o in outcomes] == [2, 1, 1], outcomes
assert "timed out" in outcomes[0].error
"""


def test_a_timed_out_run_leaves_no_child_behind():
    """A hung run is killed with its pool: once ``run()`` returns no
    child is alive, so the interpreter exits long before the hung call
    would have returned, and its pool-mates are not charged."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _HUNG_CAMPAIGN], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - t0 < 10.0


def test_an_in_process_run_takes_no_timeout():
    with pytest.raises(ConfigurationError, match="in-process run cannot be stopped"):
        CampaignExecutor(jobs=1, run_timeout=5.0)


def _counting_run(spec):
    counter = Path(spec.params["counter"])
    counter.write_text(str(int(counter.read_text() or "0") + 1)
                       if counter.exists() else "1", encoding="utf-8")
    return {"spec_hash": spec.content_hash(), "metrics": {"seed": spec.seed},
            "wall_s": 0.0}


def test_executor_uses_cache_on_second_campaign(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = RunSpec(seed=3, params={"counter": str(tmp_path / "n")}, **FAST)
    ex = CampaignExecutor(jobs=1, cache=cache, run_fn=_counting_run)
    first = ex.run([spec])
    second = ex.run([spec])
    assert first[0].ok and not first[0].cached
    assert second[0].ok and second[0].cached
    assert (tmp_path / "n").read_text() == "1"     # run_fn called exactly once
    assert cache.stats.hits == 1


def test_failed_runs_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec(seed=_BAD_SEED, **FAST)
    CampaignExecutor(jobs=1, cache=cache, run_fn=_failing_run).run([spec])
    assert cache.size() == 0


# ------------------------------------------------------------------ telemetry

def test_telemetry_jsonl_log(tmp_path):
    log = tmp_path / "log.jsonl"
    tel = CampaignTelemetry(log_path=log)
    specs = _specs(n_seeds=1)
    outcomes = CampaignExecutor(jobs=1, telemetry=tel,
                                cache=ResultCache(tmp_path / "c")).run(specs)
    assert all(o.ok for o in outcomes)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    events = [r["event"] for r in records]
    assert events[0] == "campaign_started"
    assert events[-1] == "campaign_finished"
    assert events.count("run_completed") == len(specs)
    finished = records[-1]
    assert finished["runs_completed"] == len(specs)
    assert finished["cache_writes"] == len(specs)
    assert finished["wall_s"] > 0
    completed = [r for r in records if r["event"] == "run_completed"]
    assert all(r["steps_per_s"] > 0 for r in completed)
    assert tel.counters["runs_completed"] == len(specs)


def test_throughput_from_snapshot_reads_engine_counters():
    import repro.obs as obs
    from repro.fluidsim import FluidNetwork, FluidSimulation
    from repro.net.events import Simulator

    registry = obs.MetricsRegistry()
    sim = Simulator(seed=1, metrics=registry)
    for i in range(50):
        sim.schedule(i * 0.01, lambda: None)
    sim.run()
    assert sim.events_processed == 50
    assert sim.wall_time_s > 0
    stats = throughput_from_snapshot(registry.snapshot(), sim.wall_time_s)
    assert stats == {"events_per_s": pytest.approx(50 / sim.wall_time_s)}

    from repro.campaign.spec import build_topology
    registry = obs.MetricsRegistry()
    net = FluidNetwork(build_topology("bcube"), path_seed=1)
    net.add_connection(net.topology.hosts[0], net.topology.hosts[1],
                       "lia", n_subflows=2)
    net.finalize()
    fsim = FluidSimulation(net, dt=0.01, seed=1, metrics=registry)
    fsim.run(0.2)
    assert fsim.steps_taken == 20
    stats = throughput_from_snapshot(registry.snapshot(), fsim.wall_time_s)
    assert stats == {"steps_per_s": pytest.approx(20 / fsim.wall_time_s)}
    assert throughput_from_snapshot(registry.snapshot(), 0.0) == {}


def test_execute_run_payload_shape():
    payload = execute_run(RunSpec(n_subflows=2, seed=1, **FAST))
    assert payload["spec_hash"] == RunSpec(n_subflows=2, seed=1,
                                           **FAST).content_hash()
    metrics = payload["metrics"]
    assert metrics["energy_per_gb"] > 0
    assert metrics["aggregate_goodput_bps"] > 0
    assert metrics["steps_taken"] == 40
    assert metrics["n_connections"] == 64          # one flow per BCube host
    json.dumps(payload)                            # JSON-serializable


#: One cheap point per engine.
ENGINE_POINTS = {
    "fluid": dict(engine="fluid", **FAST),
    "fluid-equilibrium": dict(engine="fluid-equilibrium", **FAST),
    "packet-batch": dict(engine="packet-batch", topology="ec2",
                         duration=0.1, dt=2e-3),
}


@pytest.mark.parametrize("engine", sorted(ENGINE_POINTS))
@pytest.mark.parametrize("key", [
    "fast_pth",      # a typo
    "fast_path",     # a knob an older spec may still carry
    "metrics",       # supplied by the executor
    "seed",          # a RunSpec field, not a param
    # Retired knobs: module constants of their engines now.
    "energy_sample_every",
    "ecn_threshold_packets",
    "initial_window",
    "max_iter",
    "eni_bps",
    "queue_segments",
    "rwnd_segments",
    "total_segments",
])
def test_execute_run_rejects_params_the_engine_does_not_take(engine, key):
    spec = RunSpec(params={key: None}, **ENGINE_POINTS[engine])
    with pytest.raises(ConfigurationError) as exc:
        execute_run(spec)
    message = str(exc.value)
    assert repr(key) in message and repr(engine) in message
    assert "accepted: " in message


def test_sharded_run_rejects_unknown_params():
    spec = RunSpec(params={"shards": 2, "sparse_routing": "never"}, **FAST)
    with pytest.raises(ConfigurationError, match="'sparse_routing'.*accepted: shards"):
        execute_run(spec)


def test_accepted_params_are_parameters_the_engines_have():
    """The executor's accepted-key tables name real keyword arguments."""
    import inspect

    from repro.campaign import executor
    from repro.fluidsim import FluidSimulation
    from repro.fluidsim.sharding import make_shard_specs
    from repro.net.batch import ec2_scenario

    def parameters(fn):
        return set(inspect.signature(fn).parameters)

    assert set(executor._FLUID_PARAM_KEYS) <= parameters(FluidSimulation.__init__)
    assert set(executor._PACKET_PARAM_KEYS) <= parameters(ec2_scenario)
    assert (set(executor._SHARDED_PARAM_KEYS) - {"shards"}
            <= parameters(make_shard_specs))
    # ... and every one of them is accepted end to end.
    for engine, params in [
        ("fluid", {"dtype": "float64"}),
        ("fluid-equilibrium", {"dtype": "float64"}),
        ("packet-batch", {"n_hosts": 2, "loss_rate": 1e-3}),
    ]:
        payload = execute_run(RunSpec(params=params, **ENGINE_POINTS[engine]))
        assert payload["metrics"]["aggregate_goodput_bps"] > 0


def test_spec_hashes_survive_the_retired_engine_options():
    """Content hashes are a function of the spec and SCHEMA_VERSION alone:
    re-recorded when ISSUE 23 bumped it to 4 (the fluid digests moved in
    the last ulp, so results cached under 3 must miss)."""
    assert spec_mod.SCHEMA_VERSION == 4
    assert spec_mod.KNOWN_ENGINES == ("fluid", "fluid-equilibrium",
                                      "packet-batch")
    recorded = {
        "fluid": "440ee15ca2984aeeac9cdd0d09077121e27b212dce7a216166d2f7ea19311f60",
        "fluid-equilibrium": "8145008a32930debdacb83db2bdef6666608e2ab8bbb4228420987be8cc9ed37",
        "packet-batch": "a1a551adc9eb6396651fe25ad6cc017794b9ec18c2b00420cc009202433ae39d",
    }
    for engine, digest in recorded.items():
        assert RunSpec(**ENGINE_POINTS[engine]).content_hash() == digest


def test_spec_rejects_algorithms_its_engine_cannot_run():
    """An unknown or engine-less algorithm fails when the spec is built —
    not in a worker, after pickling and a retry."""
    with pytest.raises(ConfigurationError, match="unknown algorithm 'liaa'"):
        subflow_sweep_campaign(["bcube"], algorithm="liaa")
    for engine in ("fluid", "fluid-equilibrium"):
        with pytest.raises(ConfigurationError, match="no fluid form"):
            RunSpec(algorithm="dwc", engine=engine, **FAST)
    # ...but the packet engine has a DWC controller.
    RunSpec(algorithm="dwc", **ENGINE_POINTS["packet-batch"])
    with pytest.raises(ConfigurationError, match="unknown algorithm"):
        RunSpec(algorithm="nope", **ENGINE_POINTS["packet-batch"])


def test_spec_keeps_the_algorithm_spelling_it_was_given():
    """Validation resolves aliases but never rewrites the field: hashes
    (so cached results) of specs that were valid before stay put."""
    alias = RunSpec(algorithm="NewReno", n_subflows=1, seed=1, **FAST)
    assert alias.algorithm == "NewReno"
    assert alias.content_hash() != alias.replace(algorithm="reno").content_hash()
    # One alias table: the fluid engines run every alias the packet tier does.
    assert execute_run(alias)["metrics"] == execute_run(
        alias.replace(algorithm="reno"))["metrics"]


# ------------------------------------------------------------------------ CLI

def test_cli_campaign_smoke(tmp_path, capsys):
    from repro.cli import main

    # Pooled, then 100% cached — the path CI's campaign-smoke job ran.
    argv = ["campaign", "fig12", "--jobs", "2", "--subflows", "1", "2",
            "--seeds", "1", "--duration", "0.4", "--dt", "0.01",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "topology: bcube" in out
    assert "2 runs, 0 cache hits" in out
    assert (tmp_path / "campaign.log.jsonl").exists()

    assert main(argv) == 0
    assert "2 cache hits" in capsys.readouterr().out


def test_cli_campaign_rejects_unknown_figure(tmp_path, capsys):
    from repro.cli import main

    rc = main(["campaign", "fig09", "--cache-dir", str(tmp_path)])
    assert rc == 2
    assert "not campaignable" in capsys.readouterr().err


def test_cli_sweep_smoke(tmp_path, capsys):
    from repro.cli import main

    rc = main(["sweep", "--topologies", "bcube", "--subflows", "1", "2",
               "--seeds", "1", "--duration", "0.4", "--dt", "0.01",
               "--jobs", "2", "--cache-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "topology: bcube" in out
    assert "2 runs" in out


def test_cli_sweep_rejects_unknown_algorithm_before_running(tmp_path, capsys):
    from repro.cli import main

    rc = main(["sweep", "--topologies", "bcube", "--algorithm", "liaa",
               "--jobs", "2", "--cache-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown algorithm 'liaa'" in capsys.readouterr().err
    assert not (tmp_path / "campaign.log.jsonl").exists()


def test_cli_sweep_rejects_a_nan_duration_before_running(tmp_path, capsys):
    from repro.cli import main

    rc = main(["sweep", "--engine", "packet-batch", "--duration", "nan",
               "--jobs", "2", "--cache-dir", str(tmp_path)])
    assert rc == 2
    assert "duration must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "campaign.log.jsonl").exists()


def test_paper_scale_campaign_spec():
    from repro.experiments import paper_scale

    camp = paper_scale.fig12_14_campaign()
    assert len(camp) == 3 * 8 * 10
    assert {r.topology for r in camp.runs} == {"bcube", "fattree", "vl2"}
    assert all(r.duration == 1000.0 for r in camp.runs)
    assert all(r.link_delay == paper_scale.PAPER_DC_LINK_DELAY
               for r in camp.runs)


# ------------------------------------------------------- distributed tracing

def _driver_traceparent():
    from repro.obs.tracing import Tracer

    tracer = Tracer()
    span = tracer.start_span("campaign.driver")
    return tracer, span


@pytest.mark.parametrize("jobs", [1, 2])
def test_trace_parent_ships_shards_back(jobs):
    from repro.obs.tracing import TRACE_SCHEMA, parse_traceparent

    tracer, span = _driver_traceparent()
    specs = _specs(n_seeds=1)
    outcomes = CampaignExecutor(
        jobs=jobs, trace_parent=span.traceparent).run(specs)
    assert all(o.ok for o in outcomes)
    for o in outcomes:
        shard = o.payload["trace"]
        assert shard["schema"] == TRACE_SCHEMA
        assert shard["process_name"].startswith("worker-")
        root = next(e for e in shard["events"]
                    if e["name"] == "campaign.run")
        # Every worker's root span joins the driver's trace and parents
        # under the driver span that crossed the pool boundary.
        assert root["trace_id"] == tracer.trace_id
        assert root["parent_span_id"] == span.span_id
        assert root["args"]["spec_hash"] == o.spec.content_hash()


def test_no_trace_parent_means_no_shard():
    outcomes = CampaignExecutor(jobs=1).run(_specs(n_seeds=1))
    assert all(o.ok for o in outcomes)
    assert all("trace" not in o.payload for o in outcomes)


def test_trace_shard_is_stripped_from_cache(tmp_path):
    _, span = _driver_traceparent()
    cache = ResultCache(tmp_path / "cache")
    spec = _specs(n_seeds=1)[0]
    [first] = CampaignExecutor(
        jobs=1, cache=cache, trace_parent=span.traceparent).run([spec])
    assert "trace" in first.payload
    # The persisted entry must stay content-addressed: no volatile shard.
    assert "trace" not in cache.get(spec)
    [replay] = CampaignExecutor(
        jobs=1, cache=cache, trace_parent=span.traceparent).run([spec])
    assert replay.cached
    assert "trace" not in replay.payload
    # Cached-or-not, the metrics agree byte for byte.
    assert json.dumps(replay.metrics, sort_keys=True) == \
        json.dumps(first.metrics, sort_keys=True)


def test_telemetry_logs_trace_id_and_event_counts(tmp_path):
    tracer, span = _driver_traceparent()
    log = tmp_path / "telemetry.jsonl"
    tel = CampaignTelemetry(log_path=log)
    CampaignExecutor(jobs=1, telemetry=tel,
                     trace_parent=span.traceparent).run(_specs(n_seeds=1))
    records = [json.loads(line) for line in log.read_text().splitlines()]
    started = next(r for r in records if r["event"] == "campaign_started")
    assert started["trace_id"] == tracer.trace_id
    completed = [r for r in records if r["event"] == "run_completed"]
    assert completed and all(r["trace_events"] >= 1 for r in completed)
