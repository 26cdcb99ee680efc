"""Sharded fluid stepping: determinism, merge arithmetic, campaign wiring.

Sharding is exact — replicas share no links or subflows — so the merged
result must be byte-identical whether the shards run serially in one
process or fan out over a pool, and the merge itself is plain weighted
arithmetic these tests can check by hand.  The campaign-executor and
CLI integration (``--shards``, ``--engine fluid-equilibrium``) rides
the same determinism contract.
"""

import dataclasses
import json

import pytest

from repro.campaign.executor import execute_run
from repro.campaign.spec import RunSpec, build_topology
from repro.errors import ConfigurationError
from repro.fluidsim.sharding import (
    ShardSpec,
    make_shard_specs,
    merge_shard_payloads,
    run_sharded,
    simulate_shard,
)

#: Small/fast sharded-run shape shared by the tests below.
FAST = dict(algorithm="lia", n_subflows=2, duration=0.2, dt=0.01, seed=3)


def _strip_wall(result) -> dict:
    """ShardedResult as a dict minus the fields that hold wall-clock
    readings (the only legitimately nondeterministic ones)."""
    d = dataclasses.asdict(result)
    d.pop("shard_wall_s")
    d.pop("obs")
    return d


# ----------------------------------------------------------------- specs


def test_shard_seeds_are_distinct_and_deterministic():
    specs = make_shard_specs("bcube", n_shards=4, **FAST)
    seeds = [s.shard_seed for s in specs]
    assert len(set(seeds)) == 4
    assert seeds == [s.shard_seed for s in make_shard_specs("bcube",
                                                            n_shards=4,
                                                            **FAST)]
    # Neighbouring base seeds never collide with other shard indices.
    other = make_shard_specs("bcube", n_shards=4,
                             **{**FAST, "seed": FAST["seed"] + 1})
    assert not set(seeds) & {s.shard_seed for s in other}


def test_make_shard_specs_validates_count():
    with pytest.raises(ConfigurationError, match="n_shards"):
        make_shard_specs("bcube", n_shards=0, **FAST)
    # A duration dt does not divide fails before any replica is built.
    with pytest.raises(ConfigurationError, match="whole number of dt"):
        make_shard_specs("bcube", n_shards=2, **{**FAST, "duration": 0.1, "dt": 0.06})


def test_shard_spec_is_frozen_and_orderable():
    spec = ShardSpec(topology="bcube", shard_index=0, n_shards=2, **FAST)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seed = 9
    assert spec.shard_seed == FAST["seed"] * 100_003


# ----------------------------------------------------------------- merging


def test_merge_arithmetic_by_hand():
    def payload(i, subflows, links, rtt, util):
        return {
            "shard_index": i, "n_subflows_total": subflows, "n_connections": 8,
            "n_links": links, "aggregate_goodput_bps": 1e9,
            "delivered_bits": 8e9, "host_energy_j": 10.0,
            "switch_energy_j": 5.0, "loss_events": 3, "mean_rtt_s": rtt,
            "mean_utilization": util, "steps_taken": 20, "wall_s": 0.1,
        }

    merged = merge_shard_payloads([payload(0, 10, 4, 0.010, 0.5),
                                   payload(1, 30, 12, 0.030, 0.9)])
    assert merged.n_shards == 2
    assert merged.n_subflows == 40
    assert merged.n_connections == 16
    assert merged.aggregate_goodput_bps == pytest.approx(2e9)
    assert merged.delivered_bits == pytest.approx(16e9)
    assert merged.host_energy_j == pytest.approx(20.0)
    assert merged.switch_energy_j == pytest.approx(10.0)
    assert merged.loss_events == 6
    assert merged.steps_taken == 40
    # Subflow-weighted RTT: (10*0.010 + 30*0.030) / 40.
    assert merged.mean_rtt_s == pytest.approx(0.025)
    # Link-weighted utilization: (4*0.5 + 12*0.9) / 16.
    assert merged.mean_utilization == pytest.approx(0.8)
    # 30 J over 2 delivered decimal GB.
    metrics = merged.metrics()
    assert metrics["n_shards"] == 2 and metrics["n_subflows_total"] == 40
    assert metrics["total_energy_j"] == pytest.approx(30.0)
    assert metrics["energy_per_gb"] == pytest.approx(15.0)


def test_merge_rejects_empty():
    with pytest.raises(ConfigurationError, match="zero shard"):
        merge_shard_payloads([])


def test_energy_per_gb_with_nothing_delivered_is_inf():
    base = {"shard_index": 0, "n_subflows_total": 1, "n_connections": 1,
            "n_links": 1, "aggregate_goodput_bps": 0.0,
            "delivered_bits": 0.0, "host_energy_j": 1.0,
            "switch_energy_j": 1.0, "loss_events": 0, "mean_rtt_s": 0.01,
            "mean_utilization": 0.0, "steps_taken": 1, "wall_s": 0.1}
    merged = merge_shard_payloads([base])
    assert merged.metrics()["energy_per_gb"] == float("inf")


# ------------------------------------------------------------- determinism


def test_serial_and_pooled_sharded_runs_are_identical():
    serial = run_sharded("bcube", n_shards=2, jobs=1, **FAST)
    pooled = run_sharded("bcube", n_shards=2, jobs=2, **FAST)
    assert _strip_wall(serial) == _strip_wall(pooled)
    # Equality leaves the merged obs out (it holds wall-clock counters).
    assert (dataclasses.replace(serial, shard_wall_s=())
            == dataclasses.replace(pooled, shard_wall_s=()))
    assert serial.obs["engine.steps_taken"] == serial.steps_taken
    assert serial.n_shards == 2
    assert serial.aggregate_goodput_bps > 0
    # Two replicas of the same fabric: exactly twice one shard's subflows.
    one = simulate_shard(make_shard_specs("bcube", n_shards=2, **FAST)[0])
    assert serial.n_subflows == 2 * one["n_subflows_total"]


def test_shards_are_isolated_from_ambient_obs_session():
    """Each shard's counters come from a private registry: an ambient
    obs session in the calling process (the bench runner's, say) must
    not bleed cumulative counts into later shards' payloads."""
    import repro.obs as obs

    with obs.session(label="test.sharding"):
        result = run_sharded("bcube", n_shards=2, jobs=1, **FAST)
    expected_steps = 2 * round(FAST["duration"] / FAST["dt"])
    assert result.steps_taken == expected_steps


def test_shard_replicas_differ_from_each_other():
    """Different shard indices carry genuinely different workloads (the
    derived seed reaches path selection, pairing, and the engine RNG)."""
    s0, s1 = make_shard_specs("bcube", n_shards=2, **FAST)
    p0, p1 = simulate_shard(s0), simulate_shard(s1)
    assert p0["aggregate_goodput_bps"] != p1["aggregate_goodput_bps"]


# --------------------------------------------------------- campaign wiring


def test_executor_sharded_fluid_run():
    spec = RunSpec(topology="bcube", n_subflows=2, seed=3, duration=0.2,
                   dt=0.01, params={"shards": 2, "dtype": "float32"})
    payload = execute_run(spec)
    m = payload["metrics"]
    assert m["n_shards"] == 2
    assert m["aggregate_goodput_bps"] > 0
    assert len(payload["obs"]["shard_wall_s"]) == 2
    # shard_jobs is scheduling, not physics: same metrics at any value.
    assert execute_run(spec, shard_jobs=2)["metrics"] == m
    # And it never reaches the content hash (cacheable across machines).
    assert payload["spec_hash"] == spec.content_hash()


def test_sharded_run_obs_folds_every_shard():
    """Each shard steps into a private registry; the run's ``obs`` is
    their fold, so the step counter adds up over shards."""
    spec = RunSpec(topology="bcube", n_subflows=2, seed=3, duration=0.2,
                   dt=0.01, params={"shards": 3})
    payload = execute_run(spec)
    steps_per_shard = 20
    assert payload["metrics"]["steps_taken"] == 3 * steps_per_shard
    assert payload["obs"]["engine.steps_taken"] == 3 * steps_per_shard
    assert payload["obs"]["fluid.rate_norm_bps"]["count"] > 0
    pooled = execute_run(spec, shard_jobs=2)
    assert pooled["obs"]["engine.steps_taken"] == 3 * steps_per_shard
    assert json.dumps(pooled["metrics"], sort_keys=True) == json.dumps(
        payload["metrics"], sort_keys=True)


def test_executor_sharded_run_rejects_unknown_params():
    spec = RunSpec(topology="bcube", n_subflows=1, seed=1, duration=0.1,
                   dt=0.01, params={"shards": 2, "bogus": 1})
    with pytest.raises(ConfigurationError, match="bogus"):
        execute_run(spec)


def test_executor_equilibrium_run_metrics_parity():
    """The fluid-equilibrium engine emits the same metrics keys as a
    time-stepped fluid run (plus solver diagnostics), so the sweep
    aggregation layer consumes either interchangeably."""
    fluid = RunSpec(topology="bcube", algorithm="lia", n_subflows=2,
                    seed=1, duration=6.0, dt=0.01)
    eq = fluid.replace(engine="fluid-equilibrium")
    m_fluid = execute_run(fluid)["metrics"]
    m_eq = execute_run(eq)["metrics"]
    assert set(m_fluid) | {"solver"} == set(m_eq)
    assert m_eq["solver"]["fallback"] is False
    assert m_eq["solver"]["converged"] is True
    assert m_eq["solver"]["iterations"] > 10
    assert m_eq["steps_taken"] == 0
    assert m_eq["aggregate_goodput_bps"] == pytest.approx(
        m_fluid["aggregate_goodput_bps"], rel=0.20)
    assert m_eq["energy_per_gb"] > 0
    assert fluid.content_hash() != eq.content_hash()


def test_equilibrium_run_obs_carries_the_solver_gauges():
    """The solver reports into the run's registry, not the ambient one."""
    spec = RunSpec(topology="bcube", algorithm="lia", n_subflows=1, seed=1,
                   duration=1.0, dt=0.01, engine="fluid-equilibrium")
    payload = execute_run(spec)
    iterations = payload["metrics"]["solver"]["iterations"]
    assert payload["obs"]["fluid.equilibrium.iterations"] == iterations > 10
    assert payload["obs"]["fluid.equilibrium.residual_window"] < 1e-3


def test_executor_equilibrium_falls_back_for_unsupported_algorithm():
    spec = RunSpec(topology="bcube", algorithm="wvegas", n_subflows=2,
                   seed=1, duration=0.2, dt=0.01,
                   engine="fluid-equilibrium")
    m = execute_run(spec)["metrics"]
    assert m["solver"]["fallback"] is True
    assert "no loss-balance equilibrium" in m["solver"]["reason"]
    assert m["steps_taken"] == 20  # integrated instead
    assert m["aggregate_goodput_bps"] > 0


def test_city_scale_topologies_build_and_validate():
    t24 = build_topology("fattree24")
    assert len(list(t24.hosts)) == 3456
    # Spec layer accepts the city-scale names on both fluid engines...
    RunSpec(topology="fattree24", engine="fluid")
    RunSpec(topology="fattree32", engine="fluid-equilibrium")
    # ...but not on the packet engines.
    with pytest.raises(ConfigurationError, match="cannot run topology"):
        RunSpec(topology="fattree24", engine="packet-batch")


def test_cli_sweep_equilibrium_and_sharded(tmp_path, capsys):
    from repro.cli import main

    rc = main(["sweep", "--topologies", "bcube", "--subflows", "1",
               "--seeds", "1", "--duration", "0.4", "--dt", "0.01",
               "--engine", "fluid-equilibrium",
               "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert "topology: bcube" in capsys.readouterr().out

    rc = main(["sweep", "--topologies", "bcube", "--subflows", "1",
               "--seeds", "1", "--duration", "0.2", "--dt", "0.01",
               "--shards", "2", "--jobs", "2",
               "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert "topology: bcube" in capsys.readouterr().out

    rc = main(["sweep", "--topologies", "bcube", "--subflows", "1",
               "--seeds", "1", "--engine", "fluid-equilibrium",
               "--shards", "2", "--cache-dir", str(tmp_path)])
    assert rc == 2
    assert "time-stepped fluid engine only" in capsys.readouterr().err
