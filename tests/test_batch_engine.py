"""Unit and edge-case tests for the batched packet engine itself:
cohort scheduling, compaction, scalar-fallback re-entry, scenario
validation, the campaign-executor integration, and the DES hooks."""

from __future__ import annotations

import json
import math

import pytest

import repro.net.batch.engine as engine_mod
from repro.errors import ConfigurationError
from repro.net.batch import (
    MAX_VECTOR_BURST,
    VECTOR_ALGORITHMS,
    BatchConnection,
    BatchEngine,
    BatchPath,
    BatchScenario,
    ec2_scenario,
)
from repro.net.batch.oracle import OracleEngine
from repro.net.events import TickCohorts


def _single_path(**overrides):
    base = dict(base_rtt=0.004, rate_bps=32e6, loss_rate=0.0,
                queue_segments=16)
    base.update(overrides)
    return BatchPath(**base)


# --------------------------------------------------------- cohort scheduler


class TestTickCohorts:
    def test_pop_returns_sorted_keys_per_tick(self):
        cohorts = TickCohorts()
        cohorts.push(5, (2, 0))
        cohorts.push(3, (1, 1))
        cohorts.push(5, (0, 1))
        cohorts.push(5, (2, 1))
        assert cohorts.peek_tick() == 3
        assert cohorts.pop_cohort() == (3, [(1, 1)])
        assert cohorts.pop_cohort() == (5, [(0, 1), (2, 0), (2, 1)])
        assert cohorts.peek_tick() is None
        assert not cohorts

    def test_len_counts_scheduled_keys(self):
        cohorts = TickCohorts()
        assert len(cohorts) == 0
        cohorts.push(1, "a")
        cohorts.push(1, "b")
        cohorts.push(9, "c")
        assert len(cohorts) == 3
        cohorts.pop_cohort()
        assert len(cohorts) == 1

    def test_reuse_of_popped_tick(self):
        cohorts = TickCohorts()
        cohorts.push(2, "x")
        cohorts.pop_cohort()
        cohorts.push(2, "y")
        assert cohorts.pop_cohort() == (2, ["y"])


def test_single_connection_cohort():
    """A one-connection, one-subflow scenario: every cohort has exactly
    one member, and the engine still matches the oracle."""
    scenario = BatchScenario(
        connections=(BatchConnection(paths=(_single_path(),),
                                     algorithm="dts"),),
        duration=0.3, tick=1e-3, seed=11)
    oracle = OracleEngine(scenario, record=True).run()
    batch = BatchEngine(scenario, record=True).run()
    assert oracle.trajectory == batch.trajectory
    assert batch.counters["cohort_ticks"] == batch.counters["rounds"] \
        or batch.counters["cohort_ticks"] <= batch.counters["rounds"]
    assert batch.counters["vector_rounds"] > 0


def test_all_connections_lossy_step():
    """loss_rate=1.0 makes every round of every connection lossy: the
    whole batch runs through the scalar fallback, timeouts fire and
    back off, and the engines stay identical."""
    conn = BatchConnection(paths=(_single_path(loss_rate=0.99),),
                           algorithm="dts")
    scenario = BatchScenario(connections=(conn,) * 5, duration=0.5,
                             tick=1e-3, seed=2)
    oracle = OracleEngine(scenario, record=True).run()
    batch = BatchEngine(scenario, record=True).run()
    assert oracle.trajectory == batch.trajectory
    assert batch.counters["vector_rounds"] == 0
    assert batch.counters["fallback_rounds"] == batch.counters["rounds"]
    state = batch.final_state()
    assert any(rec[9] > 1.0 for rec in state.values()), \
        "expected RTO backoff growth under total loss"


def test_midrun_completion_shrinks_arrays(monkeypatch):
    """Finite transfers that complete mid-run trigger compaction: their
    rows are archived and the live arrays shrink, without disturbing the
    surviving connections' trajectories or results."""
    quick = BatchConnection(paths=(_single_path(),), algorithm="dts",
                            total_segments=40)
    slow = BatchConnection(paths=(_single_path(base_rtt=0.008),),
                           algorithm="lia")
    scenario = BatchScenario(connections=(quick, quick, quick, slow),
                             duration=0.6, tick=1e-3, seed=4)
    oracle = OracleEngine(scenario, record=True).run()
    monkeypatch.setattr(engine_mod, "_COMPACT_MIN_ROWS", 1)
    monkeypatch.setattr(engine_mod, "_COMPACT_FRACTION", 0.0)
    batch = BatchEngine(scenario, record=True).run()
    assert batch.counters["compactions"] > 0
    assert oracle.trajectory == batch.trajectory
    assert oracle.final_state() == batch.final_state()
    result = batch.result()
    assert result["totals"]["completed"] == 3
    # Archived (completed) connections still appear in gid order.
    assert [c["id"] for c in result["connections"]] == [0, 1, 2, 3]


def test_scalar_fallback_reentry():
    """A connection that takes the fallback path (lossy round) must
    re-enter the vector path on its next clean round: both counters
    advance for the same connection."""
    conn = BatchConnection(paths=(_single_path(loss_rate=0.05),),
                           algorithm="dts")
    scenario = BatchScenario(connections=(conn,), duration=1.0,
                             tick=1e-3, seed=8)
    batch = BatchEngine(scenario, record=True).run()
    assert batch.counters["vector_rounds"] > 0
    assert batch.counters["fallback_rounds"] > 0
    # Vector rounds happen after fallback rounds: find a lossy round
    # followed by a later round for the same (single) connection.
    oracle = OracleEngine(scenario, record=True).run()
    assert oracle.trajectory == batch.trajectory


def test_oversize_burst_uses_fallback():
    """Bursts above MAX_VECTOR_BURST stay on the scalar path even when
    clean, by contract."""
    path = _single_path(rate_bps=10e9, base_rtt=0.02, queue_segments=10_000)
    conn = BatchConnection(paths=(path,), algorithm="dts",
                           initial_cwnd=float(MAX_VECTOR_BURST + 100),
                           rwnd_segments=float(MAX_VECTOR_BURST + 100))
    scenario = BatchScenario(connections=(conn,), duration=0.2,
                             tick=1e-3, seed=1)
    batch = BatchEngine(scenario).run()
    oracle = OracleEngine(scenario).run()
    assert batch.counters["fallback_rounds"] > 0
    assert batch.final_state() == oracle.final_state()


def test_counters_are_one_store_published_once():
    """``engine.counters`` is where events are counted; ``run()`` adds
    them to the registry as ``batch.<name>``, and the per-cause split of
    the fallback count (first match wins: scalar controller, oversize
    burst, loss) sums to it."""
    import repro.obs as obs

    big = float(MAX_VECTOR_BURST + 100)
    fat = _single_path(rate_bps=10e9, base_rtt=0.02, queue_segments=10_000)
    conns = (
        BatchConnection(paths=(_single_path(loss_rate=0.05),), algorithm="olia"),
        BatchConnection(paths=(fat,), algorithm="dts", initial_cwnd=big,
                        rwnd_segments=big),
        BatchConnection(paths=(_single_path(loss_rate=0.05),), algorithm="lia"),
    )
    scenario = BatchScenario(connections=conns, duration=0.3, tick=1e-3, seed=3)
    registry = obs.MetricsRegistry()
    batch = BatchEngine(scenario, metrics=registry).run()
    counters = batch.counters
    assert all(type(value) is int for value in counters.values())
    assert counters["rounds"] == (counters["vector_rounds"]
                                  + counters["fallback_rounds"])
    causes = [counters[f"fallback_rounds.{cause}"] for cause in
              ("scalar_controller", "oversize_burst", "loss")]
    assert all(n > 0 for n in causes)
    assert sum(causes) == counters["fallback_rounds"]
    assert counters["vector_rounds"] > 0

    def published():
        return {name[len("batch."):]: value
                for name, value in registry.snapshot().items()
                if name != "batch.wall_time_s"}

    assert published() == counters
    # A finished engine has nothing left to run, or to publish again.
    before = dict(counters)
    assert batch.run().counters == before == published()


# ------------------------------------------------------ scenario validation


class TestScenarioValidation:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(Exception):
            BatchConnection(paths=(_single_path(),), algorithm="nope")

    def test_rejects_empty_paths(self):
        with pytest.raises(ConfigurationError):
            BatchConnection(paths=())

    def test_rejects_bad_path(self):
        with pytest.raises(ConfigurationError):
            BatchPath(base_rtt=-1.0)
        with pytest.raises(ConfigurationError):
            BatchPath(loss_rate=1.5)

    @pytest.mark.parametrize("field", ["base_rtt", "rate_bps"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_path_rejects_non_finite(self, field, bad):
        with pytest.raises(ConfigurationError, match=field):
            BatchPath(**{field: bad})
        # ...and so does the builder that derives a path from its arguments.
        with pytest.raises(ConfigurationError, match=field):
            ec2_scenario(**{{"base_rtt": "link_delay",
                             "rate_bps": "eni_bps"}[field]: bad})

    @pytest.mark.parametrize("kwargs, named", [
        ({"rwnd_segments": math.nan}, "rwnd_segments"),
        ({"initial_cwnd": math.nan}, "initial_cwnd"),
        ({"initial_cwnd": math.inf}, "initial_cwnd"),
        ({"controller_kwargs": {"nope": 1}}, "controller_kwargs"),
        ({"algorithm": "olia", "controller_kwargs": {"c": 2.0}},
         "controller_kwargs"),
    ])
    def test_connection_rejects_what_its_engine_would_choke_on(self, kwargs,
                                                               named):
        with pytest.raises(ConfigurationError, match=named):
            BatchConnection(paths=(_single_path(),), **kwargs)

    def test_connection_accepts_an_unlimited_receive_window(self):
        conn = BatchConnection(paths=(_single_path(),), algorithm="dts",
                               rwnd_segments=math.inf,
                               controller_kwargs={"c": 2.0})
        scenario = BatchScenario(connections=(conn,), duration=0.2, seed=1)
        assert (BatchEngine(scenario).run().final_state()
                == OracleEngine(scenario).run().final_state())

    @pytest.mark.parametrize("field", ["duration", "tick"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_scenario_rejects_non_finite(self, field, bad):
        conn = BatchConnection(paths=(_single_path(),))
        with pytest.raises(ConfigurationError, match=field):
            BatchScenario(connections=(conn,), **{field: bad})

    def test_rejects_empty_scenario(self):
        with pytest.raises(ConfigurationError):
            BatchScenario(connections=())

    def test_ec2_scenario_shape(self):
        scenario = ec2_scenario(n_hosts=7, n_subflows=3, algorithm="lia")
        assert scenario.n_connections == 7
        assert scenario.max_subflows == 3
        assert all(c.algorithm == "lia" for c in scenario.connections)
        with pytest.raises(ConfigurationError):
            ec2_scenario(n_hosts=0)

    def test_vector_algorithms_constant(self):
        assert set(VECTOR_ALGORITHMS) == {"dts", "lia"}


# ------------------------------------------------------ campaign integration


def test_campaign_executor_packet_engines_byte_equal():
    """execute_run for a packet-batch point returns the metrics section
    the scalar oracle yields for the scenario the spec describes, byte
    for byte — the equivalence claim, held end to end through the
    campaign executor."""
    from repro.campaign.executor import execute_run
    from repro.campaign.spec import RunSpec

    spec = RunSpec(engine="packet-batch", algorithm="dts", topology="ec2",
                   n_subflows=2, seed=5, duration=0.2, dt=2e-3,
                   params={"n_hosts": 4, "loss_rate": 0.01})
    batch = execute_run(spec)
    scenario = ec2_scenario(n_hosts=4, n_subflows=2, algorithm="dts",
                            link_delay=spec.link_delay, loss_rate=0.01,
                            duration=0.2, tick=2e-3, seed=5)
    oracle = OracleEngine(scenario).run().result()
    want = {
        "aggregate_goodput_bps": oracle["aggregate_goodput_bps"],
        "n_connections": oracle["n_connections"],
        **{f"total_{k}": v for k, v in oracle["totals"].items()},
        "connections": oracle["connections"],
    }
    assert (json.dumps(batch["metrics"], sort_keys=True)
            == json.dumps(want, sort_keys=True))
    # Engine-private counters live in obs, not metrics.
    assert batch["obs"]["batch.vector_rounds"] > 0
    assert batch["obs"]["batch.fallback_rounds"] > 0


def test_runspec_engine_topology_validation():
    from repro.campaign.spec import RunSpec

    with pytest.raises(ConfigurationError):
        RunSpec(engine="fluid", topology="ec2")
    with pytest.raises(ConfigurationError):
        RunSpec(engine="packet-batch", topology="bcube")
    # The scalar oracle is a test reference, not an engine a spec can name.
    with pytest.raises(ConfigurationError, match="unknown engine"):
        RunSpec(engine="packet-oracle", topology="ec2")


def test_ec2_sweep_campaign_builder():
    from repro.campaign.spec import ec2_sweep_campaign

    campaign = ec2_sweep_campaign(subflow_counts=(1, 2), seeds=(1,),
                                  n_hosts=8)
    assert all(r.engine == "packet-batch" for r in campaign.runs)
    assert len(campaign.runs) == 2
    assert all(r.topology == "ec2" for r in campaign.runs)
    assert all(r.params["n_hosts"] == 8 for r in campaign.runs)


# ----------------------------------------------------------------- DES hooks


def _toy_des_connection():
    from repro.algorithms import create_controller
    from repro.net import Host, Link, MptcpConnection, Route, Simulator, Switch

    sim = Simulator()
    h1, h2, sw = Host("h1"), Host("h2"), Switch("s1")
    fwd = [Link(sim, h1, sw, 64e6, 0.0005, loss_rate=0.001),
           Link(sim, sw, h2, 64e6, 0.0005)]
    rev = [Link(sim, h2, sw, 64e6, 0.0005),
           Link(sim, sw, h1, 64e6, 0.0005)]
    route = Route(fwd, rev)
    return MptcpConnection(sim, [route, route], create_controller("dts"),
                           total_bytes=10**6)


def test_mptcp_batch_spec_projects_connection():
    conn = _toy_des_connection()
    spec = conn.batch_spec()
    assert spec.algorithm == "dts"
    assert spec.n_subflows == 2
    assert spec.total_segments == conn.supply.total
    path = spec.paths[0]
    assert path.base_rtt == pytest.approx(0.002)
    assert path.rate_bps == 64e6
    assert 0.0 < path.loss_rate < 0.01
    # The projection is actually runnable.
    scenario = BatchScenario(connections=(spec,), duration=0.2,
                             tick=1e-3, seed=0)
    result = BatchEngine(scenario).run().result()
    assert result["totals"]["acked_segments"] > 0


# ------------------------------------------------------------------ speedup


def test_batch_speedup_over_oracle():
    """At a few hundred connections the struct-of-arrays engine must
    beat the scalar oracle by a wide margin (the megascale bench gates
    >=5x at 1000 hosts; this in-suite check uses a smaller scale and a
    conservative 2x bar to stay fast and noise-proof)."""
    import time

    scenario = ec2_scenario(n_hosts=300, n_subflows=2, algorithm="dts",
                            duration=0.1, queue_segments=64, seed=3)
    t0 = time.perf_counter()
    batch = BatchEngine(scenario).run()
    batch_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle = OracleEngine(scenario).run()
    oracle_s = time.perf_counter() - t0
    assert (json.dumps(batch.result(), sort_keys=True)
            == json.dumps(oracle.result(), sort_keys=True))
    assert oracle_s > 2.0 * batch_s, (
        f"batch {batch_s:.3f}s vs oracle {oracle_s:.3f}s")
