"""Property-based equivalence: the batched struct-of-arrays engine is
bit-for-bit indistinguishable from the scalar oracle.

The contract (repro.net.batch.model): for any scenario — any mix of
controllers, path shapes, loss rates, transfer sizes — both engines
produce identical state trajectories (every per-round subflow record),
identical final states, identical result payloads, and leave the shared
RNG stream in the same terminal state.  Equality is exact (`==` on
floats), never approximate.
"""

from __future__ import annotations

import json
from collections import Counter
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.net.batch.engine as engine_mod
import repro.net.batch.model as model
from repro.algorithms import algorithm_names
from repro.net.batch import (
    VECTOR_ALGORITHMS,
    BatchConnection,
    BatchEngine,
    BatchPath,
    BatchScenario,
    ec2_scenario,
)
from repro.net.batch.oracle import OracleEngine

#: Every vectorized algorithm plus a spread of scalar-resident ones
#: (which exercise the permanent-fallback lanes alongside vector lanes).
ALGORITHMS = ("dts", "lia", "olia", "reno", "balia", "dts-ext", "wvegas")


def _build_scenario(path_data, conn_data, duration, tick, seed):
    paths = tuple(
        BatchPath(
            base_rtt=base_rtt,
            rate_bps=rate_mbps * 1e6,
            loss_rate=loss,
            queue_segments=queue,
        )
        for base_rtt, rate_mbps, loss, queue in path_data
    )
    conns = tuple(
        BatchConnection(
            paths=paths[:n_paths],
            algorithm=algo,
            total_segments=total,
            initial_cwnd=float(cwnd0),
            rwnd_segments=float(rwnd),
        )
        for algo, n_paths, total, cwnd0, rwnd in conn_data
    )
    return BatchScenario(connections=conns, duration=duration, tick=tick,
                         seed=seed)


def _assert_engines_equivalent(scenario):
    oracle = OracleEngine(scenario, record=True).run()
    with mock.patch.multiple(engine_mod, _COMPACT_MIN_ROWS=2,
                             _COMPACT_FRACTION=0.0):
        batch = BatchEngine(scenario, record=True).run()
    # State trajectories: every (tick, gid, slot) record, bit for bit.
    assert len(oracle.trajectory) == len(batch.trajectory)
    for i, (a, b) in enumerate(zip(oracle.trajectory, batch.trajectory)):
        assert a == b, f"trajectory diverged at round {i}:\n{a}\n{b}"
    # Terminal per-subflow state.
    assert oracle.final_state() == batch.final_state()
    # Result payloads, byte for byte through JSON.
    assert (json.dumps(oracle.result(), sort_keys=True)
            == json.dumps(batch.result(), sort_keys=True))
    # Both engines consumed the shared RNG stream identically.
    assert oracle.rng_state() == batch.rng_state()
    return oracle, batch


path_strategy = st.tuples(
    st.sampled_from([0.001, 0.002, 0.004, 0.012, 0.03]),   # base_rtt
    st.sampled_from([8.0, 16.0, 48.0, 96.0, 256.0]),       # rate (Mbps)
    st.sampled_from([0.0, 0.001, 0.02, 0.1, 0.3]),         # loss_rate
    st.integers(0, 32),                                     # queue_segments
)

conn_strategy = st.tuples(
    st.sampled_from(ALGORITHMS),
    st.integers(1, 3),                                      # n_paths
    st.one_of(st.none(), st.integers(1, 600)),              # total_segments
    st.integers(1, 12),                                     # initial_cwnd
    st.integers(4, 48),                                     # rwnd_segments
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    path_data=st.lists(path_strategy, min_size=3, max_size=3),
    conn_data=st.lists(conn_strategy, min_size=1, max_size=6),
    duration=st.sampled_from([0.1, 0.3, 0.8]),
    tick=st.sampled_from([5e-4, 1e-3, 4e-3]),
    seed=st.integers(0, 10_000),
)
# DTS and extended DTS share one Eq. (5) evaluation; a memo that only one
# of the two classes carries breaks the other.
@example(path_data=[(0.004, 48.0, 0.02, 8), (0.012, 16.0, 0.001, 16),
                    (0.002, 96.0, 0.1, 4)],
         conn_data=[("dts", 2, None, 4, 32), ("dts-ext", 3, 400, 8, 24)],
         duration=0.3, tick=1e-3, seed=7)
def test_batch_engine_bit_identical_to_oracle(path_data, conn_data,
                                              duration, tick, seed):
    """Random controller mixes, path shapes, loss rates, and transfer
    sizes: trajectories, final states, results, and RNG state all match
    the scalar oracle exactly."""
    scenario = _build_scenario(path_data, conn_data, duration, tick, seed)
    _assert_engines_equivalent(scenario)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    algorithm=st.sampled_from(["dts", "lia"]),
    n_subflows=st.integers(1, 4),
    loss_rate=st.sampled_from([0.0, 0.001, 0.05]),
    seed=st.integers(0, 1000),
)
def test_ec2_scenario_equivalence(algorithm, n_subflows, loss_rate, seed):
    """The canonical EC2 scenario (what the campaign executor and the
    megascale bench run) is equivalent under both engines, and the
    vectorized algorithms actually take the vector path."""
    scenario = ec2_scenario(n_hosts=4, n_subflows=n_subflows,
                            algorithm=algorithm, loss_rate=loss_rate,
                            duration=0.3, seed=seed)
    _oracle, batch = _assert_engines_equivalent(scenario)
    assert batch.counters["vector_rounds"] > 0


def test_vector_and_fallback_rounds_both_exercised():
    """The headline example is only convincing if both code paths run:
    a lossy DTS scenario must split rounds between the vector kernels
    (clean rounds) and the scalar fallback (lossy rounds)."""
    scenario = ec2_scenario(n_hosts=6, n_subflows=3, algorithm="dts",
                            loss_rate=0.02, duration=0.5, seed=42)
    _oracle, batch = _assert_engines_equivalent(scenario)
    assert batch.counters["vector_rounds"] > 0
    assert batch.counters["fallback_rounds"] > 0


def test_scalar_resident_controllers_match():
    """Every controller without a vector kernel (its every round is a
    scalar round on the connection's ``SubflowPort`` objects, loaded from
    and stored back to the engine arrays) beside one DTS and one LIA
    connection (whose rows the vector kernels rewrite between scalar
    rounds), on two unlike lossy paths, every other transfer finite so
    rows are compacted away mid-run.  DWC reads ``sim.now``, so this also
    pins the clock the ports share."""
    paths = (BatchPath(base_rtt=0.004, rate_bps=32e6, loss_rate=0.01,
                       queue_segments=8),
             BatchPath(base_rtt=0.011, rate_bps=12e6, loss_rate=0.03,
                       queue_segments=20))
    scalar_resident = [name for name in algorithm_names()
                       if name not in VECTOR_ALGORITHMS]
    assert {"dctcp", "dwc", "olia"} <= set(scalar_resident)
    conns = tuple(
        BatchConnection(paths=paths, algorithm=algo,
                        total_segments=300 if i % 2 else None)
        for i, algo in enumerate(scalar_resident + ["dts", "lia"])
    )
    scenario = BatchScenario(connections=conns, duration=0.4, tick=1e-3,
                             seed=9)
    _oracle, batch = _assert_engines_equivalent(scenario)
    assert batch.counters["vector_rounds"] > 0
    assert batch.counters["fallback_rounds.scalar_controller"] > 0
    assert batch.counters["fallback_rounds.loss"] > 0
    assert batch.counters["compactions"] > 0


def test_eq5_is_evaluated_at_most_once_per_scalar_round(monkeypatch):
    """``grow_window`` asks for epsilon on every ACK, but base RTT and RTT
    are fixed within a round, so a scalar round of a DTS or extended DTS
    subflow evaluates Eq. (5) at most once, in both engines."""
    current = []
    calls: Counter = Counter()
    scalar_round, dts_factor = model.scalar_round, model.dts_factor

    def counted_round(sub, conn, u, now_tick, tick):
        # The engines' clocks tell the oracle's rounds from the engine's.
        current.append((id(sub.sim), conn.gid, sub.subflow_index, now_tick))
        scalar_round(sub, conn, u, now_tick, tick)
        current.pop()

    def counted_factor(*args):
        calls[current[-1] if current else None] += 1
        return dts_factor(*args)

    monkeypatch.setattr(model, "scalar_round", counted_round)
    monkeypatch.setattr(model, "dts_factor", counted_factor)
    paths = (BatchPath(base_rtt=0.004, rate_bps=32e6, loss_rate=0.01,
                       queue_segments=8),
             BatchPath(base_rtt=0.011, rate_bps=12e6, loss_rate=0.03,
                       queue_segments=20))
    conns = tuple(BatchConnection(paths=paths, algorithm=algo, initial_cwnd=8.0)
                  for algo in ("dts", "dts-ext", "dts", "dts-ext"))
    scenario = BatchScenario(connections=conns, duration=0.5, tick=1e-3, seed=3)
    _oracle, batch = _assert_engines_equivalent(scenario)
    assert None not in calls
    assert calls and max(calls.values()) == 1
    assert batch.counters["fallback_rounds.loss"] > 0
