"""Equivalence tests for the packet engine's allocation and timer machinery.

Packet pooling, RTO timer coalescing and heap compaction are
*behaviour-preserving*: every one of them must be invisible to the
simulation. None has an off switch in ``repro.net``, so these tests build
the un-optimised behaviour themselves — a never-reached compaction
threshold, ``sim.pool.enabled = False``, a per-ACK cancel+reschedule
sender — and compare under random schedules, cancellations, and network
conditions; a leak check proves the pool's lifecycle bookkeeping. The
stdlib generator every engine draws from, and its array fill, are held to
the numpy stream they reproduce.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.net.events as events_mod
import repro.net.mptcp as mptcp_mod
from repro._uniforms import _SCALAR_BELOW, CHUNK, fill_random
from repro.net.events import Simulator
from repro.net.flow import TcpSender
from repro.net.network import Network
from repro.net.queues import DropTailQueue
from repro.units import mbps, ms
from tests.oracles.pipe_reference import compute_pipe_reference

#: A stub count no heap reaches: compaction never triggers.
NEVER_COMPACT = 1 << 62

# --------------------------------------------------------- event-order props


def _run_program(sim: Simulator, program) -> list:
    """Execute a random schedule/cancel program; returns the dispatch trace.

    ``program`` is a list of (delay, n_children, cancel_index) triples:
    one initial event per triple, whose callback schedules ``n_children``
    follow-up events (handle-less posts and cancellable schedules
    alternating) and cancels the pending handle at ``cancel_index``.
    Everything is deterministic, so any two simulators given the same
    program must produce byte-identical traces.
    """
    trace = []
    handles = []

    def fire(tag, n_children, cancel_index):
        trace.append((round(sim.now, 9), tag))
        for k in range(n_children):
            child_tag = (tag, k)
            delay = 0.25 * (k + 1)
            if k % 2:
                sim.post(delay, fire, child_tag, 0, -1)
            else:
                handles.append(
                    sim.schedule(delay, fire, child_tag, 0, -1))
        if handles and cancel_index >= 0:
            handles[cancel_index % len(handles)].cancel()

    for i, (delay, n_children, cancel_index) in enumerate(program):
        handles.append(sim.schedule(delay, fire, i, n_children, cancel_index))
    sim.run()
    return trace


program_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=4.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(0, 3),
        st.integers(-1, 50),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=program_strategy)
def test_compaction_preserves_execution_order(program):
    """Aggressive heap compaction dispatches the exact event sequence the
    never-compacting simulator does, including (time, tie-break) order."""
    with mock.patch.object(events_mod, "_COMPACT_MIN_STUBS", NEVER_COMPACT):
        baseline = _run_program(Simulator(seed=1), program)
    with mock.patch.multiple(events_mod, _COMPACT_MIN_STUBS=1,
                             _COMPACT_FRACTION=0.0):
        compacted = _run_program(Simulator(seed=1), program)
    assert compacted == baseline


def test_compaction_actually_triggers_and_preserves_order(monkeypatch):
    """A cancel-heavy workload crosses the compaction threshold (so the
    property above is not vacuous) and still dispatches in order."""
    monkeypatch.setattr(events_mod, "_COMPACT_MIN_STUBS", 8)
    monkeypatch.setattr(events_mod, "_COMPACT_FRACTION", 0.25)
    sim = Simulator(seed=1)
    fired = []
    # Enough live events to reach the probe cadence (checks fire once per
    # 1024 dispatches) with cancelled stubs still dominating the heap.
    handles = [sim.schedule(1.0 + i * 1e-6, fired.append, i)
               for i in range(50_000)]
    for i, h in enumerate(handles):
        if i % 10:  # cancel 90%: stubs dominate the heap
            h.cancel()
    sim.schedule(2.0, fired.append, "last")
    sim.run()
    assert sim.heap_compactions > 0
    assert fired == [i for i in range(50_000) if i % 10 == 0] + ["last"]


def test_cancelled_stub_accounting_survives_compaction(monkeypatch):
    monkeypatch.setattr(events_mod, "_COMPACT_MIN_STUBS", 4)
    monkeypatch.setattr(events_mod, "_COMPACT_FRACTION", 0.1)
    sim = Simulator(seed=1)
    handles = [sim.schedule(1.0, lambda: None) for _ in range(64)]
    for h in handles:
        h.cancel()
        h.cancel()  # idempotent: must not double-count
    sim.run()
    assert sim._cancelled_pending == 0
    assert sim.pending() == 0


# ------------------------------------------------------- generator contract

#: Fill sizes around the scalar cutoff and the table chunk's edges.
_FILL_EDGES = [1, _SCALAR_BELOW - 1, _SCALAR_BELOW, _SCALAR_BELOW + 1,
               CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 3 * CHUNK - 1, 3 * CHUNK]

rng_ops = st.lists(
    st.one_of(
        st.sampled_from(["random", "expo_a", "expo_b", "pareto", "uniform"]),
        st.tuples(st.just("fill"), st.one_of(st.sampled_from(_FILL_EDGES),
                                             st.integers(1, 3 * CHUNK))),
        st.tuples(st.just("advance"), st.one_of(st.integers(0, 5000),
                                                st.integers(0, 2**130))),
        st.tuples(st.just("shuffle"), st.integers(0, 70)),
        st.integers(1, 120).flatmap(lambda m: st.tuples(
            st.just("choice"), st.just(m), st.integers(0, m))),
        # Either side of numpy's switch from Floyd's algorithm to a tail shuffle.
        st.sampled_from([("choice", 10_001, 200), ("choice", 10_001, 201),
                         ("choice", 20_000, 1000)])),
    min_size=1, max_size=300)

#: 0, the 32-bit and 64-bit word boundaries of SeedSequence's entropy
#: array, and past the four-word pool (a fifth word takes another branch).
rng_seeds = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**70, 2**128, 2**160 + 1]),
    st.integers(0, 2**31 - 1), st.integers(2**32, 2**192))


@settings(max_examples=60, deadline=None)
@given(seed=rng_seeds, ops=rng_ops)
def test_sim_rand_is_default_rng_stream(seed, ops):
    """``sim.rand`` *is* ``np.random.default_rng(seed)``: any interleaving
    of the scalar draws, array fills, jumps, shuffles and picks yields the
    same values and the same final bit-generator state, buffered 32-bit
    half included — the stream every seeded figure and golden was
    recorded under."""
    direct = np.random.default_rng(seed)
    rand = Simulator(seed=seed).rand
    assert rand.state == direct.bit_generator.state
    for op in ops:
        kind = op[0] if isinstance(op, tuple) else op
        if kind == "random":
            want, got = direct.random(), rand.random()
        elif kind == "expo_a":
            want, got = direct.exponential(2.0), rand.exponential(2.0)
        elif kind == "expo_b":
            want, got = direct.exponential(0.5), rand.exponential(0.5)
        elif kind == "pareto":
            want, got = direct.pareto(1.5), rand.pareto(1.5)
        elif kind == "uniform":
            want, got = direct.uniform(1.0, 3.0), rand.uniform(1.0, 3.0)
        elif kind == "fill":
            want = direct.random(op[1]).tobytes()
            got = fill_random(rand, np.empty(op[1])).tobytes()
        elif kind == "advance":
            direct.bit_generator.advance(op[1])
            want, got = None, rand.advance(op[1])
        elif kind == "shuffle":
            want, got = list(range(op[1])), list(range(op[1]))
            direct.shuffle(want)
            rand.shuffle(got)
        else:
            want = direct.choice(op[1], op[2], replace=False).tolist()
            got = rand.choice(op[1], op[2])
        assert got == want, op
    assert rand.state == direct.bit_generator.state


def test_exponential_matches_numpy_through_tail_and_wedge():
    """10^6 draws reach the ziggurat's rare branches thousands of times
    (~1.1% leave the rectangle: layer 0 is the tail, the rest the wedge
    test and its redraw), so a wrong table entry cannot hide."""
    n = 1_000_000
    direct = np.random.default_rng(2**64 + 24)
    rand = Simulator(seed=2**64 + 24).rand
    want = direct.exponential(3.0, n)
    assert [rand.exponential(3.0) for _ in range(n)] == want.tolist()
    assert rand.state == direct.bit_generator.state


# ----------------------------------------------------- pipe closed-form prop

@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compute_pipe_matches_reference(data):
    """The closed-form pipe computation equals the per-sequence oracle for
    every scoreboard state the sender can actually reach."""
    net = Network(seed=1)
    a, b = net.add_host("a"), net.add_host("b")
    net.link(a, b, rate_bps=mbps(100), delay=ms(5))
    conn = net.tcp_connection(net.route([a, b]), total_bytes=10_000)
    sender = conn.subflows[0]

    acked = data.draw(st.integers(0, 60), label="acked")
    recover = acked + data.draw(st.integers(0, 60), label="recover_gap")
    high = recover + data.draw(st.integers(0, 30), label="frontier_gap")
    # SACKed seqs are strictly above the cumulative ACK point; outstanding
    # retransmissions live in [acked, recover) and are disjoint from them.
    sackable = list(range(acked + 1, high))
    sacked = set(data.draw(st.lists(st.sampled_from(sackable), unique=True))
                 if sackable else [])
    retxable = [s for s in range(acked, recover) if s not in sacked]
    retx = set(data.draw(st.lists(st.sampled_from(retxable), unique=True))
               if retxable else [])
    sender.acked = acked
    sender.recover_point = recover
    sender.high_water = high
    sender._sacked = sacked
    sender._retx_outstanding = retx
    # _max_sacked never decreases, so it may exceed max(sacked) after the
    # cumulative ACK point advanced past old SACK blocks.
    floor = max(sacked) if sacked else -1
    sender._max_sacked = floor + data.draw(st.integers(0, 5), label="stale")
    sender._rto_recovery = data.draw(st.booleans(), label="rto")

    assert sender._compute_pipe() == compute_pipe_reference(sender)


# ------------------------------------------------------ end-to-end equivalence

class PerAckRtoSender(TcpSender):
    """The textbook retransmission timer the coalesced one must match:
    every restart cancels the armed event and schedules a new one."""

    def _ensure_rto_timer(self) -> None:
        if self._rto_event is None:
            self._restart_rto_timer()

    def _restart_rto_timer(self) -> None:
        self._cancel_rto_timer()
        self._rto_event = self.sim.schedule_at(
            self.now() + self.rto * self._rto_backoff, self._on_rto)

    def _cancel_rto_timer(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        super()._on_rto()


def _transfer_outcome(seed, loss, queue, *, reference: bool):
    """Run one lossy transfer; returns every behavioural observable.

    ``reference`` runs it with no pooling, no compaction and the per-ACK
    timer.
    """
    net = Network(seed=seed)
    if reference:
        net.sim.pool.enabled = False
        sender_cls = PerAckRtoSender
    else:
        sender_cls = TcpSender
    a, b = net.add_host("a"), net.add_host("b")
    s = net.add_switch("s")
    net.link(a, s, rate_bps=mbps(50), delay=ms(2),
             queue_factory=lambda: DropTailQueue(limit_packets=100))
    net.link(s, b, rate_bps=mbps(20), delay=ms(8),
             queue_factory=lambda: DropTailQueue(limit_packets=queue),
             loss_rate=loss)
    with mock.patch.object(mptcp_mod, "TcpSender", sender_cls):
        conn = net.tcp_connection(net.route([a, s, b]), total_bytes=400_000,
                                  delayed_acks=bool(seed % 2))
    assert type(conn.subflows[0]) is sender_cls
    conn.start()
    min_stubs = NEVER_COMPACT if reference else events_mod._COMPACT_MIN_STUBS
    with mock.patch.object(events_mod, "_COMPACT_MIN_STUBS", min_stubs):
        net.run_until_complete([conn], timeout=600)
    sf = conn.subflows[0]
    return {
        "completed": conn.completed,
        "completion_time": conn.supply.completion_time,
        "acked": sf.acked,
        "packets_sent": sf.packets_sent,
        "retransmitted": sf.retransmitted,
        "fast_retransmits": sf.fast_retransmits,
        "timeouts": sf.timeouts,
        "loss_events": sf.loss_events,
        "acks": sf.receiver.acks_sent,
        "final_now": net.sim.now,
    }


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    loss=st.floats(min_value=0.0, max_value=0.03),
    queue=st.integers(6, 60),
)
def test_fastpath_knobs_are_behaviour_preserving(seed, loss, queue):
    """Pooling + compaction + RTO coalescing produce *identical* dynamics
    (times, counters, loss episodes) to the un-optimised behaviour under
    any random loss/queue mix — the figure-level equivalence guarantee."""
    fast = _transfer_outcome(seed, loss, queue, reference=False)
    slow = _transfer_outcome(seed, loss, queue, reference=True)
    assert fast == slow


def test_pool_debug_detects_no_leaks_end_to_end():
    """Under debug bookkeeping, a full lossy transfer (drops, random
    losses, retransmissions) returns every pooled packet it issued."""
    net = Network(seed=3, pool_debug=True)
    a, b = net.add_host("a"), net.add_host("b")
    s = net.add_switch("s")
    net.link(a, s, rate_bps=mbps(50), delay=ms(2),
             queue_factory=lambda: DropTailQueue(limit_packets=30))
    net.link(s, b, rate_bps=mbps(20), delay=ms(5),
             queue_factory=lambda: DropTailQueue(limit_packets=10),
             loss_rate=0.01)
    conn = net.tcp_connection(net.route([a, s, b]), total_bytes=400_000)
    conn.start()
    net.run_until_complete([conn], timeout=600)
    assert conn.completed
    net.sim.run()  # drain in-flight packets and stale timer ticks
    assert net.sim.pool.reuses > 0
    net.sim.pool.assert_drained()


def test_pool_double_release_raises_in_debug_mode():
    from repro.errors import SimulationError
    from repro.net.packet import PacketPool

    pool = PacketPool(debug=True)
    pkt = pool.data(1, 0, (), None, 0.0)
    pool.release(pkt)
    with pytest.raises(SimulationError, match="double release"):
        pool.release(pkt)


def test_pool_leak_raises_in_debug_mode():
    from repro.errors import SimulationError
    from repro.net.packet import PacketPool

    pool = PacketPool(debug=True)
    pool.data(1, 0, (), None, 0.0)
    with pytest.raises(SimulationError, match="leak"):
        pool.assert_drained()


def test_externally_built_packets_are_never_recycled():
    from repro.net.packet import Packet, PacketPool

    pool = PacketPool()
    pkt = Packet.data(1, 0, (), None, 0.0)
    pool.release(pkt)
    assert len(pool) == 0
