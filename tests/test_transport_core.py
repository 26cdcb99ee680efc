"""Sans-IO core equivalence: the DES sender and SenderCore are one machine.

Three layers of proof that the :mod:`repro.transport.core` refactor did
not change packet-level behaviour:

1. **Golden scenarios** — four seed-captured MPTCP transfers (different
   controllers, loss rates, delayed ACKs) must reproduce the exact
   pre-refactor completion times, event counts, and full per-subflow
   float state.
2. **Campaign-executor golden** — a fig12-style fluid point must stay
   byte-identical through :func:`repro.campaign.executor.execute_run`.
3. **Record/replay bit-equivalence (hypothesis)** — record every ACK
   arrival, RTO firing and emission from a randomized DES run, replay
   the inputs into wall-clock-style :class:`SenderCore` instances, and
   require the *entire state trajectory* (window, scoreboard, RTT
   estimator, counters) and every emission to match exactly.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.flow import SegmentSupply, TcpSender
from repro.net.network import Network
from repro.net.queues import DropTailQueue
from repro.transport.core import PathProfile, ReceiverCore, SenderCore, SenderState
from repro.units import mb, mbps, ms

# --------------------------------------------------------------- conformance

STATE_FIELDS = [f.name for f in dataclasses.fields(SenderState)]


def _build_des_sender() -> TcpSender:
    net = Network(seed=1)
    a, b = net.add_host("a"), net.add_host("b")
    s = net.add_switch("s")
    net.link(a, s, rate_bps=mbps(100), delay=ms(2))
    net.link(s, b, rate_bps=mbps(100), delay=ms(2))
    conn = net.connection([net.route([a, s, b])], "lia", total_bytes=mb(1))
    return conn.subflows[0]


def test_tcpsender_carries_every_senderstate_field():
    sender = _build_des_sender()
    for name in STATE_FIELDS:
        assert hasattr(sender, name), f"TcpSender lost field {name}"
    assert isinstance(sender, SenderState)


def test_sendercore_carries_every_senderstate_field():
    core = SenderCore(SegmentSupply(10), clock=lambda: 0.0)
    for name in STATE_FIELDS:
        assert hasattr(core, name), f"SenderCore lost field {name}"
    # The controller-facing duck-type surface beyond the dataclass:
    assert core.route.base_rtt() > 0
    assert core.route.switch_hops() == 0
    assert core.sim.now == 0.0
    assert core.rtt > 0
    assert core.inflight == 0


def test_identity_semantics_preserved():
    # The dataclass must not smuggle in field-wise __eq__/__hash__ — DES
    # code keys senders by identity in sets and dicts.
    a = _build_des_sender()
    b = _build_des_sender()
    assert a != b
    assert len({a, b}) == 2


# ----------------------------------------------------------- golden scenarios

def _run_scenario(algo, nsub, delayed_acks, seed, loss):
    net = Network(seed=seed)
    a, b = net.add_host("a"), net.add_host("b")
    routes = []
    for i in range(nsub):
        s = net.add_switch(f"s{i}")
        net.link(a, s, rate_bps=mbps(100), delay=ms(2 + 3 * i),
                 queue_factory=lambda: DropTailQueue(limit_packets=50))
        net.link(s, b, rate_bps=mbps(60), delay=ms(2 + 3 * i),
                 queue_factory=lambda: DropTailQueue(limit_packets=12),
                 loss_rate=loss)
        routes.append(net.route([a, s, b]))
    conn = net.connection(routes, algo, total_bytes=mb(2),
                          delayed_acks=delayed_acks)
    conn.start()
    net.run_until_complete([conn], timeout=300)
    rec = {"completion_time": conn.supply.completion_time,
           "events": net.sim.events_processed}
    rec["subflows"] = [
        {"acked": sf.acked, "base_rtt": sf.base_rtt, "cwnd": sf.cwnd,
         "fast_retransmits": sf.fast_retransmits, "high_water": sf.high_water,
         "loss_events": sf.loss_events, "next_seq": sf.next_seq,
         "packets_sent": sf.packets_sent, "retransmitted": sf.retransmitted,
         "rto": sf.rto, "rttvar": sf.rttvar, "srtt": sf.srtt,
         "ssthresh": sf.ssthresh, "timeouts": sf.timeouts}
        for sf in conn.subflows
    ]
    return rec


# Captured from the pre-refactor tree (PR 5 head) with _run_scenario above;
# every float must match to the last bit.
GOLDEN = {
    "lia_2_delack": {
        "args": ("lia", 2, True, 7, 0.01),
        "completion_time": 1.31036906666666,
        "events": 8514,
        "subflows": [
            {"acked": 691, "base_rtt": 0.008328533333333277,
             "cwnd": 4.724681156207708, "fast_retransmits": 9,
             "high_water": 691, "loss_events": 9, "next_seq": 691,
             "packets_sent": 701, "retransmitted": 10, "rto": 0.2,
             "rttvar": 0.010079516712703407, "srtt": 0.013478544877488816,
             "ssthresh": 4.430647797918585, "timeouts": 0},
            {"acked": 679, "base_rtt": 0.020328533333332954,
             "cwnd": 21.275422160784117, "fast_retransmits": 3,
             "high_water": 679, "loss_events": 3, "next_seq": 679,
             "packets_sent": 682, "retransmitted": 3, "rto": 0.2,
             "rttvar": 0.00998584758347065, "srtt": 0.025484630702824116,
             "ssthresh": 6.290561776733618, "timeouts": 0},
        ],
    },
    "dts_3_plain": {
        "args": ("dts", 3, False, 11, 0.005),
        "completion_time": 0.3672138666666669,
        "events": 11057,
        "subflows": [
            {"acked": 730, "base_rtt": 0.008328533333333304,
             "cwnd": 19.511721267535275, "fast_retransmits": 3,
             "high_water": 730, "loss_events": 3, "next_seq": 730,
             "packets_sent": 746, "retransmitted": 16, "rto": 0.2,
             "rttvar": 2.563448598139865e-06, "srtt": 0.00832981779000481,
             "ssthresh": 12.296719388351864, "timeouts": 0},
            {"acked": 379, "base_rtt": 0.020328533333333315,
             "cwnd": 16.53389199771033, "fast_retransmits": 2,
             "high_water": 379, "loss_events": 2, "next_seq": 379,
             "packets_sent": 394, "retransmitted": 15, "rto": 0.2,
             "rttvar": 2.3803149610747386e-07, "srtt": 0.02032865237182131,
             "ssthresh": 16.097481407955303, "timeouts": 0},
            {"acked": 261, "base_rtt": 0.032328533333333326,
             "cwnd": 31.998041804419035, "fast_retransmits": 1,
             "high_water": 261, "loss_events": 1, "next_seq": 261,
             "packets_sent": 275, "retransmitted": 14, "rto": 0.2,
             "rttvar": 7.131937317636155e-06, "srtt": 0.032332134735816934,
             "ssthresh": 31.5, "timeouts": 0},
        ],
    },
    "olia_2_heavyloss": {
        "args": ("olia", 2, False, 3, 0.03),
        "completion_time": 1.9496831999999853,
        "events": 11186,
        "subflows": [
            {"acked": 891, "base_rtt": 0.008328533333333277,
             "cwnd": 5.912216324009692, "fast_retransmits": 21,
             "high_water": 891, "loss_events": 23, "next_seq": 891,
             "packets_sent": 926, "retransmitted": 35, "rto": 0.2,
             "rttvar": 5.3520364025689986e-05, "srtt": 0.00835843632994433,
             "ssthresh": 5.065316355254363, "timeouts": 2},
            {"acked": 479, "base_rtt": 0.020328533333332954,
             "cwnd": 2.0074505403415093, "fast_retransmits": 7,
             "high_water": 479, "loss_events": 10, "next_seq": 479,
             "packets_sent": 509, "retransmitted": 30, "rto": 0.2,
             "rttvar": 1.375015419274167e-05, "srtt": 0.02033554111313477,
             "ssthresh": 2.0, "timeouts": 3},
        ],
    },
    "dts-ext_2_plain": {
        "args": ("dts-ext", 2, False, 5, 0.01),
        "completion_time": 0.5163119999999994,
        "events": 11010,
        "subflows": [
            {"acked": 1160, "base_rtt": 0.008328533333333277,
             "cwnd": 34.85713350836939, "fast_retransmits": 6,
             "high_water": 1160, "loss_events": 6, "next_seq": 1160,
             "packets_sent": 1172, "retransmitted": 12, "rto": 0.2,
             "rttvar": 0.0001058614469786184, "srtt": 0.008591290238621716,
             "ssthresh": 10.395609436095002, "timeouts": 0},
            {"acked": 210, "base_rtt": 0.020328533333333287,
             "cwnd": 4.100564936851923, "fast_retransmits": 3,
             "high_water": 210, "loss_events": 3, "next_seq": 210,
             "packets_sent": 214, "retransmitted": 4, "rto": 0.2,
             "rttvar": 5.790651971252815e-06, "srtt": 0.020331450938925924,
             "ssthresh": 4.066147217480664, "timeouts": 0},
        ],
    },
}


def _assert_golden(name):
    golden = GOLDEN[name]
    got = _run_scenario(*golden["args"])
    want = {k: v for k, v in golden.items() if k != "args"}
    assert got == want, f"{name} diverged from the seed capture"


def test_golden_lia_with_delayed_acks():
    _assert_golden("lia_2_delack")


def test_golden_dts_three_subflows():
    _assert_golden("dts_3_plain")


def test_golden_olia_heavy_loss_with_timeouts():
    _assert_golden("olia_2_heavyloss")


def test_golden_extended_dts():
    _assert_golden("dts-ext_2_plain")


# ----------------------------------------------- campaign-executor golden

def test_fig12_point_byte_identical_through_campaign_executor():
    from repro.campaign.executor import execute_run
    from repro.campaign.spec import RunSpec

    result = execute_run(RunSpec(topology="bcube", n_subflows=2, seed=1,
                                 duration=2.0, dt=0.004))
    metrics = result["metrics"]
    assert metrics["aggregate_goodput_bps"] == 2980536174.797121
    assert metrics["host_energy_j"] == 3364.5863657127907
    assert metrics["total_energy_j"] == 6610.222098189914
    assert metrics["energy_per_gb"] == 8871.18519692499
    assert metrics["delivered_bits"] == 5961072349.594242
    assert metrics["mean_rtt_s"] == 0.018323600758671246
    assert metrics["loss_events"] == 11


# ------------------------------------------- record/replay bit-equivalence

#: Per-subflow state snapshot compared after every replayed event.
_TRAJECTORY_ATTRS = (
    "cwnd", "ssthresh", "next_seq", "high_water", "acked", "dup_acks",
    "in_recovery", "recover_point", "_sacked", "_retransmitted_holes",
    "_retx_outstanding", "_max_sacked", "_pipe_cache", "_rto_recovery",
    "srtt", "rttvar", "base_rtt", "latest_rtt", "rto", "_rto_backoff",
    "fast_retransmits", "timeouts", "loss_events", "packets_sent",
    "retransmitted",
)


def _snapshot(sender):
    return {
        a: (set(v) if isinstance(v, set) else v)
        for a, v in ((a, getattr(sender, a)) for a in _TRAJECTORY_ATTRS)
    }


def _record_des_run(algo, nsub, seed, loss, total_bytes):
    """Run a DES transfer, logging per-sender inputs + state trajectory."""
    net = Network(seed=seed)
    a, b = net.add_host("a"), net.add_host("b")
    routes = []
    for i in range(nsub):
        s = net.add_switch(f"s{i}")
        net.link(a, s, rate_bps=mbps(80), delay=ms(1 + 2 * i),
                 queue_factory=lambda: DropTailQueue(limit_packets=30))
        net.link(s, b, rate_bps=mbps(50), delay=ms(1 + 2 * i),
                 queue_factory=lambda: DropTailQueue(limit_packets=10),
                 loss_rate=loss)
        routes.append(net.route([a, s, b]))
    conn = net.connection(routes, algo, total_bytes=total_bytes)
    events = []  # (kind, subflow, payload, post_state, emissions)
    emissions = []  # mutable buffer the wrapped _send_segment fills

    for index, sf in enumerate(conn.subflows):
        def make_wrappers(sf=sf, index=index):
            orig_receive = sf.receive
            orig_send = sf._send_segment
            orig_rto = sf._on_rto
            orig_begin = sf._begin

            def send_segment(seq, *, is_retransmit):
                emissions.append((seq, is_retransmit))
                return orig_send(seq, is_retransmit=is_retransmit)

            def receive(packet):
                if not packet.is_ack:
                    return orig_receive(packet)
                payload = (net.sim.now, packet.ack_seq, packet.sack_seq,
                           packet.ecn_echo, packet.echo_time)
                emissions.clear()
                orig_receive(packet)
                events.append(("ack", index, payload, _snapshot(sf),
                               list(emissions)))

            def on_rto():
                now = net.sim.now
                emissions.clear()
                orig_rto()
                events.append(("rto", index, (now,), _snapshot(sf),
                               list(emissions)))

            def begin():
                emissions.clear()
                orig_begin()
                events.append(("start", index, (net.sim.now,),
                               _snapshot(sf), list(emissions)))

            sf.receive = receive
            sf._send_segment = send_segment
            sf._on_rto = on_rto
            sf._begin = begin

        make_wrappers()
    conn.start()
    net.run_until_complete([conn], timeout=120)
    return conn, events


def _replay_into_cores(conn, events, algo):
    """Feed the recorded inputs into SenderCores; compare trajectories."""
    from repro.algorithms import create_controller

    supply = SegmentSupply(conn.supply.total)
    clock = [0.0]
    controller = create_controller(algo)
    cores = []
    for index, sf in enumerate(conn.subflows):
        core = SenderCore(
            supply,
            clock=lambda: clock[0],
            subflow_index=index,
            mss=sf.mss,
            packet_bytes=sf.packet_bytes,
            path=PathProfile(base_rtt=sf.route.base_rtt(),
                             switch_hops=sf.route.switch_hops()),
        )
        core.controller = controller
        cores.append(core)
    controller.attach(cores)

    for step, (kind, index, payload, want_state, want_emits) in enumerate(events):
        core = cores[index]
        clock[0] = payload[0]
        if kind == "start":
            core.start()
        elif kind == "ack":
            _, ack_seq, sack_seq, ecn_echo, echo_time = payload
            core.on_ack(ack_seq, sack_seq=sack_seq, ecn_echo=ecn_echo,
                        echo_time=echo_time)
        else:  # rto
            core._on_rto()
        got_emits = [(op.seq, op.is_retransmit) for op in core.take_emits()]
        assert got_emits == want_emits, (
            f"step {step} ({kind} sf{index}): emissions diverged")
        got_state = _snapshot(core)
        assert got_state == want_state, (
            f"step {step} ({kind} sf{index}): state diverged: "
            + str({k: (got_state[k], want_state[k])
                   for k in want_state if got_state[k] != want_state[k]}))


@given(
    algo=st.sampled_from(["lia", "olia", "balia", "dts", "dts-ext"]),
    nsub=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
    loss=st.sampled_from([0.0, 0.005, 0.02, 0.05]),
)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_des_sender_and_sans_io_core_are_bit_equivalent(algo, nsub, seed, loss):
    conn, events = _record_des_run(algo, nsub, seed, loss,
                                   total_bytes=200 * 1024)
    assert events, "scenario produced no transport events"
    _replay_into_cores(conn, events, algo)


def test_record_replay_covers_loss_machinery():
    # One pinned heavy-loss case so recovery + RTO replay is always
    # exercised even if hypothesis draws only clean runs.
    conn, events = _record_des_run("lia", 2, 3, 0.05, total_bytes=400 * 1024)
    assert any(k == "rto" for k, *_ in events) or any(
        sf.fast_retransmits for sf in conn.subflows)
    _replay_into_cores(conn, events, "lia")


# ------------------------------------------------------------ receiver core

def test_receiver_core_reorders_and_sacks():
    r = ReceiverCore()
    ack = r.on_data(0, 1.0, 100)
    assert (ack.ack_seq, ack.sack_seq, ack.echo_time) == (1, -1, 1.0)
    ack = r.on_data(2, 1.1, 100)
    assert (ack.ack_seq, ack.sack_seq) == (1, 2)
    ack = r.on_data(1, 1.2, 100)
    assert (ack.ack_seq, ack.sack_seq) == (3, -1)
    assert r.duplicates == 0
    ack = r.on_data(1, 1.3, 100)
    assert r.duplicates == 1
    assert ack.ack_seq == 3


def test_sender_core_happy_path_lockstep():
    supply = SegmentSupply(6)
    clock = [0.0]
    core = SenderCore(supply, clock=lambda: clock[0], initial_cwnd=2.0)
    core.start()
    assert [op.seq for op in core.take_emits()] == [0, 1]
    assert core.rto_deadline > 0
    clock[0] = 0.05
    core.on_ack(1, echo_time=0.0)
    assert core.srtt == 0.05
    assert [op.seq for op in core.take_emits()] == [2, 3]
    clock[0] = 0.1
    core.on_ack(4, echo_time=0.05)
    assert [op.seq for op in core.take_emits()] == [4, 5]
    clock[0] = 0.15
    core.on_ack(6, echo_time=0.1)
    assert supply.completed
    assert core.rto_deadline == float("inf")


def test_sender_core_rto_via_on_tick():
    supply = SegmentSupply(4)
    clock = [0.0]
    core = SenderCore(supply, clock=lambda: clock[0], initial_cwnd=2.0)
    core.start()
    core.take_emits()
    deadline = core.rto_deadline
    assert core.on_tick() == deadline  # not due yet: unchanged
    clock[0] = deadline + 0.001
    core.on_tick()
    assert core.timeouts == 1
    assert core.cwnd == 1.0
    retx = core.take_emits()
    assert retx and (retx[0].seq, retx[0].is_retransmit) == (0, True)
