"""``transport_loopback``: the live MPTCP-over-UDP transport, used three
ways, as a closed loop of two concurrent clients (each waits for its
reply before the next fetch) with server and clients in one event loop
on the **host loopback interface**, not a real link.

``bulk``   1 MiB fetches: per-packet cost, CPU-bound.
``small``  ~16 KiB fetches: handshake and per-connection cost (HELLO,
           the ``_drive`` task, teardown).
``lossy``  1 MiB fetches through 1% forward loss on a second server:
           SACK recovery and RTO.

``wall_s`` covers ``bulk`` + ``small``.  The lossy class is timed apart
and reported through its own metrics: about half its fetches sit out a
200 ms retransmission timeout, and how many do is a lottery even at a
fixed loss seed (same-seed runs ranged 2.9-4.5 s), so folding it into
``wall_s`` would drown the two CPU-bound classes.
"""

from __future__ import annotations

import asyncio
import collections
import random
import time
from pathlib import Path
from typing import Any, Dict, List

from common import Checks, Spans, jain, per_unit

CLIENTS = 2
N_PORTS = 2
CONTROLLER = "dts"
PAYLOAD_BYTES = 1200
LOSS_RATE = 0.01
FETCH_TIMEOUT_S = 30.0
MIB = 1 << 20

#: fetches per client and bytes per fetch, by class
SIZES = {
    "smoke": {"bulk": (2, 128 * 1024), "small": (5, 16 * 1024),
              "lossy": (1, 128 * 1024)},
    "bench": {"bulk": (20, MIB), "small": (200, 16 * 1024),
              "lossy": (8, MIB)},
}

#: metric -> (pool, percentile)
POOLS = {
    "fetch_bulk_ms_p50": ("bulk_ms", 50), "fetch_bulk_ms_p95": ("bulk_ms", 95),
    "fetch_small_ms_p50": ("small_ms", 50), "fetch_small_ms_p99": ("small_ms", 99),
    "fetch_lossy_ms_p90": ("lossy_ms", 90),
}


def inputs(seed: int, size: str) -> Dict[str, Any]:
    rng = random.Random(seed)
    plan: Dict[str, Any] = {"loss_seed": seed}
    for cls, (count, nbytes) in SIZES[size].items():
        if cls == "small":
            # Sizes within a quarter of the nominal one, in seeded order.
            sizes = [[rng.randrange(nbytes * 3 // 4, nbytes * 5 // 4 + 1)
                      for _ in range(count)] for _ in range(CLIENTS)]
        else:
            sizes = [[nbytes] * count for _ in range(CLIENTS)]
        plan[cls] = sizes
    return plan


def _start_servers(ctx: Dict[str, Any]) -> None:
    from repro.transport.server import TransportServer

    loop = ctx["loop"]
    ctx["servers"] = {
        "clean": TransportServer(n_ports=N_PORTS, loss_rate=0.0),
        "lossy": TransportServer(n_ports=N_PORTS, loss_rate=LOSS_RATE,
                                 loss_seed=ctx["inputs"]["loss_seed"])}
    ctx["ports"] = {name: loop.run_until_complete(server.start())
                    for name, server in ctx["servers"].items()}


def _stop_servers(ctx: Dict[str, Any]) -> None:
    for server in ctx["servers"].values():
        ctx["loop"].run_until_complete(server.stop())


def setup(seed: int, size: str, scratch: Path) -> Dict[str, Any]:
    ctx = {"inputs": inputs(seed, size), "loop": asyncio.new_event_loop(),
           "next_conn_id": 1}
    _start_servers(ctx)
    return ctx


def teardown(ctx: Dict[str, Any]) -> None:
    _stop_servers(ctx)
    ctx["loop"].close()


def check_fetch(checks: Checks, result, requested: int) -> None:
    """A fetch is correct when it delivered exactly the segments that
    cover the bytes requested (``result`` None: it raised or timed out)."""
    if result is None:
        checks.expect(False, f"fetch of {requested} bytes failed")
        return
    segments = -(-requested // result.payload_bytes)
    checks.expect(
        result.bytes_received == segments * result.payload_bytes,
        f"fetch returned {result.bytes_received} bytes for {requested} requested")


async def _fetch_class(ctx, checks: Checks, server: str, plan: List[List[int]]):
    """Every client works through its list, one fetch at a time, all
    clients at once.  Returns (seconds, per-fetch ms, conn ids, results)."""
    from repro.transport.client import fetch

    ports = ctx["ports"][server]
    latencies: List[float] = []
    conn_ids: List[int] = []
    results = []

    async def client(sizes: List[int]) -> None:
        for nbytes in sizes:
            conn_id = ctx["next_conn_id"]
            ctx["next_conn_id"] += 1
            t0 = time.perf_counter()
            try:
                result = await fetch("127.0.0.1", ports, controller=CONTROLLER,
                                     total_bytes=nbytes, conn_id=conn_id,
                                     payload_bytes=PAYLOAD_BYTES,
                                     timeout=FETCH_TIMEOUT_S)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                result = None
            latencies.append((time.perf_counter() - t0) * 1e3)
            check_fetch(checks, result, nbytes)
            if result is not None:
                conn_ids.append(conn_id)
                results.append(result)

    t0 = time.perf_counter()
    await asyncio.gather(*(client(sizes) for sizes in plan))
    return time.perf_counter() - t0, latencies, conn_ids, results


async def _drain(server, n: int) -> None:
    """Let the server close ``n`` finished connections (it books a
    connection's final energy sample there)."""
    for _ in range(n):
        try:
            await asyncio.wait_for(server.wait_connection_complete(), 2.0)
        except asyncio.TimeoutError:
            return


def _user_path(ctx: Dict[str, Any], checks: Checks, spans: Spans) -> Dict[str, Any]:
    inp, loop = ctx["inputs"], ctx["loop"]
    out: Dict[str, Any] = {}
    for cls, server in (("bulk", "clean"), ("small", "clean"), ("lossy", "lossy")):
        with spans.span(f"transport.{cls}"):
            secs, ms, ids, results = loop.run_until_complete(
                _fetch_class(ctx, checks, server, inp[cls]))
        with spans.span("transport.drain"):
            loop.run_until_complete(_drain(ctx["servers"][server], len(ids)))
        out[cls] = {"s": secs, "ms": ms, "ids": ids, "results": results,
                    "bytes": sum(map(sum, inp[cls]))}
    return out


def _server_rows(server, conn_ids: List[int]) -> List[Dict[str, Any]]:
    snapshot = server.metrics_snapshot()["connections"]
    return [snapshot[str(cid)] for cid in conn_ids if str(cid) in snapshot]


def body(ctx: Dict[str, Any], checks: Checks) -> Dict[str, Any]:
    run = _user_path(ctx, checks, Spans())
    clean = _server_rows(ctx["servers"]["clean"],
                         run["bulk"]["ids"] + run["small"]["ids"])
    joules = sum(c["energy_j"] for c in clean)
    bits = sum(c["acked_segments"] * c["payload_bytes"] * 8 for c in clean)
    checks.expect(joules >= 0.0 and bits > 0, "transfer energy invariant broken")
    # A server keeps every connection it has served (40 bodies on one pair
    # of servers ran 1.6 s -> 2.3 s), so the next body gets fresh ones,
    # started outside any timed section.
    _stop_servers(ctx)
    _start_servers(ctx)
    return {
        "values": {
            "wall_s": run["bulk"]["s"] + run["small"]["s"],
            "goodput_MBps": run["bulk"]["bytes"] / run["bulk"]["s"] / 1e6,
            "lossy_goodput_MBps": run["lossy"]["bytes"] / run["lossy"]["s"] / 1e6,
        },
        "pools": {f"{cls}_ms": run[cls]["ms"] for cls in ("bulk", "small", "lossy")},
    }


# ------------------------------------------------- isolated layer replays

def _wire_us(mix: Dict[str, int]) -> "tuple[float, float, Dict[str, float]]":
    """Encode and decode cost per datagram, weighted by the recorded
    segment-type mix; also the per-type costs."""
    from repro.transport import wire

    payload = bytes(PAYLOAD_BYTES)
    hello = {"controller": CONTROLLER, "n_subflows": N_PORTS,
             "total_segments": 874, "payload_bytes": PAYLOAD_BYTES}
    encoders = {
        "data": lambda i: wire.encode_data(7, 1, i, 1.5, payload),
        "ack": lambda i: wire.encode_ack(7, 1, i, 1.5, (i + 2,)),
        "hello": lambda i: wire.encode_hello(7, 1, hello),
    }
    cost: Dict[str, float] = {}
    calls = 5000
    for kind, encode in encoders.items():
        t0 = time.perf_counter()
        for i in range(calls):
            encode(i)
        cost[f"encode.{kind}"] = (time.perf_counter() - t0) / calls * 1e6
        datagram = encode(1)
        t0 = time.perf_counter()
        for _ in range(calls):
            wire.decode(datagram)
        cost[f"decode.{kind}"] = (time.perf_counter() - t0) / calls * 1e6
    total = sum(mix.values()) or 1
    encode_us = sum(cost[f"encode.{k}"] * n for k, n in mix.items()) / total
    decode_us = sum(cost[f"decode.{k}"] * n for k, n in mix.items()) / total
    return encode_us, decode_us, cost


def _core_us(segments: int = 20_000) -> "tuple[float, float]":
    """One in-memory ``SenderCore`` <-> ``ReceiverCore`` pair on a virtual
    clock: (sender, receiver) microseconds per delivered segment."""
    from repro.algorithms import create_controller
    from repro.net.flow import SegmentSupply
    from repro.transport.core import PathProfile, ReceiverCore, SenderCore

    now = [0.0]
    supply = SegmentSupply(segments)
    controller = create_controller(CONTROLLER)
    sender = SenderCore(supply, clock=lambda: now[0], controller=controller,
                        mss=PAYLOAD_BYTES,
                        path=PathProfile(base_rtt=0.05, switch_hops=0))
    controller.attach([sender])
    receiver = ReceiverCore()
    t0 = time.perf_counter()
    sender.start()
    wire_queue = collections.deque(sender.take_emits())
    seqs = []
    while supply.acked < segments and wire_queue:
        op = wire_queue.popleft()
        seqs.append(op.seq)
        ack = receiver.on_data(op.seq, now[0], PAYLOAD_BYTES)
        now[0] += 1e-4
        sender.on_ack(ack.ack_seq, sack_seq=ack.sack_seq,
                      echo_time=ack.echo_time)
        wire_queue.extend(sender.take_emits())
    pair_s = time.perf_counter() - t0
    # The receiver's share: the same arrivals into a fresh receiver.
    replay = ReceiverCore()
    t0 = time.perf_counter()
    for seq in seqs:
        replay.on_data(seq, 0.0, PAYLOAD_BYTES)
    receiver_s = time.perf_counter() - t0
    n = len(seqs)
    return per_unit(max(pair_s - receiver_s, 0.0), n), per_unit(receiver_s, n)


async def _aio_us(datagrams: int = 4000, window: int = 32) -> float:
    """Pre-encoded DATA datagrams through two ``open_endpoint`` sockets
    with no core behind them (send, receive, the endpoint's decode and
    dispatch): microseconds per datagram."""
    from repro.transport.aio import open_endpoint
    from repro.transport.wire import encode_data

    got = [0]
    arrived = asyncio.Event()

    def on_segment(segment, addr) -> None:
        got[0] += 1
        if got[0] % window == 0:
            arrived.set()

    sink_t, sink = await open_endpoint(on_segment, local_addr=("127.0.0.1", 0))
    src_t, _ = await open_endpoint(
        lambda segment, addr: None, remote_addr=("127.0.0.1", sink.local_port()))
    frames = [encode_data(7, 0, i, 0.0, bytes(PAYLOAD_BYTES)) for i in range(window)]
    try:
        t0 = time.perf_counter()
        for _ in range(datagrams // window):
            arrived.clear()
            for frame in frames:
                src_t.sendto(frame)
            # Loopback UDP may still drop under pressure: do not hang.
            try:
                await asyncio.wait_for(arrived.wait(), 1.0)
            except asyncio.TimeoutError:
                break
        elapsed = time.perf_counter() - t0
    finally:
        src_t.close()
        sink_t.close()
    return per_unit(elapsed, got[0])


async def _connect_ms(ctx, checks: Checks, spans: Spans, count: int = 20) -> float:
    """A fetch composed from ``FetchConnection``'s public steps, so the
    handshake can sit under its own span."""
    from repro.transport.client import FetchConnection

    nbytes = 16 * 1024
    for _ in range(count):
        conn = FetchConnection(
            ctx["next_conn_id"], "127.0.0.1", ctx["ports"]["clean"],
            controller=CONTROLLER, total_segments=-(-nbytes // PAYLOAD_BYTES),
            payload_bytes=PAYLOAD_BYTES)
        ctx["next_conn_id"] += 1
        try:
            with spans.span("transport.connect"):
                await conn.connect()
            await conn.wait_complete(FETCH_TIMEOUT_S)
            check_fetch(checks, conn.result(CONTROLLER), nbytes)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            check_fetch(checks, None, nbytes)
        finally:
            conn.close()
    await _drain(ctx["servers"]["clean"], count)
    return per_unit(spans.total("transport.connect"), count, 1e3)


def traced(ctx: Dict[str, Any], checks: Checks,
           spans: Spans) -> Dict[str, float]:
    loop = ctx["loop"]
    run = _user_path(ctx, checks, spans)
    servers = ctx["servers"]

    lossy = _server_rows(servers["lossy"], run["lossy"]["ids"])
    lossy_sub = [sf for c in lossy for sf in c["subflows"]]
    sent = sum(sf["packets_sent"] for sf in lossy_sub)
    client_sub = [sf for r in run["lossy"]["results"] for sf in r.subflows]

    bulk = _server_rows(servers["clean"], run["bulk"]["ids"])
    bulk_segments = sum(c["acked_segments"] for c in bulk)
    joules = sum(c["energy_j"] for c in bulk)
    bits = sum(c["acked_segments"] * c["payload_bytes"] * 8 for c in bulk)
    subflow_jain = [jain([sf["acked_segments"] for sf in c["subflows"]])
                    for c in bulk]

    connect_ms = loop.run_until_complete(_connect_ms(ctx, checks, spans))
    hellos = sum(s.metrics_snapshot()["registry"]["transport.hellos"]
                 for s in servers.values())
    mix = {"data": sum(sf["packets_sent"] for c in bulk for sf in c["subflows"]),
           "ack": sum(sf.acks_sent for r in run["bulk"]["results"]
                      for sf in r.subflows),
           "hello": 2 * N_PORTS * len(bulk)}
    with spans.span("transport.wire"):
        encode_us, decode_us, wire_cost = _wire_us(mix)
    with spans.span("transport.core"):
        sender_us, receiver_us = _core_us()
    with spans.span("transport.aio"):
        aio_us = loop.run_until_complete(_aio_us())
    per_segment_us = per_unit(run["bulk"]["s"], bulk_segments)
    return {
        "traced_wall_s": run["bulk"]["s"] + run["small"]["s"],
        "transport.wire.encode_us": encode_us,
        "transport.wire.decode_us": decode_us,
        "transport.core.sender_us_per_seg": sender_us,
        "transport.core.receiver_us_per_seg": receiver_us,
        "transport.aio.us_per_datagram": aio_us,
        "transport.connect_ms": connect_ms,
        "transport.server.connections_retained":
            float(sum(len(s.connections) for s in servers.values())),
        "transport.server.hellos": float(hellos),
        "transport.server.retransmitted":
            float(sum(sf["retransmitted"] for sf in lossy_sub)),
        "transport.server.fast_retransmits":
            float(sum(sf["fast_retransmits"] for sf in lossy_sub)),
        "transport.server.timeouts":
            float(sum(sf["timeouts"] for sf in lossy_sub)),
        "transport.client.duplicates":
            float(sum(sf.duplicates for sf in client_sub)),
        "transport.client.acks_sent":
            float(sum(sf.acks_sent for sf in client_sub)),
        "transport.useful_ratio":
            sum(sf["acked_segments"] for sf in lossy_sub) / sent if sent else 0.0,
        # One delivered segment is a DATA and an ACK datagram; the aio
        # figure already contains the endpoint's decode.
        "transport.residual_us_per_seg":
            per_segment_us - (wire_cost["encode.data"] + wire_cost["encode.ack"])
            - (sender_us + receiver_us) - 2 * aio_us,
        "transport.energy_j_per_gbit": joules / (bits / 1e9) if bits else 0.0,
        "transport.subflow_jain":
            sum(subflow_jain) / len(subflow_jain) if subflow_jain else 0.0,
    }
