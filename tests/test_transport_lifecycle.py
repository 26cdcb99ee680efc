"""Served-connection lifecycle: half-open -> running -> retired.

A server that stays up between transfers must pay one row per finished
connection and nothing else: no ``ServedConnection``, no cores, no
gauges, no recorder rings, no timer. These tests churn one server and
check every exit — completed, client gone, handshake abandoned, server
stopped — goes through the same retirement and leaves the same nothing.
"""

from __future__ import annotations

import asyncio
import gc
import json
import tracemalloc
import weakref

import pytest

import repro.transport.server as server_mod
from repro.transport.aio import open_endpoint
from repro.transport.client import FetchConnection, fetch
from repro.transport.server import TransportServer
from repro.transport.wire import (
    DataSegment,
    encode_ack,
    encode_bye,
    encode_hello,
)

SMALL = 16 * 1024
ROWS = 32
TELEMETRY = 4
#: gauges per two-path connection: cwnd + throughput per path, energy, power
GAUGES = 6


@pytest.fixture
def small_rings(monkeypatch):
    monkeypatch.setattr(server_mod, "RETIRED_ROWS", ROWS)
    monkeypatch.setattr(server_mod, "RETIRED_TELEMETRY", TELEMETRY)


async def _until(predicate, timeout: float = 5.0) -> bool:
    """Poll ``predicate`` on the running loop until it holds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            return False
        await asyncio.sleep(0.01)
    return True


async def _fetch(ports, conn_id: int, nbytes: int = SMALL):
    return await fetch("127.0.0.1", ports, controller="dts",
                       total_bytes=nbytes, conn_id=conn_id, timeout=30.0)


async def _vanishing_client(ports, conn_id: int) -> None:
    """Handshake, take the first data, then close the sockets without a
    BYE: to the server, a client that lost power mid-transfer."""
    conn = FetchConnection(conn_id, "127.0.0.1", ports, controller="dts",
                           total_segments=50_000, payload_bytes=1200)
    await conn.connect()
    await asyncio.sleep(0.02)
    for transport in conn._raw_transports:
        transport.close()


def test_churn_costs_one_row_per_finished_connection(small_rings, monkeypatch):
    async def run():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        # The server's other rings (flight events, series points) made
        # small enough to be full before the first measurement.
        monkeypatch.setattr(server_mod, "SERIES_CAPACITY", 16)
        server = TransportServer(n_ports=2, idle_timeout=0.3,
                                 record_interval=0.02, flight_capacity=128)
        ports = await server.start()
        idle_instruments = len(server.session.registry)
        tracemalloc.start()
        try:
            await _vanishing_client(ports, 9000)
            assert server.connections[9000].running
            ids = list(range(1, 101))
            for cid in ids:
                await _fetch(ports, cid)
            # The vanished client is reaped by its idle deadline alone.
            assert await _until(lambda: 9000 not in server.connections)
            assert server.flight.counts["conn_dropped"] == 1
            gc.collect()
            at_100 = tracemalloc.get_traced_memory()[0]
            for cid in range(101, 301):
                ids.append(cid)
                await _fetch(ports, cid)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - at_100
            assert growth < 64 * 1024, f"{growth} bytes retained by 200 fetches"

            assert server.connections == {}
            assert len(server.session.registry) <= (
                idle_instruments + GAUGES * TELEMETRY)
            server.recorder.sample()
            per_connection = [n for n in server.recorder.series
                              if n.startswith("transport.c")
                              and not n.startswith("transport.connections")]
            assert len(per_connection) <= GAUGES * TELEMETRY
            # Rows: the newest ROWS ids, oldest first, all completed.
            assert list(server.retired_rows) == ids[-ROWS:]
            assert all(r["completed"] for r in server.retired_rows.values())
            # Nobody awaited wait_connection_complete(): still bounded.
            assert server._conn_completed.qsize() <= ROWS
            snap = server.metrics_snapshot()
            assert snap["server"]["active_connections"] == 0
            assert snap["server"]["retired_rows"] == ROWS
            assert snap["registry"]["transport.connections_live"] == 0
            assert snap["registry"]["transport.connections_retired"] == 301
            assert set(snap["connections"]) == {str(c) for c in ids[-ROWS:]}

            # Id reuse: the newest transfer's row, at the young end.
            reused = ids[-ROWS // 2]
            await _fetch(ports, reused, nbytes=2 * SMALL)
            assert list(server.retired_rows)[-1] == reused
            assert server.retired_rows[reused]["total_segments"] == \
                -(-2 * SMALL // 1200)
            assert len(server.retired_rows) == ROWS
        finally:
            tracemalloc.stop()
            await server.stop()
        assert errors == []

    asyncio.run(run())


def test_retired_connection_is_freed_by_refcount(monkeypatch):
    born = []

    class Watched(server_mod.ServedConnection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            born.append((weakref.ref(self),
                         [weakref.ref(core) for core in self.cores],
                         weakref.ref(self.controller)))

    monkeypatch.setattr(server_mod, "ServedConnection", Watched)

    async def run():
        server = TransportServer(n_ports=2, record_interval=0.0)
        ports = await server.start()
        try:
            for cid in range(1, 11):
                await _fetch(ports, cid)
            assert server.connections == {}
        finally:
            await server.stop()

    gc.collect()
    gc.disable()
    try:
        asyncio.run(run())
        assert len(born) == 10
        for conn, cores, controller in born:
            assert conn() is None and controller() is None
            assert all(core() is None for core in cores)
    finally:
        gc.enable()


def test_late_datagrams_do_not_resurrect_a_retired_connection():
    async def run():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        server = TransportServer(n_ports=2, idle_timeout=0.2,
                                 record_interval=0.0)
        ports = await server.start()
        transport, _ = await open_endpoint(
            lambda segment, addr: None, remote_addr=("127.0.0.1", ports[0]))
        try:
            await _fetch(ports, 7)
            assert server.connections == {}
            row = server.metrics_snapshot()["connections"]["7"]
            assert row["completed"]
            await asyncio.sleep(0.05)  # the client's own closing BYEs
            received = server.metrics_snapshot()["server"]["datagrams_received"]
            transport.sendto(encode_ack(7, 0, 3, 0.0, ()))
            transport.sendto(encode_bye(7, 0))
            assert await _until(lambda: server.metrics_snapshot()["server"][
                "datagrams_received"] == received + 2)
            assert server.connections == {}
            # A late HELLO retransmit opens a *new* half-open connection
            # under the id; the finished transfer's row stays what
            # /metrics shows, and the idle deadline reaps the newcomer.
            transport.sendto(encode_hello(7, 0, {
                "controller": "dts", "n_subflows": 2,
                "total_segments": 14, "payload_bytes": 1200}))
            assert await _until(lambda: 7 in server.connections)
            assert server.connections[7].started_at is None
            snap = server.metrics_snapshot()
            assert snap["connections"]["7"] == row
            assert snap["server"]["half_open_connections"] == 1
            assert await _until(lambda: server.connections == {})
            assert server.metrics_snapshot()["connections"]["7"] == row
            dropped = server.flight.events(kinds={"conn_dropped"})
            assert [e.fields["reason"] for e in dropped] == ["half_open"]
        finally:
            transport.close()
            await server.stop()
        assert errors == []

    asyncio.run(run())


async def _raw_client(ports, conn_id: int, total_segments: int):
    """A client made of bare sockets: HELLO on every path, then hand
    back the transports and the DATA segments as they arrive."""
    data = []
    transports = []
    for port in ports:
        transport, _ = await open_endpoint(
            lambda segment, addr: data.append(segment)
            if isinstance(segment, DataSegment) else None,
            remote_addr=("127.0.0.1", port))
        transports.append(transport)
    for path, transport in enumerate(transports):
        transport.sendto(encode_hello(conn_id, path, {
            "controller": "dts", "n_subflows": len(ports),
            "total_segments": total_segments, "payload_bytes": 1200}))
    assert await _until(lambda: len(data) == total_segments)
    return transports, data


def test_bye_overtaking_the_last_ack_still_completes():
    """Across processes a client's BYE on one path can be read before
    the final ACK it sent earlier on another: that transfer completed."""
    async def run():
        server = TransportServer(n_ports=2, record_interval=0.0)
        ports = await server.start()
        transports = []
        try:
            transports, data = await _raw_client(ports, 11, 2)
            other_path = 1 - data[0].path_id
            transports[other_path].sendto(encode_bye(11, other_path))
            assert await _until(lambda: server.connections[11].client_done)
            for segment in data:
                transports[segment.path_id].sendto(encode_ack(
                    11, segment.path_id, segment.seq + 1, segment.sent_time,
                    ()))
            assert await _until(lambda: 11 not in server.connections)
            assert server.retired_rows[11]["completed"]
            assert server.completed_connections == 1
            assert "conn_dropped" not in server.flight.counts

            # No ACK within the grace period: booked as abandoned.
            more, _ = await _raw_client(ports, 12, 2)
            transports += more
            more[0].sendto(encode_bye(12, 0))
            assert await _until(lambda: 12 in server.retired_rows)
            assert server.retired_rows[12]["completed"] is False
            [dropped] = server.flight.events(kinds={"conn_dropped"})
            assert dropped.fields["reason"] == "client_done"
        finally:
            for transport in transports:
                transport.close()
            await server.stop()

    asyncio.run(run())


def test_hello_flood_is_reaped():
    async def run():
        server = TransportServer(n_ports=2, idle_timeout=0.2,
                                 record_interval=0.0)
        ports = await server.start()
        idle_instruments = len(server.session.registry)
        transport, _ = await open_endpoint(
            lambda segment, addr: None, remote_addr=("127.0.0.1", ports[0]))
        hello = {"controller": "dts", "n_subflows": 2,
                 "total_segments": 14, "payload_bytes": 1200}
        peak = 0
        try:
            for cid in range(1, 1001):
                transport.sendto(encode_hello(cid, 0, hello))
                # asyncio reads one datagram per loop pass: keep pace, or
                # the kernel's socket buffer drops most of the flood.
                await asyncio.sleep(0)
                peak = max(peak, len(server.connections))
            hellos = server.session.registry.get("transport.hellos")
            assert await _until(lambda: hellos.value >= 900)  # UDP may drop
            assert peak > 100
            assert await _until(lambda: server.connections == {}, 3.0)
            assert len(server.session.registry) == idle_instruments
            assert server.retired_rows == {}
            assert server.flight.counts["conn_dropped"] == hellos.value
            assert server.flight.events()[-1].fields["reason"] == "half_open"
        finally:
            transport.close()
            await server.stop()

    asyncio.run(run())


@pytest.mark.parametrize("field, value", [
    ("controller", "nope"),
    ("n_subflows", None),
    ("total_segments", None),
    ("payload_bytes", None),
    ("n_subflows", 3),
    ("total_segments", 0),
    ("total_segments", float("inf")),
], ids=["unknown controller", "null n_subflows", "null total_segments",
        "null payload_bytes", "more subflows than ports", "no segments",
        "infinite total_segments"])
def test_hostile_hello_is_rejected_with_an_event(field, value):
    """A HELLO the server cannot serve costs one flight event and one
    count: no connection, no reply, nothing raised into the event loop,
    and the next well-formed fetch is served."""
    async def run():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        server = TransportServer(n_ports=2, record_interval=0.0)
        ports = await server.start()
        replies = []
        transport, _ = await open_endpoint(
            lambda segment, addr: replies.append(segment),
            remote_addr=("127.0.0.1", ports[0]))
        hello = {"controller": "dts", "n_subflows": 2,
                 "total_segments": 14, "payload_bytes": 1200, field: value}
        try:
            transport.sendto(encode_hello(9, 0, hello))
            hellos = server.session.registry.get("transport.hellos")
            assert await _until(lambda: hellos.value == 1)
            assert errors == []
            assert server.connections == {}
            assert server.session.registry.get(
                "transport.hellos_rejected").value == 1
            [event] = server.flight.events(kinds={"hello_rejected"})
            assert (event.fields["conn"], event.fields["path"]) == (9, 0)
            assert event.fields["reason"]
            assert (await _fetch(ports, 10)).bytes_received >= SMALL
            assert replies == []
            assert server.flight.counts["hello_rejected"] == 1
        finally:
            transport.close()
            await server.stop()
        assert errors == []

    asyncio.run(run())


def test_stop_retires_in_flight_connections():
    async def run():
        server = TransportServer(n_ports=2, record_interval=0.0, trace=True)
        ports = await server.start()
        download = asyncio.ensure_future(
            _fetch(ports, 5, nbytes=64 * 1024 * 1024))
        try:
            await asyncio.sleep(0.3)
            assert server.connections[5].running
            await asyncio.wait_for(server.stop(), timeout=10)
            assert server.connections == {}
            spans = [e for e in server.trace_shard()["events"]
                     if e["type"] == "span"]
            [conn] = [e for e in spans if e["name"] == "serve.connection"]
            assert conn["args"]["outcome"] == "server_stop"
            assert conn["args"]["energy_j"] > 0
            assert len([e for e in spans
                        if e["name"] == "serve.subflow"]) == 2
            [dropped] = server.flight.events(kinds={"conn_dropped"})
            assert dropped.fields["reason"] == "server_stop"
            assert 0 < dropped.fields["acked"] < dropped.fields["total"]
            assert server.retired_rows[5]["completed"] is False
            await asyncio.wait_for(server.stop(), timeout=10)  # idempotent
            assert server.flight.counts["conn_dropped"] == 1
        finally:
            download.cancel()
            await asyncio.gather(download, return_exceptions=True)
            await server.stop()

    asyncio.run(run())


def test_finished_row_is_frozen_at_the_last_ack():
    async def scrape(port: int) -> dict:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout=10)
        writer.close()
        return json.loads(raw.partition(b"\r\n\r\n")[2])

    async def run():
        server = TransportServer(n_ports=2, metrics_port=0,
                                 record_interval=0.0)
        ports = await server.start()
        try:
            result = await _fetch(ports, 3)
            # Retired by the completing ACK, not by a later poll: the
            # completion is already queued when the client returns.
            assert server._conn_completed.qsize() == 1
            first = await scrape(server.metrics_port)
            await asyncio.sleep(0.2)
            second = await scrape(server.metrics_port)
            assert first["connections"]["3"] == second["connections"]["3"]
            assert first["connections"]["3"]["aggregate_goodput_bps"] > 0
            assert first["server"]["active_connections"] == 0
            [done] = server.flight.events(kinds={"conn_done"})
            assert done.fields["elapsed_s"] < result.elapsed_s + 0.005
            assert done.fields["elapsed_s"] == round(
                first["connections"]["3"]["elapsed_s"], 6)
        finally:
            await server.stop()

    asyncio.run(run())
