"""Live UDP transport tests: loopback transfers, loss, and the metrics API.

Everything runs over real sockets on 127.0.0.1 inside a private event
loop per test (``asyncio.run``) — no external processes, no fixed port
numbers (servers bind ephemeral ports), bounded by explicit timeouts so
a wedged transfer fails fast instead of hanging CI.
"""

from __future__ import annotations

import asyncio
import json
import urllib.request

import pytest

from repro.transport.aio import (
    RECV_BUFFER_BYTES,
    LossyTransport,
    MetricsHttpServer,
    open_endpoint,
)
from repro.transport.client import fetch, loopback_selftest
from repro.transport.server import TransportServer
from repro.transport.wire import MAX_PAYLOAD, encode_bye, encode_data

TRANSFER_BYTES = 512 * 1024  # keep CI wall time low; CLI selftest does 4 MiB


def _selftest(controller, **kw):
    kw.setdefault("total_bytes", TRANSFER_BYTES)
    kw.setdefault("loss_rate", 0.02)
    kw.setdefault("loss_seed", 42)
    kw.setdefault("timeout", 60.0)
    return asyncio.run(loopback_selftest(controller=controller, **kw))


# --------------------------------------------------------- loopback transfers

@pytest.mark.parametrize("controller", ["dts", "lia"])
def test_loopback_transfer_under_loss(controller):
    result = _selftest(controller, subflows=2)
    f = result.fetch
    assert f.bytes_received >= TRANSFER_BYTES
    assert f.n_subflows == 2
    assert f.goodput_bps > 0
    # Both subflows actually carried traffic.
    assert all(s.packets_received > 0 for s in f.subflows)
    # 2% injected forward loss must have forced real recovery work.
    (conn,) = result.server_metrics["connections"].values()
    assert conn["controller"] == controller
    assert conn["completed"]
    total_retx = sum(s["retransmitted"] for s in conn["subflows"])
    assert total_retx > 0, "loss shim injected no loss?"
    assert conn["energy_j"] > 0
    assert conn["aggregate_goodput_bps"] > 0


def test_loopback_transfer_clean_three_subflows():
    result = _selftest("olia", subflows=3, loss_rate=0.0)
    f = result.fetch
    assert f.bytes_received >= TRANSFER_BYTES
    assert len(f.subflows) == 3
    (conn,) = result.server_metrics["connections"].values()
    assert conn["n_subflows"] == 3
    assert sum(s["acked_segments"] for s in conn["subflows"]) \
        == conn["acked_segments"]


def test_server_manifest_captured():
    result = _selftest("dts", subflows=2)
    manifest = result.server_manifest
    assert manifest["schema"] == "repro.obs.manifest/1"
    assert manifest["label"] == "transport-serve"


# ------------------------------------------------------- metrics endpoint

def test_metrics_endpoint_serves_subflow_state():
    async def scenario():
        server = TransportServer(host="127.0.0.1", base_port=0, n_ports=2,
                                 loss_rate=0.01, loss_seed=7, metrics_port=0)
        ports = await server.start()
        try:
            await fetch("127.0.0.1", ports, controller="dts",
                        total_bytes=TRANSFER_BYTES, timeout=60.0)
            await asyncio.sleep(0.05)
            base = f"http://127.0.0.1:{server.metrics_port}"

            def get(path):
                with urllib.request.urlopen(base + path, timeout=5) as resp:
                    return resp.status, json.loads(resp.read())

            status, body = await asyncio.to_thread(get, "/metrics")
            assert status == 200
            (conn,) = body["connections"].values()
            for sf in conn["subflows"]:
                # The acceptance-criteria trio: cwnd / throughput / energy
                # (energy is connection-level; per-path state rides along).
                assert sf["cwnd"] > 0
                assert "throughput_bps" in sf
                assert sf["rto_s"] >= 0.2
            assert conn["energy_j"] > 0

            status, health = await asyncio.to_thread(get, "/healthz")
            assert status == 200 and health["status"] == "ok"

            try:
                await asyncio.to_thread(get, "/nope")
            except urllib.error.HTTPError as e:
                assert e.code == 404
                assert "/metrics" in json.loads(e.read())["routes"]
            else:  # pragma: no cover
                pytest.fail("unknown route did not 404")
        finally:
            await server.stop()

    import urllib.error
    asyncio.run(scenario())


def test_metrics_http_rejects_post():
    async def scenario():
        server = MetricsHttpServer({"/metrics": lambda: {"x": 1}})
        port = await server.start()
        try:
            def post():
                req = urllib.request.Request(
                    f"http://127.0.0.1:{port}/metrics", data=b"{}",
                    method="POST")
                urllib.request.urlopen(req, timeout=5)
            with pytest.raises(urllib.error.HTTPError) as exc:
                await asyncio.to_thread(post)
            assert exc.value.code == 405
        finally:
            await server.stop()

    import urllib.error
    asyncio.run(scenario())


# ------------------------------------------------ garbage on the wire

def test_garbage_datagrams_are_counted_not_fatal():
    async def scenario():
        server = TransportServer(host="127.0.0.1", base_port=0, n_ports=2)
        ports = await server.start()
        try:
            seen = []
            transport, endpoint = await open_endpoint(
                lambda seg, addr: seen.append(seg),
                remote_addr=("127.0.0.1", ports[0]))
            # Pure noise, a truncated header, and a valid-magic/bad-type
            # datagram: the server must drop all three silently.
            transport.sendto(b"\x00" * 40)
            transport.sendto(b"\xa7")
            transport.sendto(b"\xa7\x01\x7f\x00\x00\x01\x00\x00")
            # Valid BYE for a connection that does not exist: ignored.
            transport.sendto(encode_bye(9999, 0))
            await asyncio.sleep(0.1)
            assert server.metrics_snapshot()["server"]["bad_datagrams"] == 3
            assert not seen  # server stayed silent — and alive:
            result = await fetch("127.0.0.1", ports, controller="lia",
                                 total_bytes=64 * 1024, timeout=30.0)
            assert result.bytes_received >= 64 * 1024
            transport.close()
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_receive_buffer_fits_the_largest_datagram_and_no_more():
    """asyncio's 256 KiB default buffer is an mmap/munmap per datagram
    (above glibc's 128 KiB threshold); ours must stay below that and
    still take the largest segment the wire format can emit whole."""
    async def scenario():
        seen = []
        rx, endpoint = await open_endpoint(
            lambda seg, addr: seen.append(seg), local_addr=("127.0.0.1", 0))
        tx, _ = await open_endpoint(
            lambda seg, addr: None,
            remote_addr=("127.0.0.1", endpoint.local_port()))
        try:
            assert rx.max_size == tx.max_size == RECV_BUFFER_BYTES < 128 * 1024
            tx.sendto(encode_data(1, 0, 0, 0.0, b"x" * MAX_PAYLOAD))
            await asyncio.sleep(0.1)
            assert [len(seg.payload) for seg in seen] == [MAX_PAYLOAD]
        finally:
            tx.close()
            rx.close()

    asyncio.run(scenario())


# ----------------------------------------------------------- lossy transport

def test_lossy_transport_is_seeded_and_bounded():
    class FakeTransport:
        def __init__(self):
            self.sent = []

        def sendto(self, data, addr=None):
            self.sent.append(data)

    def run(seed):
        fake = FakeTransport()
        lossy = LossyTransport(fake, 0.3, seed)
        for i in range(500):
            lossy.sendto(bytes([i % 256]))
        return fake.sent, lossy.dropped, lossy.passed

    sent_a, dropped_a, passed_a = run(7)
    sent_b, dropped_b, passed_b = run(7)
    assert sent_a == sent_b and dropped_a == dropped_b  # deterministic
    assert dropped_a + passed_a == 500
    assert 0 < dropped_a < 500  # actually dropping, not all or nothing

    with pytest.raises(Exception):
        LossyTransport(FakeTransport(), 1.0, 1)  # loss_rate must be < 1


def test_reused_conn_id_supersedes_finished_transfer():
    # Fetch clients in fresh processes may reuse connection ids; a HELLO
    # for an id whose transfer already finished must start a new
    # transfer, not replay the dead one's HELLO_ACK forever.
    async def scenario():
        server = TransportServer(host="127.0.0.1", base_port=0, n_ports=2)
        ports = await server.start()
        try:
            first = await fetch("127.0.0.1", ports, controller="dts",
                                conn_id=1, total_bytes=64 * 1024,
                                timeout=30.0)
            await asyncio.sleep(0.05)
            second = await fetch("127.0.0.1", ports, controller="lia",
                                 conn_id=1, total_bytes=64 * 1024,
                                 timeout=30.0)
            assert first.bytes_received >= 64 * 1024
            assert second.bytes_received >= 64 * 1024
            (conn,) = server.metrics_snapshot()["connections"].values()
            assert conn["controller"] == "lia"  # superseded in place
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_hello_retry_survives_initial_loss():
    # 60% ACK-path loss: the HELLO handshake must retry until it lands.
    async def scenario():
        server = TransportServer(host="127.0.0.1", base_port=0, n_ports=2)
        ports = await server.start()
        try:
            result = await fetch("127.0.0.1", ports, controller="dts",
                                 total_bytes=64 * 1024, loss_rate=0.6,
                                 loss_seed=3, timeout=60.0)
            assert result.bytes_received >= 64 * 1024
        finally:
            await server.stop()

    asyncio.run(scenario())
