"""Asyncio plumbing shared by the transport server and client.

Three pieces, all stdlib-only:

* :class:`DatagramEndpoint` — an :class:`asyncio.DatagramProtocol` that
  decodes every datagram with :func:`repro.transport.wire.decode` and
  hands valid segments to a callback. Malformed datagrams are counted
  and dropped, never raised — a UDP endpoint must survive hostile input.
* :class:`LossyTransport` — a transport wrapper that drops outbound
  datagrams with seeded probability. Loss injection for the loopback
  self-test and CI (loopback never loses packets on its own).
* :class:`MetricsHttpServer` — a minimal HTTP/1.1 GET server over
  asyncio streams exposing JSON route callables (``/metrics``,
  ``/manifest``, ``/healthz``). Deliberately tiny: no frameworks, no
  keep-alive, one response per connection.  Two escape hatches keep it
  tiny while serving the live layer: a handler may return a
  :class:`RawResponse` (non-JSON bodies — Prometheus text, the
  dashboard HTML), and a route may be an :class:`SseRoute` (an async
  generator streamed as ``text/event-stream`` until the client hangs
  up or the server stops).
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    Optional,
    Tuple,
    Union,
)

from repro.transport.wire import Segment, WireError, decode

Addr = Tuple[str, int]
SegmentHandler = Callable[[Segment, Addr], None]

#: Receive-buffer size per ``recvfrom``: the largest datagram UDP can carry.
#: asyncio's selector transport allocates its ``max_size`` (256 KiB) for
#: every datagram; above glibc's 128 KiB mmap threshold that is an
#: mmap/munmap pair per datagram (5x the syscall itself, -45% loopback
#: goodput) unless an earlier large free happened to raise the threshold —
#: which importing scipy used to do by accident for every process.
RECV_BUFFER_BYTES = 64 * 1024


class DatagramEndpoint(asyncio.DatagramProtocol):
    """One UDP socket: decode datagrams, dispatch segments, never crash.

    ``on_segment(segment, addr)`` is called for every datagram that
    parses; anything :func:`decode` rejects increments :attr:`bad_datagrams`
    and is silently dropped, so corrupt or truncated input cannot take the
    endpoint down.
    """

    def __init__(self, on_segment: SegmentHandler,
                 on_bad_datagram: Optional[Callable[[int], None]] = None):
        self.on_segment = on_segment
        self.on_bad_datagram = on_bad_datagram
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.bad_datagrams = 0
        self.datagrams_received = 0
        self.closed = asyncio.get_running_loop().create_future()

    # -------------------------------------------------- protocol callbacks

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr: Addr) -> None:
        self.datagrams_received += 1
        try:
            segment = decode(data)
        except WireError:
            self.bad_datagrams += 1
            if self.on_bad_datagram is not None:
                # Observability hook (flight events / trace instants);
                # a raising observer must not take the endpoint down.
                try:
                    self.on_bad_datagram(len(data))
                except Exception:  # noqa: BLE001
                    pass
            return
        self.on_segment(segment, addr)

    def error_received(self, exc: Exception) -> None:
        # ICMP errors (e.g. port unreachable while the peer restarts) are
        # not fatal for UDP; the transport's own timers handle real loss.
        pass

    def connection_lost(self, exc) -> None:
        if not self.closed.done():
            self.closed.set_result(None)

    # ------------------------------------------------------------- helpers

    def local_port(self) -> int:
        """The locally bound UDP port."""
        assert self.transport is not None
        return self.transport.get_extra_info("sockname")[1]


async def open_endpoint(
    on_segment: SegmentHandler,
    *,
    local_addr: Optional[Addr] = None,
    remote_addr: Optional[Addr] = None,
    on_bad_datagram: Optional[Callable[[int], None]] = None,
) -> "tuple[asyncio.DatagramTransport, DatagramEndpoint]":
    """Bind (and optionally connect) one UDP socket."""
    loop = asyncio.get_running_loop()
    transport, protocol = await loop.create_datagram_endpoint(
        lambda: DatagramEndpoint(on_segment, on_bad_datagram),
        local_addr=local_addr,
        remote_addr=remote_addr,
    )
    if hasattr(transport, "max_size"):  # selector event loops
        transport.max_size = RECV_BUFFER_BYTES
    return transport, protocol


class LossyTransport:
    """Drops outbound datagrams with probability ``loss_rate`` (seeded).

    Wraps the ``sendto`` surface of a real datagram transport; everything
    else proxies through. Wrapping the *sender's* transport models forward
    -path loss, wrapping the receiver's models ACK loss.
    """

    def __init__(self, transport, loss_rate: float, seed: Optional[int] = None):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self._transport = transport
        self.loss_rate = loss_rate
        self._rng = random.Random(seed)
        self.dropped = 0
        self.passed = 0

    def sendto(self, data: bytes, addr=None) -> None:
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.dropped += 1
            return
        self.passed += 1
        self._transport.sendto(data, addr)

    def __getattr__(self, name):
        return getattr(self._transport, name)


RouteFn = Union[Callable[[], object], Callable[[], Awaitable[object]]]


@dataclass
class RawResponse:
    """A non-JSON route result: explicit body and content type."""

    body: "bytes | str"
    content_type: str = "text/plain; charset=utf-8"
    status: int = 200

    def encoded(self) -> bytes:
        return self.body.encode("utf-8") if isinstance(self.body, str) \
            else self.body


class SseRoute:
    """A streaming route: ``factory()`` yields JSON-serializable events.

    Each yielded item becomes one ``data: <json>\\n\\n`` frame.  The
    stream ends when the generator finishes, the client disconnects, or
    the server stops (a stop event is raced against the generator so a
    dangling browser tab cannot wedge shutdown).
    """

    def __init__(self, factory: Callable[[], AsyncIterator[Any]]):
        self.factory = factory


Route = Union[RouteFn, SseRoute]


class MetricsHttpServer:
    """Tiny JSON-over-HTTP endpoint for metrics snapshots and manifests.

    ``routes`` maps a path (``"/metrics"``) to a zero-argument callable
    returning a JSON-serializable object (sync or async). Unknown paths
    get 404, non-GET methods 405, handler failures 500 — all as JSON.
    """

    def __init__(self, routes: Dict[str, Route], *, host: str = "127.0.0.1",
                 port: int = 0):
        self.routes = dict(routes)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing: Optional[asyncio.Event] = None

    async def start(self) -> int:
        """Start serving; returns the bound port."""
        self._closing = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._closing is not None:
            # Unblocks open SSE streams so wait_closed() (which waits for
            # all handlers on 3.12+) cannot hang on a connected browser.
            self._closing.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=5.0)
            parts = request.decode("latin-1").split()
            # Drain the (ignored) header block so the peer can shut down
            # cleanly; bail once headers end or the peer goes quiet.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"", b"\r\n", b"\n"):
                    break
            if len(parts) < 2:
                await self._respond(writer, 400, {"error": "bad request"})
            elif parts[0] != "GET":
                await self._respond(writer, 405, {"error": "method not allowed"})
            else:
                path = parts[1].split("?", 1)[0]
                handler = self.routes.get(path)
                if handler is None:
                    await self._respond(
                        writer, 404,
                        {"error": "not found", "routes": sorted(self.routes)})
                elif isinstance(handler, SseRoute):
                    await self._stream_sse(writer, handler)
                else:
                    try:
                        body = handler()
                        if asyncio.iscoroutine(body):
                            body = await body
                        if isinstance(body, RawResponse):
                            await self._respond_raw(writer, body)
                        else:
                            await self._respond(writer, 200, body)
                    except Exception as exc:  # noqa: BLE001 - report, don't die
                        await self._respond(writer, 500, {"error": repr(exc)})
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _stream_sse(self, writer: asyncio.StreamWriter,
                          route: SseRoute) -> None:
        """Stream one async generator as Server-Sent Events.

        Each yield is raced against the server's closing event so
        ``stop()`` ends every open stream promptly.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n")
        await writer.drain()
        agen = route.factory()
        closing = self._closing
        try:
            while closing is None or not closing.is_set():
                next_item = asyncio.ensure_future(agen.__anext__())
                waiters = {next_item}
                close_wait = None
                if closing is not None:
                    close_wait = asyncio.ensure_future(closing.wait())
                    waiters.add(close_wait)
                done, _pending = await asyncio.wait(
                    waiters, return_when=asyncio.FIRST_COMPLETED)
                if close_wait is not None and close_wait not in done:
                    close_wait.cancel()
                if next_item not in done:
                    next_item.cancel()
                    try:
                        # The generator must finish unwinding before
                        # aclose() below, or aclose() raises RuntimeError.
                        await next_item
                    except (asyncio.CancelledError, StopAsyncIteration):
                        pass
                    break
                try:
                    item = next_item.result()
                except StopAsyncIteration:
                    break
                blob = json.dumps(item, sort_keys=True, default=str)
                writer.write(f"data: {blob}\n\n".encode())
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                await agen.aclose()
            except RuntimeError:
                pass  # generator still unwinding a cancelled __anext__

    @staticmethod
    async def _respond_raw(writer: asyncio.StreamWriter,
                           response: RawResponse) -> None:
        blob = response.encoded()
        reasons = {200: "OK", 404: "Not Found", 500: "Internal Server Error"}
        writer.write(
            f"HTTP/1.1 {response.status} "
            f"{reasons.get(response.status, 'Unknown')}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(blob)}\r\n"
            f"Connection: close\r\n\r\n".encode() + blob)
        await writer.drain()

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       body: object) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 500: "Internal Server Error"}
        blob = json.dumps(body, indent=2, sort_keys=True, default=str).encode()
        writer.write(
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
            f"Connection: close\r\n\r\n".encode() + blob)
        await writer.drain()
