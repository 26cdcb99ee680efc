"""High-level builder facade over the packet-level simulator.

:class:`Network` is the public entry point for packet-level experiments::

    net = Network(seed=1)
    a, b = net.add_host("a"), net.add_host("b")
    s = net.add_switch("s")
    net.link(a, s, rate_bps=mbps(100), delay=ms(5))
    net.link(s, b, rate_bps=mbps(100), delay=ms(5))
    conn = net.connection([net.route([a, s, b])], "lia", total_bytes=mb(16))
    conn.start()
    net.run(until=60.0)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.algorithms import create_controller
from repro.errors import ConfigurationError, RoutingError
from repro.net.events import Simulator
from repro.net.link import Link
from repro.net.mptcp import MptcpConnection
from repro.net.node import Host, Node, Switch
from repro.net.routing import Route

#: Simulated seconds :meth:`Network.run_until_complete` runs between
#: looks at its connections' completion flags.
_CHECK_INTERVAL = 0.5


class Network:
    """Owns a simulator, the topology graph, and the connections on it."""

    def __init__(self, seed: Optional[int] = None, **sim_kwargs):
        """``sim_kwargs`` pass through to :class:`Simulator` (``metrics``,
        ``tracer``, ``pool_debug``)."""
        self.sim = Simulator(seed, **sim_kwargs)
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        self.links: List[Link] = []
        self.connections: List[MptcpConnection] = []
        self._by_name: Dict[str, Node] = {}
        self._link_index: Dict[Tuple[int, int], Link] = {}

    # ---------------------------------------------------------------- build

    def add_host(self, name: str) -> Host:
        """Create and register a host."""
        host = Host(name)
        self._register(host)
        self.hosts.append(host)
        return host

    def add_switch(self, name: str) -> Switch:
        """Create and register a switch."""
        switch = Switch(name)
        self._register(switch)
        self.switches.append(switch)
        return switch

    def _register(self, node: Node) -> None:
        if node.name in self._by_name:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self._by_name[node.name] = node

    def node(self, name: str) -> Node:
        """Look a node up by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise RoutingError(f"unknown node {name!r}") from None

    def link(
        self,
        a: Node,
        b: Node,
        *,
        rate_bps: float,
        delay: float,
        queue_factory: Optional[Callable[[], object]] = None,
        loss_rate: float = 0.0,
    ) -> Tuple[Link, Link]:
        """Create a bidirectional link (two unidirectional links).

        ``queue_factory`` is called once per direction so the two directions
        never share queue state.
        """
        fwd = Link(
            self.sim,
            a,
            b,
            rate_bps,
            delay,
            queue=queue_factory() if queue_factory else None,
            loss_rate=loss_rate,
        )
        rev = Link(
            self.sim,
            b,
            a,
            rate_bps,
            delay,
            queue=queue_factory() if queue_factory else None,
            loss_rate=loss_rate,
        )
        for l in (fwd, rev):
            l.src.egress.append(l)
            l.dst.ingress.append(l)
            self.links.append(l)
            self._link_index[(l.src.id, l.dst.id)] = l
        return fwd, rev

    def link_between(self, a: Node, b: Node) -> Link:
        """The unidirectional link from ``a`` to ``b``."""
        try:
            return self._link_index[(a.id, b.id)]
        except KeyError:
            raise RoutingError(f"no link {a.name}->{b.name}") from None

    def route(self, nodes: Sequence[Union[Node, str]]) -> Route:
        """Build a route along the named node sequence (both directions)."""
        resolved = [self.node(n) if isinstance(n, str) else n for n in nodes]
        if len(resolved) < 2:
            raise RoutingError("a route needs at least two nodes")
        forward = [self.link_between(a, b) for a, b in zip(resolved, resolved[1:])]
        reverse = [self.link_between(b, a) for a, b in zip(resolved, resolved[1:])][::-1]
        return Route(forward, reverse)

    # ---------------------------------------------------------- connections

    def connection(
        self,
        routes: Sequence[Route],
        algorithm,
        *,
        total_bytes: Optional[int] = None,
        name: str = "",
        **kwargs,
    ) -> MptcpConnection:
        """Create a (multipath) connection.

        ``algorithm`` is either a controller instance or a registry name such
        as ``"lia"``, ``"olia"``, ``"balia"``, ``"ecmtcp"``, ``"dts"``.
        """
        controller = (
            create_controller(algorithm) if isinstance(algorithm, str) else algorithm
        )
        conn = MptcpConnection(
            self.sim, routes, controller, total_bytes=total_bytes, name=name, **kwargs
        )
        self.connections.append(conn)
        return conn

    def tcp_connection(
        self,
        route: Route,
        *,
        total_bytes: Optional[int] = None,
        algorithm: str = "reno",
        name: str = "",
        **kwargs,
    ) -> MptcpConnection:
        """Single-path TCP convenience wrapper."""
        return self.connection(
            [route], algorithm, total_bytes=total_bytes, name=name, **kwargs
        )

    # ------------------------------------------------------------------ run

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Advance the simulation."""
        self.sim.run(until=until, max_events=max_events)

    def run_until_complete(
        self, connections: Optional[Sequence[MptcpConnection]] = None, *,
        timeout: float = 3600.0,
    ) -> float:
        """Run until every listed finite connection completes; returns the time.

        Raises :class:`~repro.errors.SimulationError` via the event engine if
        the timeout elapses first (callers treat the clock value as the
        answer and can inspect completion flags).
        """
        conns = list(connections) if connections is not None else self.connections
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            if all(c.completed for c in conns):
                return self.sim.now
            self.sim.run(until=min(self.sim.now + _CHECK_INTERVAL, deadline))
            if self.sim.pending() == 0:
                break
        return self.sim.now
