"""Abstract datacenter topology: a directed-link table plus multipath rows.

The fluid engine (:mod:`repro.fluidsim`) consumes these descriptions
directly; small instances can also be realized on the packet engine for
cross-validation. Links are *directed*: every physical cable contributes
two entries, numbered in the order they were added.

**Arrays**, one entry per directed link: ``link_capacity_bps``,
``link_delay_s``, ``link_inv_capacity`` and the ``link_is_swsw`` mask,
plus the int32 ``switch_egress_ports()``, are read-only views of one
array each, made on first read and dropped by a new link (every network
built on the fabric shares them); ``link_src`` (node ids: host ``i`` is
``i``, switch ``j`` is ``~j``) and the link-id matrix ``path_rows()``
returns are fresh per call. **Views**, built on demand for small-fabric users
(reports, :mod:`repro.topology.realize`): ``links`` makes one
:class:`LinkSpec` per access, ``link_id()`` indexes the table by name on
its first call, ``paths()`` wraps ``path_rows()`` in :class:`PathSpec`
objects. A sealed fabric (:meth:`~DcTopology.seal`), which is what
``repro.campaign.build_topology`` hands out and shares, refuses new nodes
and links.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, RoutingError

#: Link kinds, indexed by the code the link table stores. "sw-sw" links
#: form the set L' that the Section V.C energy price (Eq. 6) applies to.
LINK_KINDS = ("host-sw", "sw-host", "sw-sw", "host-host")
_SWSW = LINK_KINDS.index("sw-sw")

#: ``pick(count)`` -> ascending indices of the candidate paths to keep.
PathPick = Callable[[int], Sequence[int]]
#: Link ids, one row per path, short rows padded with -1; and each
#: path's relay hosts (BCube's server-centric forwarding).
PathRows = Tuple[np.ndarray, List[Tuple[str, ...]]]


@dataclass(frozen=True)
class LinkSpec:
    """One directed link of an abstract topology."""

    src: str
    dst: str
    capacity_bps: float
    delay_s: float
    #: One of :data:`LINK_KINDS`.
    kind: str = "sw-sw"

    @property
    def is_switch_to_switch(self) -> bool:
        return self.kind == "sw-sw"


@dataclass
class PathSpec:
    """One directed path: an ordered list of link indices."""

    link_indices: Tuple[int, ...]
    #: Hosts that relay traffic mid-path (BCube's server-centric forwarding).
    relay_hosts: Tuple[str, ...] = ()

    def base_rtt(self, links: Sequence[LinkSpec]) -> float:
        """Two-way propagation floor, assuming a symmetric reverse path."""
        return 2.0 * sum(links[i].delay_s for i in self.link_indices)

    def min_capacity(self, links: Sequence[LinkSpec]) -> float:
        """Bottleneck capacity along the path."""
        return min(links[i].capacity_bps for i in self.link_indices)

    def switch_hops(self, links: Sequence[LinkSpec]) -> int:
        """Number of switch-to-switch links (the L' set of Eq. 6)."""
        return sum(1 for i in self.link_indices if links[i].is_switch_to_switch)


def path_specs(rows: PathRows) -> List[PathSpec]:
    """The :class:`PathSpec` objects of a :meth:`DcTopology.path_rows` result."""
    links, relays = rows
    return [PathSpec(tuple(row[row >= 0].tolist()), relay)
            for row, relay in zip(links, relays)]


class _LinkTable(Sequence):
    """``topology.links``: a :class:`LinkSpec` built per access."""

    def __init__(self, topology: "DcTopology"):
        self._topology = topology

    def __len__(self) -> int:
        return self._topology.n_links

    def __getitem__(self, i):
        t = self._topology
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        return LinkSpec(t.node_name(t._src[i]), t.node_name(t._dst[i]),
                        float(t._capacity[i]), float(t._delay[i]),
                        LINK_KINDS[t._kind[i]])


class DcTopology(ABC):
    """Base class: named nodes, a directed-link table, and path rows."""

    def __init__(self) -> None:
        self.hosts: List[str] = []
        self.switches: List[str] = []
        self._node_id: Dict[str, int] = {}
        # The link table, one column per attribute: lists grown by
        # add_duplex_link, or arrays a closed-form fabric assigns whole.
        self._src: Sequence[int] = []
        self._dst: Sequence[int] = []
        self._capacity: Sequence[float] = []
        self._delay: Sequence[float] = []
        self._kind: Sequence[int] = []
        #: (src name, dst name) -> link id; built by the first link_id().
        self._link_index: Optional[Dict[Tuple[str, str], int]] = None
        #: Read-only per-link arrays (the float columns and what derives
        #: from the table alone), made on first read; a new link drops them.
        self._link_arrays: Dict[str, np.ndarray] = {}
        self._sealed = False

    # ----------------------------------------------------------- construction

    def seal(self) -> "DcTopology":
        """Refuse any further node or link, so one instance can be shared:
        no caller can change the fabric another one reads."""
        self._sealed = True
        return self

    def _check_open(self) -> None:
        if self._sealed:
            raise ConfigurationError(
                f"this {type(self).__name__} is sealed (shared); build a new one to extend it")

    def add_host(self, name: str) -> str:
        self._check_open()
        self._node_id[name] = len(self.hosts)
        self.hosts.append(name)
        return name

    def add_switch(self, name: str) -> str:
        self._check_open()
        self._node_id[name] = ~len(self.switches)
        self.switches.append(name)
        return name

    def add_duplex_link(
        self, a: str, b: str, capacity_bps: float, delay_s: float, kind_ab: str, kind_ba: str
    ) -> Tuple[int, int]:
        """Add both directions of a cable; returns their link indices."""
        self._check_open()
        i_ab = self._add_directed(a, b, capacity_bps, delay_s, kind_ab)
        i_ba = self._add_directed(b, a, capacity_bps, delay_s, kind_ba)
        return i_ab, i_ba

    def _add_directed(self, src: str, dst: str, capacity_bps: float,
                      delay_s: float, kind: str) -> int:
        index = self._indexed()
        if (src, dst) in index:
            raise RoutingError(f"duplicate link {src}->{dst}")
        if kind not in LINK_KINDS:
            raise ConfigurationError(
                f"link kind must be one of {LINK_KINDS}, got {kind!r}")
        for name in (src, dst):
            if name not in self._node_id:
                raise RoutingError(f"link {src}->{dst} names unknown node {name!r}")
        self._link_arrays.clear()
        index[(src, dst)] = idx = len(self._src)
        self._src.append(self._node_id[src])
        self._dst.append(self._node_id[dst])
        self._capacity.append(capacity_bps)
        self._delay.append(delay_s)
        self._kind.append(LINK_KINDS.index(kind))
        return idx

    def _indexed(self) -> Dict[Tuple[str, str], int]:
        if self._link_index is None:
            name = self.node_name
            self._link_index = {(name(s), name(d)): i for i, (s, d)
                                in enumerate(zip(self._src, self._dst))}
        return self._link_index

    # ------------------------------------------------------------ link table

    @property
    def n_links(self) -> int:
        return len(self._src)

    @property
    def link_src(self) -> np.ndarray:
        """Source node id per link (host ``i`` is ``i``, switch ``j`` is ``~j``)."""
        return np.array(self._src, dtype=np.int64)

    @property
    def link_capacity_bps(self) -> np.ndarray:
        return self._read_only("_capacity", lambda: np.asarray(self._capacity, dtype=float))

    @property
    def link_delay_s(self) -> np.ndarray:
        return self._read_only("_delay", lambda: np.asarray(self._delay, dtype=float))

    @property
    def link_inv_capacity(self) -> np.ndarray:
        """``1 / link_capacity_bps``, what the queueing-delay and
        utilization products multiply by."""
        return self._read_only("inv_capacity", lambda: 1.0 / self.link_capacity_bps)

    @property
    def link_is_swsw(self) -> np.ndarray:
        """True on the switch-to-switch links (the L' set of Eq. 6)."""
        return self._read_only(
            "is_swsw", lambda: np.asarray(self._kind, dtype=np.int8) == _SWSW)

    def switch_egress_ports(self) -> np.ndarray:
        """Ids of the links that leave a switch, grouped by switch in
        :attr:`switches` order, by link id within a switch (int32)."""
        def ports() -> np.ndarray:
            src = np.asarray(self._src, dtype=np.int32)
            ports = np.flatnonzero(src < 0).astype(np.int32)
            return ports[np.argsort(~src[ports], kind="stable")]
        return self._read_only("switch_egress", ports)

    def _read_only(self, name: str, make: Callable[[], np.ndarray]) -> np.ndarray:
        """A read-only view of the per-link array ``name``, made by
        ``make()`` on first read; a float column a fabric assigned as a
        float64 array is stored as it is."""
        array = self._link_arrays.get(name)
        if array is None:
            array = self._link_arrays[name] = make()
            array.flags.writeable = False  # so no view can be made writeable
        return array.view()

    def node_name(self, node_id: int) -> str:
        return self.hosts[node_id] if node_id >= 0 else self.switches[~node_id]

    @property
    def links(self) -> Sequence[LinkSpec]:
        """The link table as :class:`LinkSpec` objects, built per access."""
        return _LinkTable(self)

    def link_id(self, src: str, dst: str) -> int:
        """Index of the directed link src->dst."""
        try:
            return self._indexed()[(src, dst)]
        except KeyError:
            raise RoutingError(f"no link {src}->{dst}") from None

    def path_from_nodes(self, nodes: Sequence[str], relay_hosts: Sequence[str] = ()) -> PathSpec:
        """Build a PathSpec along consecutive nodes."""
        idx = tuple(self.link_id(a, b) for a, b in zip(nodes, nodes[1:]))
        return PathSpec(idx, tuple(relay_hosts))

    # ------------------------------------------------------------------ paths

    def path_rows(self, src_host: str, dst_host: str, limit: int,
                  pick: Optional[PathPick] = None) -> PathRows:
        """Link-id rows of paths between two hosts.

        The candidates are the first ``limit`` of the fabric's path order.
        Without ``pick`` every candidate is returned; with it, only the
        candidates ``pick(count)`` names — so a fabric that knows its path
        set in closed form builds the kept rows alone.
        """
        for host in (src_host, dst_host):
            if self._node_id.get(host, -1) < 0:  # switches have negative ids
                raise ConfigurationError(
                    f"{host!r} is not a host of this {type(self).__name__}")
        if src_host == dst_host:
            raise ConfigurationError("src and dst must differ")
        if limit < 1:
            raise ConfigurationError(f"need room for at least 1 path, got {limit}")
        return self._path_rows(src_host, dst_host, limit, pick)

    @abstractmethod
    def _path_rows(self, src_host: str, dst_host: str, limit: int,
                   pick: Optional[PathPick]) -> PathRows:
        """:meth:`path_rows` on validated arguments: the one place a
        fabric defines its path set."""

    @staticmethod
    def _rows_of(candidates: List[PathSpec], pick: Optional[PathPick]) -> PathRows:
        """:meth:`_path_rows` for a fabric that enumerates its candidates."""
        if pick is not None:
            candidates = [candidates[i] for i in pick(len(candidates))]
        width = max((len(p.link_indices) for p in candidates), default=0)
        links = np.full((len(candidates), width), -1, dtype=np.int32)
        for row, path in zip(links, candidates):
            row[:len(path.link_indices)] = path.link_indices
        return links, [p.relay_hosts for p in candidates]

    def paths(self, src_host: str, dst_host: str, max_paths: int) -> List[PathSpec]:
        """Up to ``max_paths`` distinct forward paths between two hosts."""
        return path_specs(self.path_rows(src_host, dst_host, max_paths))
