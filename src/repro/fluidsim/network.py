"""Fluid-simulation network: topology arrays + connections + incidence maps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.fluidsim.adapters import FluidAlgorithm, create_fluid_algorithm
from repro.fluidsim.connections import (ConnectionColumns, ConnectionSequence,
                                        FluidConnection)
from repro.fluidsim.csr import Csr
from repro.net.rand import Pcg64
from repro.topology.base import DcTopology
from repro.units import DEFAULT_PACKET_BYTES


@dataclass(frozen=True)
class ComputeArrays:
    """The per-link/per-subflow constants of the step loop in one dtype.

    :meth:`FluidNetwork.compute_arrays` hands these to the engine so a
    float32 simulation reads half-width copies of the invariant arrays
    (and of the path table's values) instead of paying an upcast on
    every operation.  In float64 every field is a view: ``capacity`` and
    ``inv_capacity`` of the fabric's read-only arrays, ``buffer_bits`` the
    network's zero-stride broadcast, ``base_rtt`` and ``paths_data`` the
    network's own arrays.
    """

    base_rtt: np.ndarray
    capacity: np.ndarray
    inv_capacity: np.ndarray
    buffer_bits: np.ndarray
    paths_data: np.ndarray


@dataclass
class Cohort:
    """All subflows sharing one algorithm instance (users contiguous)."""

    algorithm: FluidAlgorithm
    #: The cohort's slice of the per-subflow arrays, in storage order.
    span: slice
    #: Offsets of each user's block within ``span`` (for reduceat).
    user_starts: np.ndarray
    #: User index (within the cohort) of each subflow.
    user_of: np.ndarray


class FluidNetwork:
    """Builds the arrays the engine integrates.

    Construct from a :class:`~repro.topology.base.DcTopology`, add
    connections (subflows = paths), then ``finalize()``.
    """

    def __init__(
        self,
        topology: DcTopology,
        *,
        buffer_packets: int = 100,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        path_seed: Optional[int] = 0,
    ):
        self.topology = topology
        #: RNG for ECMP-style random path selection. Real datacenters hash
        #: flows onto random equal-cost paths; always taking the first
        #: enumerated path would concentrate every single-subflow flow onto
        #: the same core links.
        self._path_rng = Pcg64(path_seed)
        self.packet_bytes = packet_bytes
        self.packet_bits = packet_bytes * 8
        # Views of the fabric's read-only link arrays, shared by every
        # network built on it; the one per-link fact a network adds is its
        # buffer, a single value broadcast (zero stride, read-only).
        self.capacity = topology.link_capacity_bps
        self.link_delay = topology.link_delay_s
        self.is_swsw = topology.link_is_swsw
        self.buffer_bits = np.broadcast_to(
            np.float64(buffer_packets * self.packet_bits), (topology.n_links,))
        self._columns = ConnectionColumns(len(topology.hosts))
        self._finalized = False

        # Filled by finalize():
        #: Subflows x links, the chosen paths: ``matvec`` sums link prices
        #: along each path, ``rmatvec`` loads each link with its subflows.
        self.paths: Optional[Csr] = None
        #: Subflows x hosts: whose CPU each subflow's traffic loads.
        self.hosts: Optional[Csr] = None
        self.base_rtt: Optional[np.ndarray] = None
        self.switch_hops: Optional[np.ndarray] = None
        self.subflow_conn: Optional[np.ndarray] = None
        self.cohorts: List[Cohort] = []
        self.host_subflow_count: Optional[np.ndarray] = None
        #: Subflows for which each host keeps socket state (src/dst only).
        self.host_endpoint_count: Optional[np.ndarray] = None
        #: Switch egress ports for the switch-energy model, grouped by
        #: switch in ``topology.switches`` order.
        self.switch_egress: Optional[np.ndarray] = None
        #: Per-dtype copies of the hot step-loop constants, built lazily
        #: by :meth:`compute_arrays`.
        self._compute_cache: Dict[np.dtype, "ComputeArrays"] = {}

    # ---------------------------------------------------------------- build

    @classmethod
    def permutation(
        cls,
        topology: DcTopology,
        algorithm: str,
        *,
        n_subflows: int,
        seed: int,
        path_pool: int = 64,
        algorithm_kwargs: Optional[dict] = None,
    ) -> "FluidNetwork":
        """The finalized network of the paper's datacenter experiment
        (Figs. 10, 12-16): every host sends one ``algorithm`` flow of
        ``n_subflows`` subflows to a random other host.  ``seed`` fixes
        both the pairing and the ECMP path draw."""
        # Local: only fluid runs pay for the workloads package (DESIGN §8).
        from repro.workloads.permutation import random_permutation_pairs

        net = cls(topology, path_seed=seed)
        for src, dst in random_permutation_pairs(topology.hosts, Pcg64(seed)):
            net.add_connection(src, dst, algorithm, n_subflows=n_subflows,
                               algorithm_kwargs=algorithm_kwargs,
                               path_pool=path_pool)
        net.finalize()
        return net

    @property
    def connections(self) -> Sequence[FluidConnection]:
        """The connections in add order, as views built on access."""
        return ConnectionSequence(self._columns)

    def add_connection(
        self,
        src: str,
        dst: str,
        algorithm: str,
        *,
        n_subflows: int,
        algorithm_kwargs: Optional[dict] = None,
        path_pool: int = 64,
    ) -> FluidConnection:
        """Add a connection using up to ``n_subflows`` distinct paths,
        sampled ECMP-style from up to ``path_pool`` candidate paths.

        All connections running one algorithm share its instance, so
        they must agree on ``algorithm_kwargs``.
        """
        if self._finalized:
            raise ConfigurationError("network already finalized")
        if n_subflows < 1 or path_pool < 1:
            raise ConfigurationError(
                f"n_subflows and path_pool must be >= 1, got {n_subflows} and {path_pool}")

        def pick(count: int) -> Sequence[int]:
            # The draw depends on the candidate count alone, so the
            # topology can build the kept paths only.
            if count > n_subflows:
                return sorted(self._path_rng.choice(count, n_subflows))
            return range(count)

        links, relays = self.topology.path_rows(
            src, dst, max(n_subflows, path_pool), pick)
        if not len(links):
            raise ConfigurationError(f"no path between {src} and {dst}")
        index = self._columns.append(src, dst, algorithm,
                                     algorithm_kwargs or {}, links, relays)
        return FluidConnection(self._columns, index)

    def finalize(self) -> None:
        """Freeze the connection set and build all arrays."""
        if self._finalized:
            raise ConfigurationError("network already finalized")
        self._finalized = True
        topology = self.topology
        n_hosts = len(topology.hosts)
        cols = self._columns
        order, counts = cols.freeze()
        # One padded link-id row per subflow; entry -1 of the padded
        # per-link vectors below is the pad's neutral element.
        hops = cols.table
        n_subflows = len(hops)

        self.cohorts = []
        bounds = np.searchsorted(cols.cohort[order],
                                 np.arange(len(cols.algorithms) + 1))
        for (algo_name, (_, kwargs)), lo, hi in zip(
                cols.algorithms.items(), bounds[:-1].tolist(), bounds[1:].tolist()):
            users = counts[lo:hi]
            first = int(cols.starts[order[lo]])
            self.cohorts.append(Cohort(
                create_fluid_algorithm(algo_name, **kwargs),
                slice(first, first + int(users.sum())),
                np.cumsum(users) - users,
                np.repeat(np.arange(hi - lo, dtype=np.int32), users),
            ))

        self.paths = Csr.from_rows(hops, topology.n_links)
        # Hop by hop: the same additions, in the same order, as summing
        # each path's delays one link after the other.
        delay = np.append(self.link_delay, 0.0)
        one_way = np.zeros(n_subflows)
        for hop in hops.T:
            one_way += delay[hop]
        self.base_rtt = 2.0 * one_way
        self.switch_hops = np.append(self.is_swsw, False)[hops].sum(
            axis=1, dtype=np.int32)
        self.subflow_conn = np.repeat(order.astype(np.int32), counts)

        # Host incidence: sender, receiver, and any relays all burn
        # throughput-proportional CPU for this subflow's traffic; only
        # the endpoints hold subflow socket state (the per-subflow
        # overhead of Fig. 1).
        host_ids = {h: i for i, h in enumerate(topology.hosts)}

        def per_subflow(names: List[str]) -> np.ndarray:
            ids = np.array([host_ids[name] for name in names], dtype=np.int64)
            return np.repeat(ids[order], counts)

        src_host, dst_host = per_subflow(cols.src), per_subflow(cols.dst)
        relays = np.array(
            [(sid, slot, host_ids[host]) for conn, paths in cols.relays.items()
             for sid, path_relays in enumerate(paths, int(cols.starts[conn]))
             for slot, host in enumerate(path_relays, 2)],
            dtype=np.int32).reshape(-1, 3)
        touched = np.full(
            (n_subflows, relays[:, 1].max(initial=1) + 1), -1, dtype=np.int32)
        touched[:, 0], touched[:, 1] = src_host, dst_host
        touched[relays[:, 0], relays[:, 1]] = relays[:, 2]
        # A host a path touches twice still counts once.
        self.hosts = Csr.from_rows(touched, n_hosts).pattern()
        self.host_subflow_count = np.bincount(
            self.hosts.indices, minlength=n_hosts).astype(float)
        self.host_endpoint_count = (
            np.bincount(src_host, minlength=n_hosts)
            + np.bincount(dst_host, minlength=n_hosts)).astype(float)
        self.switch_egress = topology.switch_egress_ports()

    @property
    def n_subflows(self) -> int:
        """Total subflow count (after finalize)."""
        if self.base_rtt is None:
            raise ConfigurationError("finalize() the network first")
        return len(self.base_rtt)

    @property
    def n_links(self) -> int:
        return len(self.capacity)

    def compute_arrays(self, dtype) -> "ComputeArrays":
        """The step-loop constants in ``dtype``, cached per dtype.

        ``float64`` returns views only (:class:`ComputeArrays` says of
        what), no copies; ``float32`` materializes half-width copies once
        so every simulation sharing this network reuses them, keeping
        ``buffer_bits`` a zero-stride broadcast.  Requires
        :meth:`finalize`.
        """
        if self.base_rtt is None:
            raise ConfigurationError("finalize() the network first")
        dtype = np.dtype(dtype)
        cached = self._compute_cache.get(dtype)
        if cached is None:
            def cast(array):
                return array.astype(dtype, copy=False)
            cached = self._compute_cache[dtype] = ComputeArrays(
                base_rtt=cast(self.base_rtt), capacity=cast(self.capacity),
                inv_capacity=cast(self.topology.link_inv_capacity),
                buffer_bits=np.broadcast_to(cast(self.buffer_bits[:1]),
                                            self.buffer_bits.shape),
                paths_data=cast(self.paths.data))
        return cached
