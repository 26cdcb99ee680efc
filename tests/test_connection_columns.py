"""The fluid network's connections are columns, not objects.

* Every array ``finalize()`` hands the engine and the solver, the cohort
  slices and every ``connections[i]`` view must equal digests recorded
  when each connection was an object holding its own path array, on four
  fabrics (BCube's paths have relays) with two interleaved cohorts, so
  storage order differs from add order.
* No per-connection object survives ``finalize()``: a 128-connection
  network retains fewer memory blocks than it has connections.

``python tests/test_connection_columns.py`` prints the digests of the
tree it runs on.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.fluidsim import FluidNetwork
from repro.net.rand import Pcg64
from repro.topology import BCube, Ec2Cloud, FatTree, Vl2
from repro.workloads.permutation import random_permutation_pairs

FABRICS = {
    "fattree": lambda: FatTree(4),
    "vl2": lambda: Vl2(n_tor=8, n_agg=4, n_int=4),
    "bcube": lambda: BCube(4, 1),
    "ec2": lambda: Ec2Cloud(n_hosts=12),
}

#: Recorded on the commit before the column store.
DIGESTS = {
    "fattree": "ec346e3a8ed1992c1e1ce89d0245fccc930aa3b60670066a58c593615d56e7c8",
    "vl2": "0a804fd5bad9bb3c639d02a454971f0279778e3c6fa0e4aed35ac2fcd8c5ad35",
    "bcube": "c0cc3c760467a17263a57d1616e9cf55946eabf7f79b6bcf4dcb74230b7c9ac2",
    "ec2": "56f784fce21ccc928a2d724233932a540aa61a6bf80ca240436c860c8d805374",
}


def build(fabric: str) -> FluidNetwork:
    topo = FABRICS[fabric]()
    net = FluidNetwork(topo, path_seed=7)
    for i, (src, dst) in enumerate(random_permutation_pairs(topo.hosts, Pcg64(7))):
        net.add_connection(src, dst, ("dts", "lia")[i % 2],
                           n_subflows=1 + i % 3, path_pool=8)
    net.finalize()
    return net


def digest(net: FluidNetwork) -> str:
    """sha256 over every array and view; the index columns stored
    narrower than the int64 they were recorded at are hashed widened
    back, so the digest pins their values, not a width."""
    h = hashlib.sha256()

    def put(name, value):
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value)
            h.update(f"{name}|{value.dtype.str}|{value.shape}|".encode())
            h.update(value.tobytes())
        else:
            h.update(f"{name}|{value!r}|".encode())

    for name in ("indptr", "indices", "data"):
        put(f"paths.{name}", getattr(net.paths, name))
        put(f"hosts.{name}", getattr(net.hosts, name))
    put("base_rtt", net.base_rtt)
    put("switch_hops", net.switch_hops.astype(np.int64))
    put("subflow_conn", net.subflow_conn.astype(np.int64))
    for cohort in net.cohorts:
        put("cohort", (cohort.algorithm.name, cohort.span.start, cohort.span.stop))
        put("user_starts", cohort.user_starts)
        put("user_of", cohort.user_of.astype(np.int64))
    put("n_connections", len(net.connections))
    for conn in net.connections:
        put("connection", (conn.index, conn.src, conn.dst, conn.algorithm_name,
                           conn.n_subflows, list(conn.subflow_ids),
                           [(p.link_indices, p.relay_hosts) for p in conn.paths]))
    return h.hexdigest()


@pytest.mark.parametrize("fabric", FABRICS)
def test_columns_build_what_connection_objects_built(fabric):
    net = build(fabric)
    assert len(net.cohorts) == 2
    assert digest(net) == DIGESTS[fabric]


def test_bcube_connections_keep_their_relays():
    net = build("bcube")
    relayed = [p for conn in net.connections for p in conn.paths if p.relay_hosts]
    assert relayed
    # The host incidence holds a relay column only because of them.
    assert np.diff(net.hosts.indptr).max() > 2


def test_connections_is_a_read_only_view():
    net = build("fattree")
    conns = net.connections
    assert len(conns) == len(net.topology.hosts)
    assert conns[-1].index == len(conns) - 1
    assert [c.index for c in conns[1:3]] == [1, 2]
    with pytest.raises(IndexError):
        conns[len(conns)]
    with pytest.raises(TypeError):
        conns[0] = None
    for conn in conns:
        rows = net.paths.indptr
        ids = conn.subflow_ids
        assert list(net.subflow_conn[ids.start:ids.stop]) == [conn.index] * conn.n_subflows
        assert rows[ids.stop] - rows[ids.start] == np.count_nonzero(conn.path_links >= 0)


def test_a_wider_path_keeps_every_row_of_the_table():
    """Rows double and columns widen: a longer path arriving while the
    table still has free rows must widen it without losing any row."""
    topo = FatTree(4)
    adds = [("h0_0_0", "h0_1_0", 4, 64),  # two 4-link paths
            ("h1_0_0", "h1_1_0", 4, 64),
            ("h0_0_0", "h0_0_1", 4, 64),  # one 2-link path
            ("h2_0_0", "h2_0_1", 4, 64),
            ("h0_0_0", "h3_1_1", 1, 1)]   # one 6-link path: row 7 of 8
    net = FluidNetwork(topo)
    for src, dst, n, pool in adds:
        net.add_connection(src, dst, "lia", n_subflows=n, path_pool=pool)
    net.finalize()
    for conn, (src, dst, n, pool) in zip(net.connections, adds):
        assert [p.link_indices for p in conn.paths] == [
            p.link_indices for p in topo.paths(src, dst, max(n, pool))][:n]


def test_no_per_connection_object_survives_finalize():
    topo = FatTree(8)
    # Imports and the fabric's lazy tables, outside the traced build.
    FluidNetwork.permutation(topo, "lia", n_subflows=4, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        net = FluidNetwork.permutation(topo, "lia", n_subflows=4, seed=2)
        gc.collect()
        blocks = sum(stat.count for stat in
                     tracemalloc.take_snapshot().statistics("filename"))
    finally:
        tracemalloc.stop()
    assert len(net.connections) == 128
    assert blocks < len(net.connections)


if __name__ == "__main__":
    for name in FABRICS:
        print(f'    "{name}": "{digest(build(name))}",')
