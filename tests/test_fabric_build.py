"""The array-native fabric build (ISSUE 14) against what it replaced.

* ``tests/data/fabric_digests.json`` holds one sha256 per network over
  every array ``finalize()`` produces, recorded at the parent commit
  (the object-per-link / enumerate-then-pick build): the new build must
  reproduce each of them bit for bit.
* ``path_rows`` with a pick must equal picking from ``paths()``, and the
  fat-tree's closed-form link ids must equal a table built by replaying
  the ``add_duplex_link`` order it replaced.
* The on-demand views (``links``, ``link_id``, ``PathSpec``) round-trip.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.campaign.spec import build_topology
from repro.errors import ConfigurationError, RoutingError
from repro.fluidsim import FluidNetwork
from repro.topology import BCube, Ec2Cloud, FatTree, Vl2
from repro.topology.base import path_specs
from repro.topology.realize import realize
from repro.units import mbps, ms
from repro.workloads.permutation import random_permutation_pairs
from tests.test_fluid_csr import _scipy

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "fabric_digests.json").read_text())

#: Cohorts interleave in connection order, so spans/user_starts are not
#: trivially ``arange``.
ALGORITHMS = ("lia", "dts", "lia", "reno")


def build_network(topo, n_subflows: int, path_pool: int, seed: int) -> FluidNetwork:
    pairs = random_permutation_pairs(topo.hosts, np.random.default_rng(seed))
    net = FluidNetwork(topo, path_seed=seed)
    for i, (src, dst) in enumerate(pairs):
        net.add_connection(src, dst, ALGORITHMS[i % len(ALGORITHMS)],
                           n_subflows=n_subflows, path_pool=path_pool)
    net.finalize()
    return net


def network_digest(net: FluidNetwork) -> str:
    """sha256 over name, dtype, shape and bytes of every built array.

    The digests were recorded when ``finalize()`` built a link-major
    ``routing``, its transpose and a host-major ``host_incidence``; the
    path table is ``routing_t`` itself, and scipy's transposes of
    ``net.paths`` / ``net.hosts`` must be the other two, array for array.
    Index columns stored narrower than the int64 they were recorded at
    are hashed widened back: the digest pins their values, not a width.
    """
    routing, host_incidence = _scipy(net.paths).T.tocsr(), _scipy(net.hosts).T.tocsr()
    arrays = {
        "routing.indptr": routing.indptr,
        "routing.indices": routing.indices,
        "routing.data": routing.data,
        "routing_t.indptr": net.paths.indptr,
        "routing_t.indices": net.paths.indices,
        "routing_t.data": net.paths.data,
        "base_rtt": net.base_rtt,
        "switch_hops": net.switch_hops.astype(np.int64),
        "subflow_conn": net.subflow_conn.astype(np.int64),
        "host_incidence.indptr": host_incidence.indptr,
        "host_incidence.indices": host_incidence.indices,
        "host_incidence.data": host_incidence.data,
        "host_subflow_count": net.host_subflow_count,
        "host_endpoint_count": net.host_endpoint_count,
        "switch_egress": net.switch_egress.astype(np.int64),
        "capacity": net.capacity,
        "link_delay": net.link_delay,
        "is_swsw": net.is_swsw,
    }
    for c, cohort in enumerate(net.cohorts):
        # Recorded when a cohort held its subflow ids as an int64 array.
        arrays[f"cohort{c}.{cohort.algorithm.name}.ids"] = np.arange(
            net.n_subflows, dtype=np.int64)[cohort.span]
        arrays[f"cohort{c}.user_starts"] = cohort.user_starts
        arrays[f"cohort{c}.user_of"] = cohort.user_of.astype(np.int64)
    h = hashlib.sha256()
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# ------------------------------------------------------------ golden digests

FABRICS = ("fattree", "bcube", "vl2", "fattree24")


@pytest.fixture(scope="module", params=FABRICS)
def fabric(request):
    return request.param, build_topology(request.param)


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("path_pool", (8, 64))
@pytest.mark.parametrize("n_subflows", (1, 2, 8))
def test_network_arrays_match_parent_digests(fabric, n_subflows, path_pool, seed):
    name, topo = fabric
    net = build_network(topo, n_subflows, path_pool, seed)
    key = f"{name}/s{n_subflows}/p{path_pool}/seed{seed}"
    assert network_digest(net) == DIGESTS[key]


def test_digest_file_covers_exactly_the_matrix():
    assert len(DIGESTS) == len(FABRICS) * 3 * 2 * 2


# -------------------------------------------------- pick-then-build == paths

def _replayed_fattree_links(k: int):
    """(src, dst, kind) per link id, replaying the cable-by-cable build
    (``add_duplex_link`` order) the closed form replaced."""
    half = k // 2
    table = []

    def duplex(a, b, kind_ab, kind_ba):
        table.extend([(a, b, kind_ab), (b, a, kind_ba)])

    for pod in range(k):
        edges = [f"p{pod}e{i}" for i in range(half)]
        aggs = [f"p{pod}a{i}" for i in range(half)]
        for e_i, edge in enumerate(edges):
            for h_i in range(half):
                duplex(f"h{pod}_{e_i}_{h_i}", edge, "host-sw", "sw-host")
            for agg in aggs:
                duplex(edge, agg, "sw-sw", "sw-sw")
        for a_i, agg in enumerate(aggs):
            for c_i in range(half):
                duplex(agg, f"core{a_i * half + c_i}", "sw-sw", "sw-sw")
    return table


def _enumerated_fattree_paths(ft: FatTree, src: str, dst: str):
    """Every path in the enumerate-everything order, as node walks."""
    half = ft.k // 2
    sp, se, _ = (int(x) for x in src[1:].split("_"))
    dp, de, _ = (int(x) for x in dst[1:].split("_"))
    if (sp, se) == (dp, de):
        return [[src, ft.edge[sp][se], dst]]
    if sp == dp:
        return [[src, ft.edge[sp][se], ft.agg[sp][a], ft.edge[dp][de], dst]
                for a in range(half)]
    return [[src, ft.edge[sp][se], ft.agg[sp][a], ft.core[a * half + c],
             ft.agg[dp][a], ft.edge[dp][de], dst]
            for a in range(half) for c in range(half)]


@pytest.mark.parametrize("k", (2, 4, 6, 8, 24))
def test_fattree_link_table_matches_replayed_build(k):
    ft = FatTree(k, link_bps=mbps(40), link_delay=ms(3))
    table = _replayed_fattree_links(k)
    assert ft.n_links == len(table)
    step = max(1, len(table) // 500)  # k=24: a 500-link sample, plus the ends
    for i in sorted({*range(0, len(table), step), len(table) - 1}):
        src, dst, kind = table[i]
        assert ft.links[i] == type(ft.links[i])(src, dst, mbps(40), ms(3), kind)
        assert ft.link_id(src, dst) == i
    assert ft.link_is_swsw.tolist() == [kind == "sw-sw" for *_, kind in table]


def _assert_picked_rows_match_paths(topo, src, dst, rng):
    """path_rows with a pick == picking from paths(), asked once."""
    for limit in (1, 3, 64):
        paths = topo.paths(src, dst, limit)
        assert 1 <= len(paths) <= limit
        asked = []

        def pick(count):
            keep = int(rng.integers(1, count + 1))
            chosen = sorted(rng.choice(count, size=keep, replace=False).tolist())
            asked.append((count, chosen))
            return chosen

        rows = topo.path_rows(src, dst, limit, pick)
        (count, chosen), = asked
        assert count == len(paths)
        assert path_specs(rows) == [paths[i] for i in chosen]


@pytest.mark.parametrize("k", (2, 4, 6, 8, 24))
def test_fattree_closed_form_paths_match_enumeration(k):
    ft = FatTree(k)
    index = {(a, b): i for i, (a, b, _) in enumerate(_replayed_fattree_links(k))}
    rng = np.random.default_rng(k)
    src = ft.hosts[0]
    # Same edge switch, same pod, another pod (k=2 has only the last).
    for dst in ("h0_0_1", "h0_1_0", f"h{k - 1}_0_0"):
        if dst not in ft.hosts:
            continue
        walks = _enumerated_fattree_paths(ft, src, dst)
        want = [tuple(index[hop] for hop in zip(w, w[1:])) for w in walks]
        got = ft.paths(src, dst, len(want) + 5)
        assert [p.link_indices for p in got] == want
        assert all(p.relay_hosts == () for p in got)
        _assert_picked_rows_match_paths(ft, src, dst, rng)


@pytest.mark.parametrize("topo", (BCube(4, 2), Vl2(), Ec2Cloud()),
                         ids=lambda t: type(t).__name__)
def test_enumerating_fabrics_pick_from_their_enumeration(topo):
    rng = np.random.default_rng(0)
    for i in rng.choice(len(topo.hosts), size=12, replace=False):
        src, dst = topo.hosts[int(i)], topo.hosts[int(i) - 1]
        _assert_picked_rows_match_paths(topo, src, dst, rng)


def test_add_connection_enumerates_once(monkeypatch):
    topo = BCube(4, 2)
    candidates = topo.paths("b000", "b333", 8)
    calls = []
    enumerate_paths = topo._candidates
    monkeypatch.setattr(
        topo, "_candidates",
        lambda *args: calls.append(args) or enumerate_paths(*args))
    net = FluidNetwork(topo, path_seed=3)
    conn = net.add_connection("b000", "b333", "lia", n_subflows=2, path_pool=8)
    assert calls == [("b000", "b333", 8)]
    chosen = np.random.default_rng(3).choice(len(candidates), 2, replace=False)
    assert conn.paths == [candidates[i] for i in sorted(chosen)]


# -------------------------------------------------------------- input checks

@pytest.mark.parametrize("topo", (FatTree(4), BCube(4, 1), Vl2(), Ec2Cloud()),
                         ids=lambda t: type(t).__name__)
@pytest.mark.parametrize("max_paths", (0, -1))
def test_paths_rejects_no_room_on_every_topology(topo, max_paths):
    # Same-edge/ToR pairs and distant pairs alike.
    for dst in (topo.hosts[1], topo.hosts[-1]):
        with pytest.raises(ConfigurationError, match="at least 1 path"):
            topo.paths(topo.hosts[0], dst, max_paths)


@pytest.mark.parametrize("topo", (FatTree(4), BCube(4, 1), Vl2(), Ec2Cloud()),
                         ids=lambda t: type(t).__name__)
def test_unknown_host_is_named_on_every_topology(topo):
    """Was a bare KeyError (fat-tree, VL2) or int('o') ValueError (BCube);
    a switch's name is no host either."""
    net = FluidNetwork(topo)
    for src, dst, culprit in (("nope", topo.hosts[0], "nope"),
                              (topo.hosts[0], "nope", "nope"),
                              (topo.hosts[0], topo.switches[0], topo.switches[0])):
        with pytest.raises(ConfigurationError, match=f"'{culprit}' is not a host"):
            net.add_connection(src, dst, "lia", n_subflows=1)
    assert len(net.connections) == 0


@pytest.mark.parametrize("kwargs", ({"n_subflows": 0}, {"n_subflows": -2},
                                    {"n_subflows": 1, "path_pool": 0}))
def test_add_connection_rejects_zero_subflows_or_pool(kwargs):
    net = FluidNetwork(FatTree(4))
    with pytest.raises(ConfigurationError, match=">= 1"):
        net.add_connection("h0_0_0", "h3_1_1", "lia", **kwargs)
    assert len(net.connections) == 0


def test_user_starts_have_no_empty_blocks():
    """What n_subflows=0 used to break: reduceat over user_starts sums
    each user's own subflows."""
    net = FluidNetwork(FatTree(4))
    for dst, n in (("h3_1_1", 2), ("h0_0_1", 3), ("h2_0_0", 1)):
        net.add_connection("h0_0_0", dst, "lia", n_subflows=n)
    net.finalize()
    cohort, = net.cohorts
    assert cohort.user_starts.tolist() == [0, 2, 3]  # same-edge pair: 1 path
    per_user = np.add.reduceat(np.ones(net.n_subflows), cohort.user_starts)
    assert per_user.tolist() == [2, 1, 1]


def test_cohort_rejects_conflicting_algorithm_kwargs():
    net = FluidNetwork(FatTree(4))
    a = net.add_connection("h0_0_0", "h3_1_1", "dts-ext", n_subflows=2,
                           algorithm_kwargs={"kappa": 0.1})
    net.add_connection("h1_0_0", "h2_1_1", "dts-ext", n_subflows=2,
                       algorithm_kwargs={"kappa": 0.1})
    net.add_connection("h1_0_1", "h2_1_0", "lia", n_subflows=2)
    assert a.algorithm_kwargs == {"kappa": 0.1}
    with pytest.raises(ConfigurationError, match="dts-ext.*algorithm_kwargs"):
        net.add_connection("h1_1_0", "h2_0_0", "dts-ext", n_subflows=2,
                           algorithm_kwargs={"kappa": 0.5})
    # Rejected before it was added: the three that agree still build.
    assert len(net.connections) == 3
    net.finalize()
    assert [c.algorithm.name for c in net.cohorts] == ["dts-ext", "lia"]


def test_cohort_is_one_slice_of_the_subflow_arrays():
    """Engine and solver read a cohort through ``span``: the spans tile
    the subflow arrays in cohort order, and each holds exactly the
    subflows of its own connections."""
    net = build_network(FatTree(4), 2, 8, seed=1)
    assert len(net.cohorts) == 3
    stops = [0]
    for cohort in net.cohorts:
        assert cohort.span.start == stops[-1] and cohort.span.step is None
        stops.append(cohort.span.stop)
        conns = net.subflow_conn[cohort.span]
        assert {net.connections[c].algorithm_name for c in conns} == {
            cohort.algorithm.name}
        assert len(cohort.user_of) == len(conns)
    assert stops[-1] == net.n_subflows


def test_uniform_algorithm_kwargs_reach_the_cohort():
    net = FluidNetwork(FatTree(4))
    for dst in ("h3_1_1", "h2_0_0"):
        net.add_connection("h0_0_0", dst, "dts-ext", n_subflows=2,
                           algorithm_kwargs={"kappa": 0.25})
    net.finalize()
    assert net.cohorts[0].algorithm.price_config.kappa == 0.25


def test_build_topology_error_lists_what_it_can_build():
    with pytest.raises(ConfigurationError) as exc:
        build_topology("ec2")
    listed = str(exc.value).split("can build:")[1]
    assert "ec2" not in listed
    assert all(name in listed for name in FABRICS + ("fattree32",))


# ----------------------------------------------------------- on-demand views

@pytest.mark.parametrize("topo", (FatTree(4), BCube(3, 1), Vl2(n_tor=4, n_agg=2, n_int=2),
                                  Ec2Cloud(n_hosts=3)),
                         ids=lambda t: type(t).__name__)
def test_link_views_round_trip(topo):
    links = topo.links
    assert len(links) == topo.n_links == len(list(links))
    for i, spec in enumerate(links):
        assert topo.link_id(spec.src, spec.dst) == i
        assert links[i] == spec and links[i - len(links)] == spec
        assert spec.capacity_bps == topo.link_capacity_bps[i]
        assert spec.delay_s == topo.link_delay_s[i]
        assert spec.is_switch_to_switch == topo.link_is_swsw[i]
        assert (spec.src in topo.switches) == (topo.link_src[i] < 0)
    assert links[1:3] == [links[1], links[2]]
    with pytest.raises(IndexError):
        links[len(links)]
    with pytest.raises(RoutingError):
        topo.link_id(topo.hosts[0], topo.hosts[1])
    # Egress ports: every switch's outgoing links, in switches order.
    want = [i for sw in topo.switches
            for i, spec in enumerate(links) if spec.src == sw]
    assert topo.switch_egress_ports().tolist() == want


@pytest.mark.parametrize("topo", (FatTree(4), BCube(3, 1)), ids=lambda t: type(t).__name__)
def test_link_arrays_are_read_only(topo):
    for read in (lambda: topo.link_capacity_bps, lambda: topo.link_delay_s):
        before = read().copy()
        with pytest.raises(ValueError, match="read-only"):
            read()[:] = 0.0
        with pytest.raises(ValueError):  # a view cannot be made writeable
            read().flags.writeable = True
        np.testing.assert_array_equal(read(), before)
        assert read().dtype == np.float64
    assert topo.link_capacity_bps.min() == mbps(100)
    # One stored column: the network shares it instead of copying it.
    net = FluidNetwork(topo)
    assert np.shares_memory(net.capacity, topo.link_capacity_bps)
    assert np.shares_memory(net.link_delay, topo.link_delay_s)


def test_a_new_link_refreshes_the_float_columns():
    topo = Ec2Cloud(n_hosts=2)
    n, delays = topo.n_links, topo.link_delay_s
    topo.add_switch("extra")
    topo.add_duplex_link("vm0", "extra", mbps(7), ms(3), "host-sw", "sw-host")
    assert len(topo.link_capacity_bps) == len(topo.link_delay_s) == n + 2
    assert topo.link_capacity_bps[-1] == mbps(7) and topo.link_delay_s[-2] == ms(3)
    assert len(delays) == n  # a view read before the link is unchanged


def _fabric_arrays(net: FluidNetwork):
    """The per-link arrays a network reads off its fabric, by name."""
    return {"inv_capacity": net.compute_arrays(np.float64).inv_capacity,
            "is_swsw": net.is_swsw, "switch_egress": net.switch_egress}


def test_networks_on_one_sealed_fabric_share_its_link_arrays():
    fabric = build_topology("fattree")
    one, two = (FluidNetwork.permutation(fabric, "lia", n_subflows=2, seed=seed)
                for seed in (1, 2))
    shared = _fabric_arrays(two)
    for name, array in _fabric_arrays(one).items():
        assert np.shares_memory(array, shared[name]), name
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0
        with pytest.raises(ValueError):  # a view cannot be made writeable
            array.flags.writeable = True
    np.testing.assert_array_equal(shared["inv_capacity"], 1.0 / fabric.link_capacity_bps)
    assert shared["switch_egress"].dtype == np.int32
    # What the connections define is held at its width, a constant once.
    assert one.buffer_bits.strides == (0,) and not one.buffer_bits.flags.writeable
    assert one.buffer_bits[0] == 100 * one.packet_bits
    for column in (one.subflow_conn, one.switch_hops,
                   *(cohort.user_of for cohort in one.cohorts)):
        assert column.dtype == np.int32
    # float64 compute arrays are the arrays themselves, not copies.
    ca = one.compute_arrays(np.float64)
    for array, owner in ((ca.capacity, fabric.link_capacity_bps),
                         (ca.buffer_bits, one.buffer_bits),
                         (ca.base_rtt, one.base_rtt), (ca.paths_data, one.paths.data)):
        assert np.shares_memory(array, owner)
    assert ca.buffer_bits.strides == (0,)
    assert one.compute_arrays(np.float32).buffer_bits.strides == (0,)


def test_a_new_link_refreshes_the_derived_link_arrays():
    topo = Ec2Cloud(n_hosts=2)
    n, inv_before, egress_before = (topo.n_links, topo.link_inv_capacity,
                                    topo.switch_egress_ports())
    n_ports = len(egress_before)
    topo.add_switch("extra")
    topo.add_duplex_link("subnet0", "extra", mbps(8), ms(3), "sw-sw", "sw-sw")
    inv, mask, egress = (topo.link_inv_capacity, topo.link_is_swsw,
                         topo.switch_egress_ports())
    assert len(inv) == len(mask) == n + 2
    assert inv[-1] == 1.0 / mbps(8) and mask[-2:].all() and not mask[:-2].any()
    # subnet0's ports gain the new link; "extra" is the last switch.
    assert len(egress) == n_ports + 2 and egress[-1] == n + 1 and n in egress
    # Views read before the link are unchanged.
    assert len(inv_before) == n and len(egress_before) == n_ports


def test_build_topology_shares_one_sealed_fabric():
    fabric = build_topology("bcube")
    assert build_topology("bcube") is fabric
    assert build_topology("bcube", ms(1)) is fabric
    assert build_topology("bcube", link_delay=ms(1)) is fabric
    other = build_topology("bcube", link_delay=ms(2))
    assert other is not fabric and other.link_delay_s[0] == ms(2)
    assert build_topology("vl2") is not build_topology("bcube")
    for add in (lambda t: t.add_duplex_link(t.hosts[0], t.hosts[1], mbps(1), ms(1),
                                            "host-host", "host-host"),
                lambda t: t.add_host("extra"), lambda t: t.add_switch("extra")):
        with pytest.raises(ConfigurationError, match="sealed"):
            add(fabric)
    assert len(fabric.hosts) == 64 and "extra" not in fabric.switches
    # The fabric it describes is the one a fresh build makes.
    fresh = BCube(4, 2, link_delay=ms(1))
    assert fabric.n_links == fresh.n_links
    np.testing.assert_array_equal(fabric.link_delay_s, fresh.link_delay_s)


def test_add_duplex_link_rejects_unknown_node_and_kind():
    topo = Ec2Cloud(n_hosts=2)
    with pytest.raises(RoutingError, match="unknown node"):
        topo.add_duplex_link("vm0", "nowhere", mbps(1), ms(1), "host-sw", "sw-host")
    with pytest.raises(ConfigurationError, match="link kind"):
        topo.add_duplex_link("vm0", "vm1", mbps(1), ms(1), "host-host", "wire")


def test_connection_paths_view_and_realize_round_trip():
    topo = FatTree(4, link_delay=ms(2))
    net = FluidNetwork(topo, path_seed=5)
    conn = net.add_connection("h0_0_0", "h3_1_1", "lia", n_subflows=3)
    net.finalize()
    assert conn.n_subflows == len(conn.paths) == len(conn.subflow_ids) == 3
    real = realize(topo, seed=1)
    for sid, path in zip(conn.subflow_ids, conn.paths):
        assert path in topo.paths("h0_0_0", "h3_1_1", 64)
        route = real.route_for(path)
        assert route.hops() == len(path.link_indices)
        assert route.base_rtt() == pytest.approx(net.base_rtt[sid])
        assert route.switch_hops() == net.switch_hops[sid]
        assert net.base_rtt[sid] == path.base_rtt(topo.links)
