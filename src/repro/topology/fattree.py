"""FatTree(k) — Al-Fares et al. SIGCOMM'08 (paper's Fig. 11 left, Fig. 13).

A k-ary fat-tree has k pods; each pod holds k/2 edge and k/2 aggregation
switches; there are (k/2)^2 core switches; each edge switch serves k/2
hosts. With k = 8 this gives 128 hosts and 80 switches — exactly the
paper's "FatTree: 128 hosts, 80 switches, 100 Mbps 100 ms links".

Between hosts in different pods there are (k/2)^2 equal-cost paths (choose
the aggregation switch, then the core switch); within a pod there are k/2
(via aggregation) or 1 (same edge switch).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.topology.base import LINK_KINDS, DcTopology, PathPick, PathRows
from repro.units import mbps, ms

_UP, _DOWN, _SWSW = (LINK_KINDS.index(kind) for kind in ("host-sw", "sw-host", "sw-sw"))


class FatTree(DcTopology):
    """k-ary fat-tree with uniform link capacity and delay.

    Link numbering (what ``add_duplex_link`` produced when the fabric was
    built cable by cable, and what :meth:`_path_rows` computes from): pod
    ``p`` owns ids ``[p * 6h^2, (p + 1) * 6h^2)`` with ``h = k/2``; inside
    it edge switch ``e`` owns ``4h`` ids — host ``j`` up at ``2j``, down at
    ``2j + 1``, then aggregation ``a`` up at ``2h + 2a``, down at
    ``2h + 2a + 1`` — and after the ``h`` edge blocks come the
    aggregation-to-core cables, ``2(a h + c)`` up and ``2(a h + c) + 1``
    down for core ``a h + c``.
    """

    def __init__(
        self,
        k: int = 8,
        *,
        link_bps: float = mbps(100),
        link_delay: float = ms(100),
    ):
        if k < 2 or k % 2 != 0:
            raise ConfigurationError(f"fat-tree arity k must be even and >= 2, got {k}")
        super().__init__()
        self.k = k
        self.link_bps = link_bps
        self.link_delay = link_delay
        half = k // 2

        self.core = [self.add_switch(f"core{i}") for i in range(half * half)]
        self.edge: List[List[str]] = []
        self.agg: List[List[str]] = []
        for pod in range(k):
            self.edge.append([self.add_switch(f"p{pod}e{i}") for i in range(half)])
            self.agg.append([self.add_switch(f"p{pod}a{i}") for i in range(half)])
            for e_i in range(half):
                for h_i in range(half):
                    self.add_host(f"h{pod}_{e_i}_{h_i}")

        # The link table in closed form: node ids broadcast over
        # (pod, edge or agg, host or agg or core, direction).
        pod = np.arange(k)[:, None, None]
        row = np.arange(half)[None, :, None]
        col = np.arange(half)[None, None, :]
        # [pod, edge, 0: host cables | 1: agg cables, j, up | down]
        low = np.empty((k, half, 2, half, 2), dtype=np.int32)
        low[:, :, 0, :, 0] = pod * half * half + row * half + col
        low[:, :, 0, :, 1] = low[:, :, 1, :, 0] = ~(half * half + pod * k + row)
        low[:, :, 1, :, 1] = ~(half * half + pod * k + half + col)
        # [pod, agg, core of the agg's group, up | down]
        high = np.empty((k, half, half, 2), dtype=np.int32)
        high[..., 0] = ~(half * half + pod * k + half + row)
        high[..., 1] = ~(row * half + col)

        def per_pod(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
            return np.hstack([lo.reshape(k, -1), hi.reshape(k, -1)]).ravel()

        self._src = src = per_pod(low, high)
        self._dst = dst = per_pod(low[..., ::-1], high[..., ::-1])
        self._kind = np.where(src >= 0, _UP,
                              np.where(dst >= 0, _DOWN, _SWSW)).astype(np.int8)
        self._capacity = np.full(len(src), float(link_bps))
        self._delay = np.full(len(src), float(link_delay))

    def _path_rows(self, src_host: str, dst_host: str, limit: int,
                   pick: Optional[PathPick]) -> PathRows:
        half = self.k // 2
        sp, se = divmod(self._node_id[src_host], half * half)
        dp, de = divmod(self._node_id[dst_host], half * half)
        se, sh = divmod(se, half)
        de, dh = divmod(de, half)
        pod_links, edge_links = 6 * half * half, 4 * half
        src_edge = sp * pod_links + se * edge_links
        dst_edge = dp * pod_links + de * edge_links
        up, down = src_edge + 2 * sh, dst_edge + 2 * dh + 1
        climb, descend = src_edge + 2 * half, dst_edge + 2 * half + 1
        # Path i climbs to aggregation switch a and, between pods, on to
        # core c, where (a, c) = divmod(i, h): choose agg, then core.
        same_edge = (sp, se) == (dp, de)
        total = 1 if same_edge else half if sp == dp else half * half
        count = min(total, limit)
        chosen = range(count) if pick is None else pick(count)
        if same_edge:
            rows = [(up, down) for _ in chosen]
        elif sp == dp:
            rows = [(up, climb + 2 * a, descend + 2 * a, down) for a in chosen]
        else:
            cross = sp * pod_links + half * edge_links
            recross = dp * pod_links + half * edge_links + 1
            rows = [(up, climb + 2 * (i // half), cross + 2 * i,
                     recross + 2 * i, descend + 2 * (i // half), down)
                    for i in chosen]
        return np.array(rows, dtype=np.int32), [()] * len(rows)


def fattree24(*, link_bps: float = mbps(100), link_delay: float = ms(1)) -> FatTree:
    """City-scale preset: FatTree(24) — 3456 hosts, 720 switches,
    20736 directed links, 144 equal-cost inter-pod paths per host pair.

    The default 1 ms link delay (vs. the paper-replica 100 ms of
    ``FatTree()``) keeps RTTs datacenter-like at this scale.
    """
    return FatTree(24, link_bps=link_bps, link_delay=link_delay)


def fattree32(*, link_bps: float = mbps(100), link_delay: float = ms(1)) -> FatTree:
    """City-scale preset: FatTree(32) — 8192 hosts, 1280 switches,
    49152 directed links, 256 equal-cost inter-pod paths per host pair."""
    return FatTree(32, link_bps=link_bps, link_delay=link_delay)
