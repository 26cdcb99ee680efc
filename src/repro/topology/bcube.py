"""BCube(n, k) — Guo et al. SIGCOMM'09 (paper's Fig. 11 right, Fig. 12).

Server-centric: hosts are labelled with k+1 base-n digits; a level-l switch
connects the n hosts that agree on every digit except digit l. There are
n^(k+1) hosts and (k+1) * n^k switches, every host has k+1 NICs, and — the
property the paper's Fig. 12 exploits — hosts *relay* traffic, so adding
subflows keeps finding fresh disjoint capacity instead of piling onto a
hierarchical core.

The paper quotes "BCube: 128 hosts, 64 switches"; no exact BCube(n, k)
has that shape, so the default here is BCube(8, 1) (64 hosts, 16 switches,
the same two-level structure) and experiments scale host counts — the
subflow-vs-energy trend is what is reproduced (see DESIGN.md).

Path construction follows the BCube paper's BuildPathSet: for each level
permutation we correct one digit per hop (via that level's switch, through
relay hosts), and additional parallel paths detour through a neighbour
value of the first corrected digit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.topology.base import DcTopology, PathPick, PathRows, PathSpec
from repro.units import mbps, ms


class BCube(DcTopology):
    """BCube(n, k): n-port switches, k+1 levels."""

    def __init__(
        self,
        n: int = 8,
        k: int = 1,
        *,
        link_bps: float = mbps(100),
        link_delay: float = ms(100),
    ):
        if n < 2:
            raise ConfigurationError(f"BCube port count n must be >= 2, got {n}")
        if k < 0:
            raise ConfigurationError(f"BCube level k must be >= 0, got {k}")
        super().__init__()
        self.n = n
        self.k = k
        self.link_bps = link_bps
        self.link_delay = link_delay
        self.n_hosts = n ** (k + 1)

        self._host_name = {}
        for hid in range(self.n_hosts):
            digits = self._digits(hid)
            name = self.add_host("b" + "".join(str(d) for d in digits))
            self._host_name[digits] = name

        # Level-l switch <l, j> connects hosts whose digits equal j except
        # at position l (digit positions counted from the most significant).
        for level in range(k + 1):
            for j in range(n**k):
                sw = self.add_switch(f"sw{level}_{j}")
                rest = self._digits_base(j, k)
                for v in range(n):
                    digits = rest[:level] + (v,) + rest[level:]
                    self.add_duplex_link(
                        self._host_name[digits], sw, link_bps, link_delay,
                        "host-sw", "sw-host",
                    )

    # --------------------------------------------------------------- helpers

    def _digits(self, hid: int) -> Tuple[int, ...]:
        return self._digits_base(hid, self.k + 1)

    def _digits_base(self, value: int, width: int) -> Tuple[int, ...]:
        out = []
        for _ in range(width):
            out.append(value % self.n)
            value //= self.n
        return tuple(reversed(out))

    def _switch_for(self, digits: Sequence[int], level: int) -> str:
        rest = tuple(digits[:level]) + tuple(digits[level + 1:])
        j = 0
        for d in rest:
            j = j * self.n + d
        return f"sw{level}_{j}"

    def host_digits(self, name: str) -> Tuple[int, ...]:
        """Digit label of a host name produced by this topology."""
        return tuple(int(c) for c in name[1:])

    def _route_correcting(
        self, src: Tuple[int, ...], dst: Tuple[int, ...], order: Sequence[int]
    ) -> Tuple[List[str], List[str]]:
        """Walk from src to dst correcting digits in ``order``; returns
        (node sequence, relay hosts)."""
        nodes = [self._host_name[src]]
        relays: List[str] = []
        cur = list(src)
        for level in order:
            if cur[level] == dst[level]:
                continue
            nodes.append(self._switch_for(cur, level))
            cur[level] = dst[level]
            nxt = self._host_name[tuple(cur)]
            nodes.append(nxt)
            if tuple(cur) != dst:
                relays.append(nxt)
        return nodes, relays

    # -------------------------------------------------------------- interface

    def _path_rows(self, src_host: str, dst_host: str, limit: int,
                   pick: Optional[PathPick]) -> PathRows:
        return self._rows_of(self._candidates(src_host, dst_host, limit), pick)

    def _candidates(self, src_host: str, dst_host: str, max_paths: int) -> List[PathSpec]:
        src = self.host_digits(src_host)
        dst = self.host_digits(dst_host)
        levels = list(range(self.k + 1))
        differing = [l for l in levels if src[l] != dst[l]]
        out: List[PathSpec] = []
        seen = set()

        def emit(nodes: List[str], relays: List[str]) -> bool:
            key = tuple(nodes)
            if key in seen:
                return False
            seen.add(key)
            out.append(self.path_from_nodes(nodes, relays))
            return len(out) >= max_paths

        # 1. Digit-permutation paths (node-disjoint for distinct first digit).
        for start in range(len(differing)):
            order = differing[start:] + differing[:start]
            nodes, relays = self._route_correcting(src, dst, order)
            if emit(nodes, relays):
                return out

        # 2. Detour paths: first hop to a neighbour value at some level,
        #    then correct everything (BCube's extra parallel paths through
        #    relay servers).
        for level in levels:
            for v in range(self.n):
                if v == src[level] or v == dst[level]:
                    continue
                detour = list(src)
                detour[level] = v
                first_nodes = [
                    self._host_name[src],
                    self._switch_for(src, level),
                    self._host_name[tuple(detour)],
                ]
                order = [l for l in levels if tuple(detour)[l] != dst[l]]
                # Correct 'level' last so the detour is not undone early.
                order = [l for l in order if l != level] + ([level] if detour[level] != dst[level] else [])
                rest_nodes, rest_relays = self._route_correcting(tuple(detour), dst, order)
                nodes = first_nodes + rest_nodes[1:]
                relays = [self._host_name[tuple(detour)]] + rest_relays
                if emit(nodes, relays):
                    return out
        return out
