"""The EC2 virtual-private-cloud testbed of the paper's Fig. 10.

40 instances, each with four Elastic Network Interfaces at 256 Mbps, each
ENI attached to one of four private subnets — so every host pair has four
disjoint routes, one per subnet. Each subnet is modelled as one non-blocking
virtual switch (an EC2 subnet is an abstraction over the provider fabric);
the 256 Mbps ENI links are the only capacity constraints, matching how the
paper caps each ENI.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.topology.base import DcTopology, PathPick, PathRows
from repro.units import gbps, mbps, ms


class Ec2Cloud(DcTopology):
    """Four-subnet VPC with multihomed instances."""

    def __init__(
        self,
        *,
        n_hosts: int = 40,
        n_subnets: int = 4,
        eni_bps: float = mbps(256),
        fabric_bps: float = gbps(10),
        link_delay: float = ms(0.5),
    ):
        if n_hosts < 2:
            raise ConfigurationError(f"need at least 2 hosts, got {n_hosts}")
        if n_subnets < 1:
            raise ConfigurationError(f"need at least 1 subnet, got {n_subnets}")
        super().__init__()
        self.eni_bps = eni_bps
        self.n_subnets = n_subnets
        self.subnets = [self.add_switch(f"subnet{i}") for i in range(n_subnets)]
        for h in range(n_hosts):
            host = self.add_host(f"vm{h}")
            for s, subnet in enumerate(self.subnets):
                # ENI link: host-limited at eni_bps in both directions.
                self.add_duplex_link(host, subnet, eni_bps, link_delay,
                                     "host-sw", "sw-host")
        self.fabric_bps = fabric_bps

    def _path_rows(self, src_host: str, dst_host: str, limit: int,
                   pick: Optional[PathPick]) -> PathRows:
        return self._rows_of(
            [self.path_from_nodes([src_host, subnet, dst_host])
             for subnet in self.subnets[:limit]], pick)
