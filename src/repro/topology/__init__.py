"""Topology builders for every scenario in the paper.

Packet-level scenarios (built on :class:`repro.net.Network`):

- :mod:`repro.topology.dumbbell` — Fig. 5(a) shared-bottleneck and
  Fig. 5(b) traffic-shifting scenarios;
- :mod:`repro.topology.wireless` — the ns-2 heterogeneous wireless scenario
  (WiFi + 4G) of Fig. 17.

Datacenter-scale topologies (abstract graphs consumed by
:mod:`repro.fluidsim`, with optional realization on the packet engine for
small instances):

- :mod:`repro.topology.fattree` — FatTree(k) (Fig. 11, Fig. 13);
- :mod:`repro.topology.vl2` — VL2 (Fig. 11, Fig. 14);
- :mod:`repro.topology.bcube` — BCube(n, k) (Fig. 11, Fig. 12);
- :mod:`repro.topology.ec2` — the EC2 virtual-private-cloud testbed of
  Fig. 10.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.topology.base import DcTopology, LinkSpec, PathSpec
    from repro.topology.bcube import BCube
    from repro.topology.dumbbell import (
        SharedBottleneckScenario,
        TrafficShiftingScenario,
        build_shared_bottleneck,
        build_traffic_shifting,
    )
    from repro.topology.ec2 import Ec2Cloud
    from repro.topology.fattree import FatTree, fattree24, fattree32
    from repro.topology.vl2 import Vl2
    from repro.topology.wireless import HeterogeneousWirelessScenario, build_wireless

# Resolved on first access (PEP 562): a fluid process asking for a fabric
# does not load the packet scenarios, which import the packet engine.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.topology.base": ("DcTopology", "LinkSpec", "PathSpec"),
    "repro.topology.bcube": ("BCube",),
    "repro.topology.dumbbell": (
        "SharedBottleneckScenario", "TrafficShiftingScenario",
        "build_shared_bottleneck", "build_traffic_shifting",
    ),
    "repro.topology.ec2": ("Ec2Cloud",),
    "repro.topology.fattree": ("FatTree", "fattree24", "fattree32"),
    "repro.topology.vl2": ("Vl2",),
    "repro.topology.wireless": ("HeterogeneousWirelessScenario", "build_wireless"),
})

__all__ = [
    "BCube",
    "DcTopology",
    "Ec2Cloud",
    "FatTree",
    "HeterogeneousWirelessScenario",
    "LinkSpec",
    "PathSpec",
    "SharedBottleneckScenario",
    "TrafficShiftingScenario",
    "Vl2",
    "build_shared_bottleneck",
    "build_traffic_shifting",
    "build_wireless",
    "fattree24",
    "fattree32",
]
