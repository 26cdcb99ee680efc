"""Reproduction of "On Energy-Efficient Congestion Control for Multipath TCP"
(Zhao, Liu & Wang, IEEE ICDCS 2017).

The package provides:

- :mod:`repro.net` — a packet-level discrete-event simulator with full TCP
  machinery and an MPTCP connection layer (the Linux-kernel-testbed and
  ns-2 substitute);
- :mod:`repro.algorithms` — LIA, OLIA, Balia, ecMTCP, wVegas, EWTCP,
  Coupled, Reno, DCTCP, and the paper's DTS / extended-DTS;
- :mod:`repro.core` — the paper's analytical model (Eq. 3), its Section IV
  decompositions, the Condition 1/2 checkers, the DTS factor (Eq. 5 /
  Algorithm 1), and the energy price (Eqs. 6-9);
- :mod:`repro.fluidsim` — a vectorized window-dynamics simulator for
  datacenter-scale runs (the htsim substitute);
- :mod:`repro.topology` — dumbbell, heterogeneous wireless, FatTree, VL2,
  BCube and EC2 topologies;
- :mod:`repro.energy` — host CPU, phone radio and switch power models plus
  the Eq. 2 energy accounting;
- :mod:`repro.experiments` — one runnable module per figure of the paper.

Quickstart::

    from repro import Network, mbps, ms, mb

    net = Network(seed=1)
    a, b = net.add_host("a"), net.add_host("b")
    s1, s2 = net.add_switch("s1"), net.add_switch("s2")
    for s in (s1, s2):
        net.link(a, s, rate_bps=mbps(100), delay=ms(5))
        net.link(s, b, rate_bps=mbps(100), delay=ms(5))
    conn = net.connection(
        [net.route([a, s1, b]), net.route([a, s2, b])],
        "dts",
        total_bytes=mb(16),
    )
    conn.start()
    net.run_until_complete([conn])
    print(conn.aggregate_goodput_bps() / 1e6, "Mbps")
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.errors import (
    AlgorithmError,
    ConfigurationError,
    ModelError,
    ReproError,
    RoutingError,
    SimulationError,
)
from repro.units import gb, gbps, kib, mb, mbps, mib, ms

if TYPE_CHECKING:
    from repro.algorithms import algorithm_names, create_controller
    from repro.net import MptcpConnection, Network

__version__ = "1.0.0"

# The numpy-tier names resolve on first access (PEP 562), so ``import
# repro`` alone stays stdlib-only: ``python -m repro --help`` and
# ``repro.transport.wire`` do not load the simulators (DESIGN.md,
# "Start-up cost and import tiers").  errors/units are stdlib and eager.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.algorithms": ("algorithm_names", "create_controller"),
    "repro.net": ("MptcpConnection", "Network"),
})

__all__ = [
    "AlgorithmError",
    "ConfigurationError",
    "ModelError",
    "MptcpConnection",
    "Network",
    "ReproError",
    "RoutingError",
    "SimulationError",
    "__version__",
    "algorithm_names",
    "create_controller",
    "gb",
    "gbps",
    "kib",
    "mb",
    "mbps",
    "mib",
    "ms",
]
