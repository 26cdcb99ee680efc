"""Congestion-control algorithms: kernel baselines plus the paper's DTS.

Each loss-based algorithm states its per-ACK increase — Section IV's
``psi_r`` in the form a sender applies it — once, as a pure function
beside its controller (``reno_increase``, ``ewtcp_increase``,
``coupled_increase``, ``lia_increase``, ``olia_increase``,
``balia_increase``, ``ecmtcp_increase``, ``dts_increase``) taking ``w``,
``rtt`` and the connection aggregates as plain arguments:

1. the per-ACK controller here (what :mod:`repro.net` and the live
   :mod:`repro.transport.server` run) calls it with floats,
2. the batch engine's vector rounds and the fluid adapters
   (:mod:`repro.fluidsim.adapters`, every name but :data:`PACKET_ONLY`)
   call it with arrays.

:mod:`repro.core.model` keeps the ``psi/beta/phi`` decompositions of Eq. 3
as the paper prints them, for the analysis code; ``tests/test_model.py``
compares the rules against them.

Everything here is scalar arithmetic on the standard library (a rule that
needs ``sqrt`` or ``minimum`` takes its namespace ``xp``: ``numpy`` from
an engine, :mod:`repro._scalar` from ``on_ack``), which is what lets a
``repro serve`` process run without numpy (DESIGN.md §8).

Use :func:`create_controller` to instantiate by name: it imports the
controller's module with its first instance, so a process loads only the
controllers it runs (the classes and rules below resolve on first access
too).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Dict, List

from repro._lazy import lazy_exports
from repro.algorithms.base import MIN_CWND, CongestionController
from repro.errors import AlgorithmError

if TYPE_CHECKING:
    from repro.algorithms.balia import BaliaController, balia_increase
    from repro.algorithms.coupled import CoupledController, coupled_increase
    from repro.algorithms.dctcp import DctcpController
    from repro.algorithms.dts import DtsController, ExtendedDtsController, dts_increase
    from repro.algorithms.dwc import DwcController
    from repro.algorithms.ecmtcp import EcmtcpController, ecmtcp_increase
    from repro.algorithms.ewtcp import EwtcpController, ewtcp_increase
    from repro.algorithms.lia import LiaController, lia_increase
    from repro.algorithms.olia import OliaController, olia_increase
    from repro.algorithms.reno import RenoController, reno_increase
    from repro.algorithms.wvegas import WvegasController

# Resolved on first access (PEP 562): a process loads the controllers it
# runs, not all twelve (DESIGN.md §8).
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.algorithms.balia": ("BaliaController", "balia_increase"),
    "repro.algorithms.coupled": ("CoupledController", "coupled_increase"),
    "repro.algorithms.dctcp": ("DctcpController",),
    "repro.algorithms.dts": ("DtsController", "ExtendedDtsController", "dts_increase"),
    "repro.algorithms.dwc": ("DwcController",),
    "repro.algorithms.ecmtcp": ("EcmtcpController", "ecmtcp_increase"),
    "repro.algorithms.ewtcp": ("EwtcpController", "ewtcp_increase"),
    "repro.algorithms.lia": ("LiaController", "lia_increase"),
    "repro.algorithms.olia": ("OliaController", "olia_increase"),
    "repro.algorithms.reno": ("RenoController", "reno_increase"),
    "repro.algorithms.wvegas": ("WvegasController",),
})

#: Registry name -> controller class, read through the exports above, so
#: a controller's module is imported with its first instance.
_REGISTRY: Dict[str, str] = {
    "reno": "RenoController",
    "ewtcp": "EwtcpController",
    "coupled": "CoupledController",
    "lia": "LiaController",
    "olia": "OliaController",
    "balia": "BaliaController",
    "ecmtcp": "EcmtcpController",
    "wvegas": "WvegasController",
    "dctcp": "DctcpController",
    "dts": "DtsController",
    "dts-ext": "ExtendedDtsController",
    "dwc": "DwcController",
}

#: Registry names with no fluid adapter: DWC's congestion grouping is
#: per-packet state.  ``tests/test_fluidsim.py`` holds the fluid registry
#: to exactly the others.
PACKET_ONLY = frozenset({"dwc"})

_ALIASES = {
    "tcp": "reno",
    "newreno": "reno",
    "mptcp": "lia",
    "dts_ext": "dts-ext",
    "edts": "dts-ext",
    "extended-dts": "dts-ext",
}


def algorithm_names() -> List[str]:
    """Canonical registry names, sorted."""
    return sorted(_REGISTRY)


def resolve_algorithm(name: str) -> str:
    """Map a (case-insensitive, possibly aliased) name to its canonical
    registry key, raising :class:`AlgorithmError` for unknown names."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise AlgorithmError(
            f"unknown algorithm {name!r}; known: {', '.join(algorithm_names())}"
        )
    return key


def create_controller(name: str, **kwargs) -> CongestionController:
    """Instantiate a congestion controller by (case-insensitive) name.

    Extra keyword arguments are forwarded to the controller constructor,
    e.g. ``create_controller("dts-ext", kappa=1e-4)``.
    """
    return getattr(sys.modules[__name__], _REGISTRY[resolve_algorithm(name)])(**kwargs)


__all__ = [
    "MIN_CWND",
    "PACKET_ONLY",
    "BaliaController",
    "CongestionController",
    "CoupledController",
    "DctcpController",
    "DtsController",
    "DwcController",
    "EcmtcpController",
    "EwtcpController",
    "ExtendedDtsController",
    "LiaController",
    "OliaController",
    "RenoController",
    "WvegasController",
    "algorithm_names",
    "balia_increase",
    "coupled_increase",
    "create_controller",
    "dts_increase",
    "ecmtcp_increase",
    "ewtcp_increase",
    "lia_increase",
    "olia_increase",
    "reno_increase",
    "resolve_algorithm",
]
