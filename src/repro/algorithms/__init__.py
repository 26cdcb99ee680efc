"""Congestion-control algorithms: kernel baselines plus the paper's DTS.

Every algorithm but DWC (:data:`PACKET_ONLY`) exists in two coordinated
forms that resolve names through this module's registry and aliases:

1. a packet-level per-ACK controller in this subpackage (used by
   :mod:`repro.net` and by the live :mod:`repro.transport.server`), and
2. a vectorized fluid adapter in :mod:`repro.fluidsim.adapters` (what
   :mod:`repro.fluidsim` steps).

:mod:`repro.core.model` states the same rules a third time, as the
``psi/beta/phi`` decompositions of Eq. 3 the analysis code integrates;
``tests/test_model.py`` holds the three to one per-ACK increase.

Everything here is scalar arithmetic on the standard library: a
controller is a handful of float operations per ACK, which is what lets a
``repro serve`` process run without numpy (DESIGN.md §8).  The batch
engine's vector rounds call the same ``dts_increase`` / ``lia_increase``
bodies on arrays.

Use :func:`create_controller` to instantiate by name.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.algorithms.balia import BaliaController
from repro.algorithms.base import MIN_CWND, CongestionController
from repro.algorithms.coupled import CoupledController
from repro.algorithms.dctcp import DctcpController
from repro.algorithms.dts import DtsController, ExtendedDtsController
from repro.algorithms.dwc import DwcController
from repro.algorithms.ecmtcp import EcmtcpController
from repro.algorithms.ewtcp import EwtcpController
from repro.algorithms.lia import LiaController
from repro.algorithms.olia import OliaController
from repro.algorithms.reno import RenoController
from repro.algorithms.wvegas import WvegasController
from repro.errors import AlgorithmError

_REGISTRY: Dict[str, Callable[..., CongestionController]] = {
    "reno": RenoController,
    "ewtcp": EwtcpController,
    "coupled": CoupledController,
    "lia": LiaController,
    "olia": OliaController,
    "balia": BaliaController,
    "ecmtcp": EcmtcpController,
    "wvegas": WvegasController,
    "dctcp": DctcpController,
    "dts": DtsController,
    "dts-ext": ExtendedDtsController,
    "dwc": DwcController,
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
    return _REGISTRY[resolve_algorithm(name)](**kwargs)


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
    "create_controller",
    "resolve_algorithm",
]
