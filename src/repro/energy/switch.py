"""Energy-proportional switch power (Abts et al. ISCA'10; Lin et al. ToN'13).

The paper's Section V.C builds its energy price on "energy proportional
management" — switches whose power tracks utilization. The standard model:

    P_switch = P_chassis + sum_ports [ P_port_idle + (P_port_max - P_port_idle) * u ]

where ``u`` is the port's utilization. Datacenter "energy overhead" in
Figs. 12-15 is the network+host energy divided by delivered goodput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import _scalar
from repro.errors import ConfigurationError


@dataclass
class SwitchPowerModel:
    """Utilization-proportional switch power."""

    chassis_w: float = 30.0
    port_idle_w: float = 0.5
    port_max_w: float = 1.5

    def __post_init__(self) -> None:
        if self.port_max_w < self.port_idle_w:
            raise ConfigurationError(
                f"port_max_w ({self.port_max_w}) < port_idle_w ({self.port_idle_w})"
            )

    def port_power(self, xp, utilization):
        """Per-port power at ``utilization``, clamped to [0, 1], over the
        array namespace ``xp`` (:mod:`repro._scalar` for one port)."""
        u = xp.minimum(1.0, xp.maximum(0.0, utilization))
        return self.port_idle_w + (self.port_max_w - self.port_idle_w) * u

    def power(self, port_utilizations: Sequence[float]) -> float:
        """Whole-switch power given per-port utilizations."""
        return self.chassis_w + sum(
            self.port_power(_scalar, u) for u in port_utilizations)

    def energy(self, port_utilizations: Sequence[float], duration: float) -> float:
        """Joules over ``duration`` seconds at steady utilizations."""
        if duration < 0:
            raise ConfigurationError(f"negative duration {duration}")
        return self.power(port_utilizations) * duration
