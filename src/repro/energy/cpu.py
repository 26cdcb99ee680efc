"""Host CPU power models — the RAPL substitute.

The models below are analytic fits to the *published shapes* of the paper's
own RAPL measurements (see :mod:`repro.energy` for the inventory). The key
structural choice follows Eq. (2): a host running an MPTCP connection over
paths r = 1..n draws

    P_host = P_idle + sum_r P_path(tau_r, RTT_r) + c_subflow * (n - 1)

with each per-path term increasing in both its throughput and its RTT.
Because the wired per-path term is *concave* in throughput, splitting a
fixed aggregate rate across more paths strictly increases power — which is
precisely the paper's Fig. 1 observation that MPTCP out-consumes TCP.

Calibration (documented in DESIGN.md):

- Wired: ``P_path = k * (tau_Mbps)^0.7``; with ``P_idle = 20 W`` and
  ``k = 0.038`` the host total rises 15.0% from 200 to 1000 Mbps, matching
  Fig. 3(a)'s "about 15% power increase". The exponent keeps the curve
  visibly non-linear (as Fig. 3(a) shows) while staying close enough to
  linear that per-packet CPU cost is not wildly cheaper at high rates.
- Wireless: ``P_path = base + slope * tau_Mbps``; with ``base = 0.2 W``,
  ``slope = 0.0218 W/Mbps`` and the wireless host's idle + two-subflow
  overhead (0.75 W constant total) the measured host power rises 90% from
  10 to 50 Mbps aggregate, matching Fig. 3(b)'s "up to 90%".
- RTT factor: the per-path term is multiplied by
  ``1 + eta * max(0, RTT/RTT_ref - 1)`` (``eta = 0.3``,
  ``RTT_ref = 50 ms``), reproducing Fig. 4's higher power on high-delay
  paths at equal throughput.
- Subflow overhead: ``c_subflow = 1.2 W`` per extra subflow (Fig. 1's rise
  with the ``num_subflows`` sysctl).

Each per-path formula is written once over an array namespace ``xp``
(:mod:`repro._scalar` for one path on the standard library, ``numpy`` when
the fluid engine prices every subflow at once).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro import _scalar
from repro.errors import ConfigurationError
from repro.units import to_mbps


class PathPowerModel(ABC):
    """Marginal (above idle) power drawn by serving one path's traffic."""

    @abstractmethod
    def marginal_power(self, xp, throughput_bps):
        """Watts attributable to ``throughput_bps`` on this path, at the
        reference RTT, over the namespace ``xp``."""

    rtt_coefficient: float = 0.3
    rtt_reference: float = 0.050

    def path_power(self, xp, throughput_bps, rtt):
        """Per-path power P_r(tau_r, RTT_r) of Eq. (2), in watts, over ``xp``."""
        rtt_factor = 1.0 + self.rtt_coefficient * xp.maximum(
            0.0, rtt / self.rtt_reference - 1.0)
        return self.marginal_power(xp, throughput_bps) * rtt_factor

    def power(self, throughput_bps: float, rtt: float) -> float:
        """:meth:`path_power` for one path, inputs validated."""
        if throughput_bps < 0:
            raise ConfigurationError(f"negative throughput {throughput_bps}")
        if rtt < 0:
            raise ConfigurationError(f"negative RTT {rtt}")
        return self.path_power(_scalar, throughput_bps, rtt)


@dataclass
class WiredPathPower(PathPowerModel):
    """Concave wired-Ethernet per-path power: ``k * tau_Mbps^exponent``."""

    k: float = 0.038
    exponent: float = 0.7
    rtt_coefficient: float = 0.3
    rtt_reference: float = 0.050

    def marginal_power(self, xp, throughput_bps):
        return self.k * xp.power(xp.maximum(to_mbps(throughput_bps), 0.0), self.exponent)


@dataclass
class WirelessPathPower(PathPowerModel):
    """Linear radio per-path power: ``base * duty + slope * tau_Mbps``.

    The base (radio-active) term is scaled by a duty-cycle factor
    ``min(1, tau / duty_cycle_scale)``: below a couple of Mbps the radio
    spends most of its time in DRX/PSM sleep between packets, so a
    near-idle subflow does not pay the full active-radio floor. This is
    what makes *abandoning* an expensive path (the extended-DTS phi
    behaviour) save real energy, exactly as the LTE tail/idle states of
    Huang et al. do on real phones.
    """

    base_w: float = 0.2
    slope_w_per_mbps: float = 0.0218
    rtt_coefficient: float = 0.3
    rtt_reference: float = 0.050
    duty_cycle_scale_mbps: float = 2.0

    def marginal_power(self, xp, throughput_bps):
        tau = to_mbps(throughput_bps)
        duty = xp.minimum(1.0, tau / self.duty_cycle_scale_mbps)
        return xp.where(tau > 0, self.base_w * duty + self.slope_w_per_mbps * tau, 0.0)


@dataclass
class HostPowerModel:
    """Whole-host CPU power: idle + per-path terms + per-subflow overhead."""

    path_model: PathPowerModel
    idle_w: float = 20.0
    subflow_overhead_w: float = 1.2

    def power(
        self,
        paths: Sequence[Tuple[float, float]],
        *,
        n_subflows: int | None = None,
    ) -> float:
        """Host power in watts.

        Parameters
        ----------
        paths:
            One ``(throughput_bps, rtt_seconds)`` pair per active path.
        n_subflows:
            Total subflow count if it differs from ``len(paths)`` (the
            paper's ``num_subflows`` sysctl multiplies subflows per path).
        """
        n = n_subflows if n_subflows is not None else len(paths)
        per_path = sum(self.path_model.power(tau, rtt) for tau, rtt in paths)
        return self.idle_w + per_path + self.subflow_overhead_w * max(0, n - 1)


def default_wired_host() -> HostPowerModel:
    """The i7-3770-class wired host used by Figs. 1, 3(a), 4, 6."""
    return HostPowerModel(path_model=WiredPathPower(), idle_w=20.0, subflow_overhead_w=1.2)


def default_wireless_host() -> HostPowerModel:
    """The WiFi host used by Fig. 3(b); the small idle term reflects that
    the paper's WiFi readings are marginal radio+CPU power."""
    return HostPowerModel(path_model=WirelessPathPower(), idle_w=0.2, subflow_overhead_w=0.15)
