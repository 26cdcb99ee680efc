"""DTS and extended DTS — the paper's proposed algorithms (Section V).

**DTS** (Delay-based Traffic Shifting) takes the Pareto-optimal coupled
increase (Section IV's simplified OLIA, ``psi_r = 1``) and scales it by the
delay factor of Eq. (5), ``psi_r = c * eps_r``:

    per ACK on r:  w_r += c * eps_r * (w_r/RTT_r^2) / (sum_k w_k/RTT_k)^2
    per loss on r: w_r /= 2

(Algorithm 1 in the paper). With ``c = 1`` the expectation E[eps] = 1 keeps
the TCP-friendliness condition (Condition 1) satisfied on average while
freezing growth on delay-inflated paths and accelerating it on recovering
ones.

**Extended DTS** adds the compensative parameter of Section V.C: the
energy price ``phi_r = kappa * x_r^2 * dU_ep/dx_r`` derived from the
energy-proportional utility U_ep (Eq. 6), yielding the fluid model of
Eq. (9). At the sender this becomes a per-ACK window drain

    w_r -= kappa * price_r * w_r

where ``price_r = rho * (switch-switch hops of path r) + gamma * 1{q_r > Q}``
approximates ``dU_ep/dx_r``: the linear-energy term contributes ``rho`` per
aggregation/core link the path crosses, and the queue-excess term
``(Q_l - Q)^+`` is sensed end-to-end through the queueing delay
``q_r = RTT_r - baseRTT_r`` exceeding a threshold.

The increase is :func:`dts_increase` and the price
:func:`repro.core.energy_price.path_price`, each written once: ``on_ack``
calls them with floats, the batch engine's vector rounds and the fluid
adapter with arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro import _scalar
from repro.algorithms.base import MIN_CWND, CongestionController
from repro.algorithms.olia import olia_coupled_term
from repro.core.dts import DtsFactorConfig
from repro.core.energy_price import EnergyPriceConfig, path_price

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import TcpSender


def dts_increase(w, rtt, psi, total_rate):
    """The per-ACK increase ``psi * (w/RTT^2) / (sum_k x_k)^2``.

    Plain arithmetic, so floats and arrays take the same body and one
    array lane is bit-identical to one :meth:`DtsController.on_ack`.
    """
    return psi * olia_coupled_term(w, rtt, total_rate)


class DtsController(CongestionController):
    """Delay-based Traffic Shifting (Algorithm 1)."""

    name: ClassVar[str] = "dts"

    def __init__(self, c: float = 1.0, factor: DtsFactorConfig = DtsFactorConfig()):
        super().__init__()
        self.c = c
        self.factor = factor

    def epsilon(self, sf: "TcpSender") -> float:
        """Eq. (5) for subflow ``sf`` at its current RTT state."""
        rtt = sf.latest_rtt if sf.latest_rtt is not None else sf.rtt
        return self.factor.epsilon(sf.base_rtt, rtt)

    def psi(self, sf: "TcpSender") -> float:
        """The traffic-shifting parameter psi_r = c * eps_r."""
        return self.c * self.epsilon(sf)

    def on_ack(self, sf: "TcpSender") -> None:
        sf.cwnd += dts_increase(sf.cwnd, sf.rtt, self.psi(sf), self.total_rate())

    def on_loss(self, sf: "TcpSender") -> None:
        sf.cwnd = max(MIN_CWND, sf.cwnd / 2)


class ExtendedDtsController(DtsController):
    """DTS plus the energy-price compensative term phi_r (Eqs. 6-9)."""

    name: ClassVar[str] = "dts-ext"

    def __init__(self, c: float = 1.0, factor: DtsFactorConfig = DtsFactorConfig(),
                 **price: float):
        super().__init__(c, factor)
        #: ``kappa``, ``rho``, ``gamma``, ... — :class:`EnergyPriceConfig`'s fields.
        self.price_config = EnergyPriceConfig(**price)

    def price(self, sf: "TcpSender") -> float:
        """The end-to-end estimate of dU_ep/dx_r for subflow ``sf``."""
        rtt = sf.latest_rtt if sf.latest_rtt is not None else sf.rtt
        base = sf.base_rtt if sf.base_rtt != float("inf") else rtt
        return path_price(_scalar, self.price_config, sf.route.switch_hops(),
                          max(0.0, rtt - base), base)

    def on_ack(self, sf: "TcpSender") -> None:
        super().on_ack(sf)
        drain = self.price_config.kappa * self.price(sf) * sf.cwnd
        sf.cwnd = max(MIN_CWND, sf.cwnd - drain)
