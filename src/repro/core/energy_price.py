"""The energy-proportional price of Section V.C (Eqs. 6-9).

The utility the network operator minimizes:

    U_ep = sum_{l' in L'} (Q_l' - Q)^+ + rho * sum_{l' in L'} y_l'     (Eq. 6)

(L' = switch-to-switch links, Q_l' their queue sizes, Q the target queue,
rho the bottleneck energy cost per unit traffic). Adding ``-kappa_s U_ep``
to the user utility (Eq. 7) and differentiating yields the compensative
parameter of Eq. (3):

    phi_r = kappa_s * x_r^2 * dU_ep/dx_r                              (Eq. 7)

with, along path r,

    dU_ep/dx_r = sum_{l' in r ∩ L'} [ 1{Q_l' > Q} * dQ_l'/dx_r + rho ]
               ~ (number of over-target queues on r) + rho * |r ∩ L'|

which plugs into the extended fluid model of Eq. (9):

    dx_r/dt = c eps_r x_r^2/(RTT_r^2 (sum x)^2) - (1/2) p_r x_r^2 - phi_r.

:class:`EnergyPriceConfig` is the one parameter record and
:func:`path_price` the one price both ``dts-ext`` forms (the per-ACK
controller, the fluid adapter) evaluate.  Standard library only: the
functions below are plain arithmetic, so they take floats and arrays alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ModelError


@dataclass(frozen=True)
class EnergyPriceConfig:
    """Parameters of the Eq. (6)-(9) energy price."""

    #: Weight kappa_s of the price in the user utility (Eq. 7).
    kappa: float = 5e-5
    #: Bottleneck energy cost per unit traffic, rho (Eq. 6).
    rho: float = 1.0
    #: Weight of the queue-excess indicator term.
    gamma: float = 2.0
    #: Target queue size Q, expressed as a queueing-delay threshold when the
    #: sender can only sense queues end-to-end (seconds).
    queue_delay_threshold: float = 0.01
    #: Weight of the per-path delay cost, and the base RTT (seconds) above
    #: which a path starts paying it.
    delay_cost_weight: float = 1.0
    delay_cost_reference: float = 0.05

    def __post_init__(self) -> None:
        if self.kappa < 0 or self.rho < 0 or self.gamma < 0:
            raise ModelError("kappa, rho and gamma must be non-negative")


def utility_ep(
    queue_sizes: Sequence[float],
    target_queue: float,
    traffic: Sequence[float],
    rho: float,
) -> float:
    """Evaluate U_ep (Eq. 6) over the switch-to-switch links."""
    if len(queue_sizes) != len(traffic):
        raise ModelError("queue_sizes and traffic must align")
    excess = sum(max(q - target_queue, 0.0) for q in queue_sizes)
    return float(excess + rho * sum(traffic))


def price_gradient(over_target_count, switch_hops, config: EnergyPriceConfig):
    """dU_ep/dx_r per path: congested-queue count plus rho * hop count."""
    return config.gamma * over_target_count + config.rho * switch_hops


def path_price(xp, config: EnergyPriceConfig, switch_hops, queueing, base_rtt):
    """dU_ep/dx_r as a sender can estimate it end to end, over ``xp``.

    :func:`price_gradient` with the queue-excess term ``(Q_l - Q)^+``
    sensed as the path's queueing delay (``RTT_r - baseRTT_r``, seconds)
    exceeding the threshold, plus a per-path delay cost — Section III
    establishes that the per-unit-traffic power ``P_r`` rises with
    ``RTT_r`` (Fig. 4), so the energy price of a unit of traffic on a
    long-delay path is intrinsically higher.
    """
    congested = queueing > config.queue_delay_threshold
    delay_cost = xp.maximum(0.0, base_rtt / config.delay_cost_reference - 1.0)
    return (price_gradient(congested, switch_hops, config)
            + config.delay_cost_weight * delay_cost)


def phi(x, over_target_count, switch_hops, config: EnergyPriceConfig):
    """The compensative parameter phi_r = kappa x_r^2 dU_ep/dx_r (Eq. 7)."""
    return config.kappa * x * x * price_gradient(over_target_count, switch_hops, config)


def per_ack_window_drain(w, over_target_count, switch_hops, config: EnergyPriceConfig):
    """phi_r translated to a per-ACK window decrement: kappa * price * w_r.

    Derivation: a per-ACK window change ``d`` contributes ``d * x_r / RTT_r``
    to dx_r/dt; equating to ``-phi_r`` with x = w/RTT gives
    ``d = -kappa * price * w_r``.
    """
    return config.kappa * price_gradient(over_target_count, switch_hops, config) * w
