"""Vectorized fluid forms of every congestion-control algorithm.

Each adapter exposes the same three quantities the packet-level controllers
implement, but over whole arrays of subflows (see
:class:`repro.fluidsim.state.CohortState`):

- :meth:`per_ack_increase` — the congestion-avoidance increase per ACK
  (segments), i.e. ``psi_r * w_r / (RTT_r^2 (sum_k x_k)^2)`` with the
  algorithm's Section IV decomposition ``psi_r``;
- :meth:`loss_decrease_factor` — the multiplicative window factor applied
  on a loss event (``1 - beta``, 0.5 for most algorithms);
- :meth:`rate_adjustment` — optional extra ``dw`` per step for dynamics
  that are not per-ACK-increase shaped (wVegas' per-RTT delay steps,
  DCTCP's proportional ECN drain, extended DTS' energy-price drain phi_r).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List

import numpy as np

from repro.algorithms import resolve_algorithm
from repro.core.dts import DtsFactorConfig, dts_factor
from repro.core.energy_price import EnergyPriceConfig, path_price
from repro.core.model import coupled_base
from repro.errors import AlgorithmError
from repro.fluidsim.state import CohortState

_EPS = 1e-12


class FluidAlgorithm(ABC):
    """Vectorized window dynamics for one cohort of subflows."""

    name = "base"
    #: Whether this algorithm reacts to ECN marks instead of (only) loss.
    uses_ecn = False

    @abstractmethod
    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        """Window increase per ACK, in segments (array over subflows)."""

    def loss_decrease_factor(self, st: CohortState) -> np.ndarray:
        """Multiplicative factor applied to w on a loss event (default 1/2)."""
        return np.full_like(st.w, 0.5)

    def rate_adjustment(self, st: CohortState, dt: float) -> np.ndarray:
        """Additional dw for this step (default none)."""
        return np.zeros_like(st.w)

    def _coupled_base(self, st: CohortState) -> np.ndarray:
        """The shared OLIA-style coupled term w_r/(RTT_r^2 (sum x)^2)."""
        return coupled_base(st.w, st.rtt, st.user_sum(st.x_pkts))


class FluidReno(FluidAlgorithm):
    """Uncoupled AIMD on every subflow."""

    name = "reno"

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        return 1.0 / np.maximum(st.w, 1.0)


class FluidEwtcp(FluidAlgorithm):
    """Equally-weighted Reno: a = 1/sqrt(n)."""

    name = "ewtcp"

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        return 1.0 / (np.sqrt(st.user_count()) * np.maximum(st.w, 1.0))


class FluidCoupled(FluidAlgorithm):
    """Fully coupled: w_r / (sum w)^2 with a total-window halving."""

    name = "coupled"

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        total_w = st.user_sum(st.w)
        return st.w / (total_w * total_w + _EPS)

    def loss_decrease_factor(self, st: CohortState) -> np.ndarray:
        # Decrease sum(w)/2 applied to the losing subflow, expressed as a
        # factor of that subflow's own window (floored at 0.1 of it).
        total_w = st.user_sum(st.w)
        return np.clip(1.0 - total_w / (2.0 * np.maximum(st.w, _EPS)), 0.1, 1.0)


class FluidLia(FluidAlgorithm):
    """RFC 6356 linked increases with the 1/w TCP-friendliness cap."""

    name = "lia"

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        best = st.user_max(st.w / (st.rtt * st.rtt))
        total_x = st.user_sum(st.x_pkts)
        coupled = best / (total_x * total_x + _EPS)
        return np.minimum(coupled, 1.0 / np.maximum(st.w, 1.0))


class FluidOlia(FluidAlgorithm):
    """OLIA: psi = 1 coupled term plus the opportunistic alpha_r term.

    Path quality uses the fluid loss rates directly: l_r ~ 1/loss_r, so
    quality = l_r^2/RTT_r ~ 1/(loss_r^2 RTT_r).
    """

    name = "olia"

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        increase = self._coupled_base(st)
        n = st.user_count()
        multi = n > 1.5
        if np.any(multi):
            quality = 1.0 / ((st.loss + 1e-6) ** 2 * st.rtt)
            is_best = quality >= st.user_max(quality) * (1 - 1e-9)
            is_max_w = st.w >= st.user_max(st.w) * (1 - 1e-9)
            collected = is_best & ~is_max_w
            n_collected = st.user_sum(collected.astype(float))
            n_max = st.user_sum(is_max_w.astype(float))
            alpha = np.zeros_like(st.w)
            has_collected = n_collected > 0
            sel_up = collected & has_collected & multi
            alpha[sel_up] = 1.0 / (n[sel_up] * n_collected[sel_up])
            sel_down = is_max_w & has_collected & multi
            alpha[sel_down] -= 1.0 / (n[sel_down] * n_max[sel_down])
            increase = increase + alpha / np.maximum(st.w, 1.0)
        return increase


class FluidBalia(FluidAlgorithm):
    """Balia: psi = ((1+a)/2)((4+a)/5), decrease min(a, 3/2)/2."""

    name = "balia"

    def _alpha(self, st: CohortState) -> np.ndarray:
        x = st.x_pkts
        return st.user_max(x) / np.maximum(x, _EPS)

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        a = self._alpha(st)
        psi = ((1.0 + a) / 2.0) * ((4.0 + a) / 5.0)
        return psi * self._coupled_base(st)

    def loss_decrease_factor(self, st: CohortState) -> np.ndarray:
        a = self._alpha(st)
        return 1.0 - np.minimum(a, 1.5) / 2.0


class FluidEcmtcp(FluidAlgorithm):
    """ecMTCP: delta_r = RTT_r / (n * min RTT * sum w)."""

    name = "ecmtcp"

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        n = st.user_count()
        min_rtt = st.user_min(st.rtt)
        total_w = st.user_sum(st.w)
        return st.rtt / (n * min_rtt * total_w + _EPS)


class FluidWvegas(FluidAlgorithm):
    """wVegas: per-RTT +-1 packet steering by queueing-delay backlog."""

    name = "wvegas"

    def __init__(self, total_alpha: float = 10.0):
        self.total_alpha = total_alpha

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        return np.zeros_like(st.w)  # all dynamics live in rate_adjustment

    def rate_adjustment(self, st: CohortState, dt: float) -> np.ndarray:
        diff = st.w * st.queueing / st.rtt  # segments queued in the network
        share = st.x_pkts / np.maximum(st.user_sum(st.x_pkts), _EPS)
        target = np.maximum(1.0, self.total_alpha * share)
        step = np.where(diff < target, 1.0, np.where(diff > target, -1.0, 0.0))
        return step * dt / st.rtt  # +-1 segment per RTT


class FluidDctcp(FluidAlgorithm):
    """DCTCP: Reno increase, ECN-proportional drain alpha/2 per RTT."""

    name = "dctcp"
    uses_ecn = True

    def __init__(self, gain: float = 1.0 / 16.0):
        self.gain = gain
        self._alpha: np.ndarray | None = None

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        return 1.0 / np.maximum(st.w, 1.0)

    def rate_adjustment(self, st: CohortState, dt: float) -> np.ndarray:
        if self._alpha is None or self._alpha.shape != st.w.shape:
            self._alpha = np.zeros_like(st.w)
        # EWMA of the marked fraction, updated once per RTT on average.
        blend = np.clip(self.gain * dt / st.rtt, 0.0, 1.0)
        self._alpha = (1 - blend) * self._alpha + blend * st.ecn_marked
        # Window cut alpha/2 once per RTT while marks persist.
        drain = -st.w * self._alpha / 2.0 * (dt / st.rtt)
        return np.where(st.ecn_marked > 0, drain, 0.0)


class FluidDts(FluidAlgorithm):
    """DTS: psi = c * eps(baseRTT/RTT) on the Pareto-optimal coupled term."""

    name = "dts"

    def __init__(self, c: float = 1.0, factor: DtsFactorConfig = DtsFactorConfig()):
        self.c = c
        self.factor = factor

    def epsilon(self, st: CohortState) -> np.ndarray:
        """Eq. (5) over the cohort."""
        f = self.factor
        return dts_factor(np, st.base_rtt, st.rtt, f.slope, f.center, f.ceiling)

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        return self.c * self.epsilon(st) * self._coupled_base(st)


class FluidExtendedDts(FluidDts):
    """Extended DTS: adds the energy-price drain phi_r of Eq. (9).

    In the fluid engine the price uses the *actual* queue and hop
    information (Eq. 6's U_ep), not the end-to-end estimate the packet
    controller must fall back on: dU_ep/dx_r = rho * switch_hops_r +
    (number of over-target queues on the path, sensed via queueing delay).
    """

    name = "dts-ext"

    def __init__(self, c: float = 1.0, factor: DtsFactorConfig = DtsFactorConfig(),
                 **price: float):
        super().__init__(c, factor)
        #: ``kappa``, ``rho``, ``gamma``, ... — :class:`EnergyPriceConfig`'s fields.
        self.price_config = EnergyPriceConfig(**price)

    def price(self, st: CohortState) -> np.ndarray:
        """dU_ep/dx_r for every subflow."""
        return path_price(np, self.price_config, st.switch_hops, st.queueing,
                          st.base_rtt)

    def rate_adjustment(self, st: CohortState, dt: float) -> np.ndarray:
        # phi_r = kappa x^2 dU/dx in rate units; as a window drain this is
        # kappa * price * w per ACK, at x_pkts ACKs per second.
        return -self.price_config.kappa * self.price(st) * st.w * st.x_pkts * dt


_REGISTRY: Dict[str, Callable[..., FluidAlgorithm]] = {
    "reno": FluidReno,
    "ewtcp": FluidEwtcp,
    "coupled": FluidCoupled,
    "lia": FluidLia,
    "olia": FluidOlia,
    "balia": FluidBalia,
    "ecmtcp": FluidEcmtcp,
    "wvegas": FluidWvegas,
    "dctcp": FluidDctcp,
    "dts": FluidDts,
    "dts-ext": FluidExtendedDts,
}


def fluid_algorithm_names() -> List[str]:
    """Canonical fluid-adapter names, sorted."""
    return sorted(_REGISTRY)


def create_fluid_algorithm(name: str, **kwargs) -> FluidAlgorithm:
    """Instantiate a fluid adapter by name; names and aliases are
    :func:`repro.algorithms.resolve_algorithm`'s."""
    key = resolve_algorithm(name)
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise AlgorithmError(
            f"algorithm {key!r} has no fluid form; "
            f"known: {', '.join(fluid_algorithm_names())}"
        ) from None
    return factory(**kwargs)
