"""Fluid forms of the congestion-control algorithms, over whole cohorts.

An adapter hands the stepper and the solver three arrays over a
:class:`CohortState`: the increase per ACK (they scale it by the ACK rate
``x_r``), the window factor of a loss event, an optional extra ``dw``.
For the loss-based algorithms the first *is* the packet controller's
per-ACK rule: :data:`PER_ACK` gathers its connection aggregates with the
cohort's user-wise reductions and calls the function ``on_ack`` calls, so
Section IV's ``psi_r`` has one body.  Written here is only what has no
per-ACK form (wVegas, DCTCP's ECN drain, the price drain ``phi_r``), two
decrease factors, and OLIA's ``alpha_r`` off loss rates (docs/ALGORITHMS.md).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List

import numpy as np

from repro import algorithms as cc
from repro.core.dts import DtsFactorConfig, dts_factor
from repro.core.energy_price import EnergyPriceConfig, path_price
from repro.errors import AlgorithmError
from repro.fluidsim.state import CohortState


def _olia_alpha(st: CohortState) -> np.ndarray:
    """OLIA's ``alpha_r`` with path quality read off the fluid loss rates:
    l_r ~ 1/loss_r, so quality = l_r^2/RTT_r ~ 1/(loss_r^2 RTT_r)."""
    alpha = np.zeros_like(st.w)
    n = st.user_count()
    multi = n > 1.5
    if np.any(multi):
        quality = 1.0 / ((st.loss + 1e-6) ** 2 * st.rtt)
        is_best = quality >= st.user_max(quality) * (1 - 1e-9)
        is_max_w = st.w >= st.user_max(st.w) * (1 - 1e-9)
        collected = is_best & ~is_max_w
        n_collected = st.user_sum(collected.astype(float))
        n_max = st.user_sum(is_max_w.astype(float))
        has_collected = n_collected > 0
        sel_up = collected & has_collected & multi
        alpha[sel_up] = 1.0 / (n[sel_up] * n_collected[sel_up])
        sel_down = is_max_w & has_collected & multi
        alpha[sel_down] -= 1.0 / (n[sel_down] * n_max[sel_down])
    return alpha


#: The per-ACK increase of each loss-based algorithm: gather the connection
#: aggregates over the cohort, call the packet controller's rule.
PER_ACK = {
    "reno": lambda st: cc.reno_increase(st.w),
    "ewtcp": lambda st: cc.ewtcp_increase(np, st.w, st.user_count()),
    "coupled": lambda st: cc.coupled_increase(st.w, st.user_sum(st.w)),
    "lia": lambda st: cc.lia_increase(
        np, st.w, st.user_max(st.w / (st.rtt * st.rtt)), st.user_sum(st.x_pkts)),
    "olia": lambda st: cc.olia_increase(
        st.w, st.rtt, st.user_sum(st.x_pkts), _olia_alpha(st)),
    "balia": lambda st: cc.balia_increase(
        st.w, st.rtt, st.user_max(st.x_pkts), st.user_sum(st.x_pkts)),
    "ecmtcp": lambda st: cc.ecmtcp_increase(
        st.rtt, st.user_count(), st.user_min(st.rtt), st.user_sum(st.w)),
}
#: The window factor of a loss event, where it is not the halving.
_DECREASE = {
    # sum(w)/2 out of the losing subflow, floored at 0.1 of its window
    "coupled": lambda st: np.clip(1.0 - st.user_sum(st.w) / (2.0 * st.w), 0.1, 1.0),
    "balia": lambda st: 1.0 - np.minimum(st.user_max(st.x_pkts) / st.x_pkts, 1.5) / 2.0,
}


class FluidAlgorithm:
    """Vectorized window dynamics for one cohort of subflows: as it is, the
    loss-based algorithm ``name`` — its :data:`PER_ACK` row and nothing
    else; the subclasses below add what has no per-ACK form."""

    #: Whether this algorithm reacts to ECN marks instead of (only) loss.
    uses_ecn = False

    def __init__(self, name: str):
        self.name = name

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        """Window increase per ACK, in segments (array over subflows)."""
        return PER_ACK[self.name](st)

    def loss_decrease_factor(self, st: CohortState) -> np.ndarray:
        """Multiplicative factor applied to w on a loss event (default 1/2,
        one read-only value broadcast over the cohort)."""
        decrease = _DECREASE.get(self.name)
        if decrease is None:
            return np.broadcast_to(st.w.dtype.type(0.5), st.w.shape)
        return decrease(st)

    def rate_adjustment(self, st: CohortState, dt: float) -> np.ndarray:
        """Additional dw for this step (default none)."""
        return np.zeros_like(st.w)


class FluidWvegas(FluidAlgorithm):
    """wVegas: per-RTT +-1 packet steering by queueing-delay backlog."""

    name = "wvegas"

    def __init__(self, total_alpha: float = 10.0):
        self.total_alpha = total_alpha

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        return np.zeros_like(st.w)  # all dynamics live in rate_adjustment

    def rate_adjustment(self, st: CohortState, dt: float) -> np.ndarray:
        diff = st.w * st.queueing / st.rtt  # segments queued in the network
        share = st.x_pkts / np.maximum(st.user_sum(st.x_pkts), 1e-12)
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
        return cc.reno_increase(st.w)

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
        self.c, self.factor = c, factor

    def epsilon(self, st: CohortState) -> np.ndarray:
        """Eq. (5) over the cohort."""
        f = self.factor
        return dts_factor(np, st.base_rtt, st.rtt, f.slope, f.center, f.ceiling)

    def per_ack_increase(self, st: CohortState) -> np.ndarray:
        psi = self.c * self.epsilon(st)
        return cc.dts_increase(st.w, st.rtt, psi, st.user_sum(st.x_pkts))


class FluidExtendedDts(FluidDts):
    """Extended DTS: adds the energy-price drain phi_r of Eq. (9), priced on
    the *actual* queue and hop information (Eq. 6's U_ep), not the
    end-to-end estimate the packet controller must fall back on."""

    name = "dts-ext"

    def __init__(self, c: float = 1.0, factor: DtsFactorConfig = DtsFactorConfig(),
                 **price: float):
        super().__init__(c, factor)
        #: ``kappa``, ``rho``, ``gamma``, ... — :class:`EnergyPriceConfig`'s fields.
        self.price_config = EnergyPriceConfig(**price)

    def price(self, st: CohortState) -> np.ndarray:
        """dU_ep/dx_r for every subflow."""
        return path_price(np, self.price_config, st.switch_hops, st.queueing, st.base_rtt)

    def rate_adjustment(self, st: CohortState, dt: float) -> np.ndarray:
        # phi_r = kappa x^2 dU/dx in rate units; as a window drain this is
        # kappa * price * w per ACK, at x_pkts ACKs per second.
        return -self.price_config.kappa * self.price(st) * st.w * st.x_pkts * dt


#: Derived: the :data:`PER_ACK` rows, then the classes under their ``name``.
_REGISTRY: Dict[str, Callable[..., FluidAlgorithm]] = {
    **{name: partial(FluidAlgorithm, name) for name in PER_ACK},
    **{cls.name: cls for cls in (FluidWvegas, FluidDctcp, FluidDts, FluidExtendedDts)},
}


def fluid_algorithm_names() -> List[str]:
    """Canonical fluid-adapter names, sorted."""
    return sorted(_REGISTRY)


def create_fluid_algorithm(name: str, **kwargs) -> FluidAlgorithm:
    """Instantiate a fluid adapter by :func:`~repro.algorithms.resolve_algorithm` name."""
    key = cc.resolve_algorithm(name)
    if key not in _REGISTRY:
        raise AlgorithmError(f"algorithm {key!r} has no fluid form; "
                             f"known: {', '.join(fluid_algorithm_names())}")
    return _REGISTRY[key](**kwargs)
