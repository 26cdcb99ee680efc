"""The paper's congestion-control model (Eq. 3) and Section IV decompositions.

The model: for user s with path set s and rates x_r = w_r/RTT_r,

    dx_r/dt = psi_r(x) x_r^2 / (RTT_r^2 (sum_k x_k)^2)
              - beta_r(x) lambda_r x_r^2
              - phi_r(x)                                            (Eq. 3)

- ``psi_r`` — the traffic-shifting parameter (the increase term's core);
- ``beta_r`` — the decrease parameter (1/2 for all the loss-based kernels);
- ``lambda_r`` — the congestion signal (loss rate; queueing delay for
  wVegas; a delay condition for DWC);
- ``phi_r`` — the compensative parameter (0 for the existing algorithms;
  the energy price for the paper's extended DTS).

This module gives the decompositions exactly as printed in Section IV, as
vectorized callables over a :class:`ModelState`, plus the translation
helpers between model quantities and per-ACK window rules:

    per-ACK increase  a_r = psi_r * w_r / (RTT_r^2 (sum_k x_k)^2)
    increase rate  dx_r/dt|_inc = psi_r x_r^2 / (RTT_r^2 (sum_k x_k)^2)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.dts import DtsFactorConfig, dts_factor
from repro.errors import ModelError

_EPS = 1e-12


@dataclass
class ModelState:
    """State of one user's paths at an instant."""

    w: np.ndarray
    rtt: np.ndarray
    base_rtt: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=float)
        self.rtt = np.asarray(self.rtt, dtype=float)
        if self.w.shape != self.rtt.shape:
            raise ModelError("w and rtt must have the same shape")
        if np.any(self.rtt <= 0):
            raise ModelError("RTTs must be positive")
        if np.any(self.w <= 0):
            raise ModelError("windows must be positive")
        if self.base_rtt is None:
            self.base_rtt = self.rtt.copy()
        else:
            self.base_rtt = np.asarray(self.base_rtt, dtype=float)

    @property
    def x(self) -> np.ndarray:
        """Rates x_r = w_r / RTT_r."""
        return self.w / self.rtt

    @property
    def n_paths(self) -> int:
        return len(self.w)

    @property
    def total_rate(self) -> float:
        return float(np.sum(self.x))


def coupled_base(w, rtt, total_rate):
    """The coupled term ``w_r / (RTT_r^2 (sum_k x_k)^2)`` that a printed
    ``psi_r`` scales into a per-ACK increase.  Analysis only: the engines
    run the controllers' own rules (:mod:`repro.algorithms`), which
    ``tests/test_model.py`` compares against this translation."""
    return w / (rtt * rtt * total_rate * total_rate + _EPS)


#: A psi function maps a ModelState to per-path traffic-shifting values.
PsiFunction = Callable[[ModelState], np.ndarray]


def psi_ewtcp(state: ModelState) -> np.ndarray:
    """EWTCP: psi_r = (sum_k x_k)^2 / (x_r^2 sqrt(|s|))."""
    x = state.x
    total = np.sum(x)
    return (total * total) / (x * x * np.sqrt(state.n_paths))


def psi_coupled(state: ModelState) -> np.ndarray:
    """Coupled: psi_r = RTT_r^2 (sum_k x_k)^2 / (sum_k w_k)^2."""
    total_x = np.sum(state.x)
    total_w = np.sum(state.w)
    return (state.rtt**2) * (total_x * total_x) / (total_w * total_w)


def psi_lia(state: ModelState) -> np.ndarray:
    """LIA: psi_r = (max_k w_k/RTT_k^2) RTT_r^2 / w_r."""
    best = np.max(state.w / state.rtt**2)
    return best * state.rtt**2 / state.w


def psi_olia(state: ModelState) -> np.ndarray:
    """OLIA (simplified, as the paper states): psi_r = 1."""
    return np.ones_like(state.w)


def psi_balia(state: ModelState) -> np.ndarray:
    """Balia: psi_r = 2/5 + alpha_r/2 + alpha_r^2/10, alpha = max x / x_r."""
    x = state.x
    alpha = np.max(x) / x
    return 0.4 + alpha / 2.0 + alpha * alpha / 10.0


def psi_ecmtcp(state: ModelState) -> np.ndarray:
    """ecMTCP: psi_r = RTT_r^3 (sum x)^2 / (|s| min RTT * w_r * sum w)."""
    total_x = np.sum(state.x)
    total_w = np.sum(state.w)
    return (state.rtt**3) * (total_x * total_x) / (
        state.n_paths * np.min(state.rtt) * state.w * total_w
    )


def psi_wvegas(state: ModelState) -> np.ndarray:
    """wVegas: psi_r = RTT_r^2 min_k q_k (sum_k x_k)^2 / (q_r x_r), with
    q_r = RTT_r - baseRTT_r (delta = 1, delay-based lambda)."""
    q = np.maximum(state.rtt - state.base_rtt, 1e-9)
    total_x = np.sum(state.x)
    return (state.rtt**2) * np.min(q) * (total_x * total_x) / (q * state.x)


def make_psi_dts(c: float = 1.0, factor: DtsFactorConfig = DtsFactorConfig()) -> PsiFunction:
    """DTS: psi_r = c * eps_r with eps_r the Eq. (5) sigmoid."""

    def psi(state: ModelState) -> np.ndarray:
        return c * dts_factor(np, state.base_rtt, state.rtt, factor.slope,
                              factor.center, factor.ceiling)

    return psi


@dataclass
class CongestionModel:
    """A fully specified instance of Eq. (3) for one user."""

    name: str
    psi: PsiFunction
    #: Window-decrease parameter beta_r (1/2 for loss-based kernels).
    beta: Callable[[ModelState], np.ndarray] = field(
        default=lambda s: np.full(s.n_paths, 0.5)
    )
    #: Compensative parameter phi_r (zero for the existing algorithms).
    phi: Callable[[ModelState], np.ndarray] = field(
        default=lambda s: np.zeros(s.n_paths)
    )
    #: Step size delta: 0 (continuous) for loss-based, 1 for wVegas.
    delta: float = 0.0

    def increase_rate(self, state: ModelState) -> np.ndarray:
        """The model's increase term, in rate units (dx/dt)."""
        return self.per_ack_increase(state) * state.x / state.rtt

    def per_ack_increase(self, state: ModelState) -> np.ndarray:
        """The equivalent per-ACK window increase, in segments."""
        return self.psi(state) * coupled_base(state.w, state.rtt, np.sum(state.x))

    def rate_derivative(self, state: ModelState, loss: np.ndarray) -> np.ndarray:
        """Full Eq. (3) right-hand side given per-path loss rates lambda_r."""
        loss = np.asarray(loss, dtype=float)
        x = state.x
        return (
            self.increase_rate(state)
            - self.beta(state) * loss * x * x
            - self.phi(state)
        )


def decompositions() -> Dict[str, CongestionModel]:
    """The Section IV decomposition of every named algorithm."""
    return {
        "ewtcp": CongestionModel("ewtcp", psi_ewtcp),
        "coupled": CongestionModel("coupled", psi_coupled),
        "lia": CongestionModel("lia", psi_lia),
        "olia": CongestionModel("olia", psi_olia),
        "balia": CongestionModel("balia", psi_balia),
        "ecmtcp": CongestionModel("ecmtcp", psi_ecmtcp),
        "wvegas": CongestionModel("wvegas", psi_wvegas, delta=1.0),
        "dts": CongestionModel("dts", make_psi_dts()),
    }


def decomposition(name: str) -> CongestionModel:
    """Look up one named decomposition."""
    table = decompositions()
    key = name.strip().lower()
    if key not in table:
        raise ModelError(
            f"no decomposition for {name!r}; known: {', '.join(sorted(table))}"
        )
    return table[key]
