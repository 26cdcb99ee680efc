"""Numeric equilibria of the Eq. (3) model.

Setting ``dx_r/dt = 0`` with loss signal ``lambda_r = p_r`` (and phi = 0)
gives the per-path balance

    psi_r(x) / (RTT_r^2 (sum_k x_k)^2) = beta_r p_r

whose solution is the algorithm's stationary rate allocation for fixed
per-path loss probabilities — the quantity Condition 1 reasons about, and
the bridge the tests use to tie the packet-level controllers, the fluid
adapters and the analytic model together.

Two solvers live under this name:

- :func:`solve_equilibrium` here — the per-connection stationary point
  for *given* RTTs and loss rates: the model ODE, run by the integrator
  that also measures responsiveness
  (:func:`repro.core.trajectories.integrate_model`) until it stops moving;
- ``solve_fluid_equilibrium`` (re-exported lazily from
  :mod:`repro.fluidsim.equilibrium`) — the whole-network fixed point
  where loss and queueing are themselves solved for, by damped
  fixed-point / dual price iteration over the fluid tier's path table.

Neither imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._lazy import lazy_exports
from repro.core.model import CongestionModel, ModelState
from repro.core.trajectories import constant, integrate_model
from repro.errors import EquilibriumError

#: Floor on the starting windows and the integrated rates.
_FLOOR = 1e-3

#: Residual below which a solve is declared converged.
_CONVERGED_RTOL = 1e-4
#: Model time integrated between residual checks, in smallest RTTs.
_CHUNK_RTTS = 64


@dataclass(frozen=True)
class EquilibriumSolution:
    """A solved model equilibrium plus diagnostics of the solve itself."""

    #: The stationary windows/rates as a model state.
    state: ModelState
    #: Whether the residual ended below tolerance.
    converged: bool
    #: Integration chunks of ``_CHUNK_RTTS`` smallest RTTs actually run.
    iterations: int
    #: Final complementarity residual (see :func:`_residual`).
    residual_norm: float

    @property
    def w(self) -> np.ndarray:
        """Equilibrium windows, segments (passthrough to ``state.w``)."""
        return self.state.w

    @property
    def x(self) -> np.ndarray:
        """Equilibrium rates w/rtt (passthrough to ``state.x``)."""
        return self.state.x

    @property
    def total_rate(self) -> float:
        """Connection-aggregate rate (passthrough to ``state.total_rate``)."""
        return self.state.total_rate


def _residual(model: CongestionModel, state: ModelState, loss: np.ndarray) -> float:
    """max_r |min(share_r^2, -gap_r)|, gap_r = (dx_r/dt) / (beta_r p_r x_r^2).

    A path carrying rate must balance (gap ~ 0).  A path the dynamics
    starve (OLIA's worse path: both terms scale with x_r^2, so it decays
    only algebraically) is a boundary equilibrium and needs only gap <= 0;
    its share enters squared, as in dx/dt, so it counts as starved once
    below ~sqrt(_CONVERGED_RTOL) of the total.
    """
    x = state.x
    gap = model.rate_derivative(state, loss) / (model.beta(state) * loss * x * x)
    share = x / np.sum(x)
    return float(np.max(np.abs(np.minimum(share * share, -gap))))


def solve_equilibrium(
    model: CongestionModel,
    rtt: np.ndarray,
    loss: np.ndarray,
    *,
    base_rtt: Optional[np.ndarray] = None,
    w0: Optional[np.ndarray] = None,
    max_iter: int = 200,
) -> EquilibriumSolution:
    """Solve for the stationary windows given fixed RTTs and loss rates.

    Integrates Eq. (3) from ``w0`` (10 segments a path by default) in
    chunks of ``_CHUNK_RTTS`` smallest RTTs until the complementarity
    residual falls below tolerance, at most ``max_iter`` chunks.  Returns
    an :class:`EquilibriumSolution`; raises
    :class:`~repro.errors.EquilibriumError` on empty or mismatched
    inputs and non-positive loss rates.
    """
    rtt = np.asarray(rtt, dtype=float)
    loss = np.asarray(loss, dtype=float)
    if rtt.shape != loss.shape:
        raise EquilibriumError("rtt and loss must have the same shape")
    if rtt.size == 0:
        raise EquilibriumError("cannot solve an equilibrium for zero paths")
    if np.any(rtt <= 0):
        raise EquilibriumError("equilibrium requires positive RTTs")
    if np.any(loss <= 0):
        raise EquilibriumError("equilibrium requires positive loss rates")
    w = np.asarray(w0, dtype=float) if w0 is not None else np.full(len(rtt), 10.0)
    state = ModelState(w=np.maximum(w, _FLOOR), rtt=rtt, base_rtt=base_rtt)
    norm = _residual(model, state, loss)
    environment = dict(rtt=constant(rtt), loss=constant(loss),
                       base_rtt=None if base_rtt is None else constant(base_rtt))
    chunk = _CHUNK_RTTS * float(np.min(rtt))
    iterations = 0
    while norm > _CONVERGED_RTOL and iterations < max_iter:
        iterations += 1
        x = integrate_model(model, **environment, x0=state.x, duration=chunk,
                            n_samples=2, x_floor=_FLOOR).rates[:, -1]
        state = ModelState(w=x * rtt, rtt=rtt, base_rtt=base_rtt)
        norm = _residual(model, state, loss)
    return EquilibriumSolution(
        state=state,
        converged=norm <= _CONVERGED_RTOL,
        iterations=iterations,
        residual_norm=norm,
    )


def reno_window(loss: float) -> float:
    """Classic Reno equilibrium window sqrt(2/p), segments."""
    if loss <= 0:
        raise EquilibriumError(f"loss must be positive, got {loss}")
    return float(np.sqrt(2.0 / loss))


# Lazy re-export of the network-level solver.  Importing repro.fluidsim
# eagerly here would cycle back into repro.core through the fluid adapters
# (and load the engine for callers that only want the model), so resolve on
# first access.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.fluidsim.equilibrium": (
        "FluidEquilibrium", "solve_fluid_equilibrium", "equilibrium_supported",
    ),
})
