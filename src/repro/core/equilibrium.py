"""Numeric equilibria of the Eq. (3) model.

Setting ``dx_r/dt = 0`` with loss signal ``lambda_r = p_r`` (and phi = 0)
gives the per-path balance

    psi_r(x) / (RTT_r^2 (sum_k x_k)^2) = beta_r p_r

whose solution is the algorithm's stationary rate allocation for fixed
per-path loss probabilities — the quantity Condition 1 reasons about, and
the bridge the tests use to tie the packet-level controllers, the fluid
adapters and the analytic model together.

Two solvers live under this name:

- :func:`solve_equilibrium` here — the per-connection model balance for
  *given* RTTs and loss rates, returning an :class:`EquilibriumSolution`
  with convergence diagnostics.  Its damped fixed-point iteration is
  plain numpy; only the hybr refinement it falls back to when that
  iteration converges poorly imports ``scipy.optimize``, at that call
  (once per process), so importing this module never loads scipy;
- ``solve_fluid_equilibrium`` (re-exported lazily from
  :mod:`repro.fluidsim.equilibrium`) — the whole-network fixed point
  where loss and queueing are themselves solved for, the direct
  alternative to time-stepping a ``FluidSimulation``.  It is the
  ``scipy.optimize``-free route: its own damped fixed-point / dual
  price iteration over the fluid tier's path table
  (:class:`repro.fluidsim.csr.Csr`), no root finder and no
  ``import scipy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._lazy import lazy_exports
from repro.core.model import CongestionModel, ModelState
from repro.errors import EquilibriumError

_EPS = 1e-9

#: Relative residual below which a solve is declared converged.
_CONVERGED_RTOL = 1e-4
#: Relative window movement below which fixed-point iteration stops early.
_STEP_RTOL = 1e-12


@dataclass(frozen=True)
class EquilibriumSolution:
    """A solved model equilibrium plus diagnostics of the solve itself."""

    #: The stationary windows/rates as a model state.
    state: ModelState
    #: Whether the relative residual ended below tolerance.
    converged: bool
    #: Fixed-point iterations actually run (before any root refinement).
    iterations: int
    #: Final max |psi/(rtt^2 total^2) - beta p| relative to max |beta p|.
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

    Uses damped fixed-point iteration on the window form of the balance
    equation (robust for every decomposition in this package), refined by
    ``scipy.optimize.root`` when it converges poorly.  Returns an
    :class:`EquilibriumSolution`; raises
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
    n = len(rtt)
    w = np.asarray(w0, dtype=float) if w0 is not None else np.full(n, 10.0)

    def residual(w_vec: np.ndarray) -> np.ndarray:
        w_clamped = np.maximum(w_vec, 1e-3)
        st = ModelState(w=w_clamped, rtt=rtt, base_rtt=base_rtt)
        total = np.sum(st.x)
        lhs = model.psi(st) / (rtt**2 * total * total + _EPS)
        rhs = model.beta(st) * loss
        return lhs - rhs

    def residual_norm_of(w_vec: np.ndarray) -> float:
        st = ModelState(w=np.maximum(w_vec, 1e-3), rtt=rtt, base_rtt=base_rtt)
        scale = float(np.max(np.abs(model.beta(st) * loss))) + _EPS
        return float(np.max(np.abs(residual(w_vec)))) / scale

    damping = 0.3
    iterations = 0
    for iterations in range(1, max_iter + 1):
        st = ModelState(w=np.maximum(w, 1e-3), rtt=rtt, base_rtt=base_rtt)
        total = np.sum(st.x)
        # Balance: psi/(rtt^2 total^2) = beta p  =>  implied total given w,
        # then rescale windows toward consistency via the psi ratio.
        psi = np.maximum(model.psi(st), _EPS)
        beta = model.beta(st)
        target_w = np.sqrt(psi / (beta * loss + _EPS)) / (rtt * total + _EPS) * rtt
        # target_w solves w such that x_r contributes consistently:
        # w_r = sqrt(psi_r/(beta_r p_r)) / total  (in window units w = x*rtt)
        w_new = (1 - damping) * w + damping * np.maximum(target_w, 1e-3)
        step = float(np.max(np.abs(w_new - w))) / (float(np.max(w)) + _EPS)
        w = w_new
        if step < _STEP_RTOL:
            break
    if residual_norm_of(w) > _CONVERGED_RTOL:
        # The only scipy use in this module: loaded on the fallback, not at
        # import, so the closed-form callers of repro.core never pay for it.
        from scipy import optimize

        sol = optimize.root(residual, w, method="hybr")
        if sol.success:
            w = np.maximum(sol.x, 1e-3)
    norm = residual_norm_of(w)
    return EquilibriumSolution(
        state=ModelState(w=np.maximum(w, 1e-3), rtt=rtt, base_rtt=base_rtt),
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
