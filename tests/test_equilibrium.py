"""Equilibrium-solver tests."""

import numpy as np
import pytest

from repro.core import decomposition, reno_window, solve_equilibrium
from repro.errors import EquilibriumError, ModelError


class TestRenoWindow:
    def test_closed_form(self):
        assert reno_window(0.02) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(EquilibriumError):
            reno_window(0.0)


class TestSolveEquilibrium:
    @pytest.mark.parametrize(
        "name", ["lia", "olia", "balia", "ecmtcp", "ewtcp", "coupled"]
    )
    def test_single_path_equals_reno(self, name):
        sol = solve_equilibrium(
            decomposition(name), rtt=np.array([0.05]), loss=np.array([0.01])
        )
        assert sol.w[0] == pytest.approx(reno_window(0.01), rel=0.01)

    def test_lia_two_equal_paths_total_equals_one_reno(self):
        sol = solve_equilibrium(
            decomposition("lia"), rtt=np.array([0.05, 0.05]),
            loss=np.array([0.01, 0.01]),
        )
        assert float(np.sum(sol.w)) == pytest.approx(reno_window(0.01), rel=0.02)

    def test_ewtcp_two_equal_paths_total_exceeds_reno(self):
        sol = solve_equilibrium(
            decomposition("ewtcp"), rtt=np.array([0.05, 0.05]),
            loss=np.array([0.01, 0.01]),
        )
        assert float(np.sum(sol.w)) > reno_window(0.01) * 1.3

    def test_lower_loss_path_gets_more_window(self):
        sol = solve_equilibrium(
            decomposition("balia"), rtt=np.array([0.05, 0.05]),
            loss=np.array([0.005, 0.02]),
        )
        assert sol.w[0] > sol.w[1]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EquilibriumError):
            solve_equilibrium(
                decomposition("lia"), rtt=np.array([0.05]),
                loss=np.array([0.01, 0.01]),
            )

    def test_empty_inputs_rejected(self):
        with pytest.raises(EquilibriumError):
            solve_equilibrium(
                decomposition("lia"), rtt=np.array([]), loss=np.array([])
            )

    def test_nonpositive_loss_rejected(self):
        with pytest.raises(EquilibriumError):
            solve_equilibrium(
                decomposition("lia"), rtt=np.array([0.05]), loss=np.array([0.0])
            )

    def test_nonpositive_rtt_rejected(self):
        with pytest.raises(EquilibriumError):
            solve_equilibrium(
                decomposition("lia"), rtt=np.array([0.0]), loss=np.array([0.01])
            )

    def test_typed_error_is_a_model_error(self):
        # EquilibriumError subclasses ModelError so pre-existing handlers
        # keep working.
        with pytest.raises(ModelError):
            solve_equilibrium(
                decomposition("lia"), rtt=np.array([0.05]), loss=np.array([0.0])
            )

    def test_solution_reports_convergence_diagnostics(self):
        sol = solve_equilibrium(
            decomposition("lia"), rtt=np.array([0.05, 0.05]),
            loss=np.array([0.01, 0.01]),
        )
        assert sol.converged
        assert 0 < sol.iterations <= 200
        assert 0.0 <= sol.residual_norm <= 1e-4

    def test_passthroughs_match_state(self):
        sol = solve_equilibrium(
            decomposition("olia"), rtt=np.array([0.05, 0.07]),
            loss=np.array([0.01, 0.02]),
        )
        assert sol.converged
        np.testing.assert_array_equal(sol.w, sol.state.w)
        np.testing.assert_array_equal(sol.x, sol.state.x)
        assert sol.total_rate == sol.state.total_rate

    def test_olia_starves_the_worse_path(self):
        """OLIA's psi = 1 makes both terms of Eq. 3 scale with x_r^2, so
        only the path with the smaller RTT^2 p balances; the other decays
        to a boundary equilibrium, which still counts as converged."""
        sol = solve_equilibrium(
            decomposition("olia"), rtt=np.array([0.05, 0.07]),
            loss=np.array([0.01, 0.02]),
        )
        assert sol.converged and sol.residual_norm <= 1e-4
        assert sol.x[1] <= 0.01 * sol.total_rate
        # All the rate is on the better path, at one Reno window there.
        assert sol.w[0] == pytest.approx(reno_window(0.01), rel=0.02)

    @pytest.mark.parametrize(
        "name", ["lia", "olia", "balia", "ecmtcp", "ewtcp", "coupled", "wvegas", "dts"]
    )
    @pytest.mark.parametrize("rtt, loss", [
        ([0.05, 0.05], [0.01, 0.01]),
        ([0.05, 0.07], [0.01, 0.02]),
        ([0.04, 0.07], [0.008, 0.015]),
    ])
    def test_solved_point_is_stationary(self, name, rtt, loss):
        """dx_r/dt ~ 0 on every path that carries rate (relative to the
        path's own decrease term beta_r p_r x_r^2)."""
        model = decomposition(name)
        rtt, loss = np.array(rtt), np.array(loss)
        sol = solve_equilibrium(model, rtt, loss)
        assert sol.converged
        st = sol.state
        drift = model.rate_derivative(st, loss)
        decrease = model.beta(st) * loss * st.x**2
        carrying = st.x > 0.02 * st.total_rate
        assert carrying.any()
        assert np.all(np.abs(drift[carrying]) <= 1e-3 * decrease[carrying])

    def test_residual_small_at_solution(self):
        model = decomposition("balia")
        rtt = np.array([0.04, 0.07])
        loss = np.array([0.008, 0.015])
        sol = solve_equilibrium(model, rtt, loss)
        st = sol.state
        total = st.total_rate
        lhs = model.psi(st) / (rtt**2 * total**2)
        rhs = model.beta(st) * loss
        assert np.max(np.abs(lhs - rhs) / rhs) < 0.05
