"""Unit tests for every congestion controller's window rules.

These drive controllers directly with fake subflows so each per-ACK
increase and loss decrease can be checked against its closed form (the
Section IV decompositions translated to per-ACK rules).
"""

import math

import pytest

from repro.algorithms import (
    BaliaController,
    CoupledController,
    DctcpController,
    DtsController,
    EcmtcpController,
    EwtcpController,
    ExtendedDtsController,
    LiaController,
    OliaController,
    RenoController,
    WvegasController,
    algorithm_names,
    create_controller,
)
from repro.algorithms.base import MIN_CWND
from repro.errors import AlgorithmError


class FakeRoute:
    def __init__(self, switch_hops=0):
        self._hops = switch_hops

    def switch_hops(self):
        return self._hops


class FakeSubflow:
    def __init__(self, cwnd, rtt, base_rtt=None, switch_hops=0):
        self.cwnd = float(cwnd)
        self.rtt = float(rtt)
        self.latest_rtt = float(rtt)
        self.base_rtt = float(base_rtt if base_rtt is not None else rtt)
        self.loss_events = 0
        self.route = FakeRoute(switch_hops)


def attach(controller, *subflows):
    controller.attach(list(subflows))
    return controller


class TestRegistry:
    def test_names_sorted_and_complete(self):
        names = algorithm_names()
        assert names == sorted(names)
        for expected in ("lia", "olia", "balia", "ecmtcp", "wvegas",
                         "dts", "dts-ext", "reno", "dctcp", "ewtcp", "coupled"):
            assert expected in names

    def test_aliases(self):
        assert create_controller("TCP").name == "reno"
        assert create_controller("mptcp").name == "lia"
        assert create_controller("edts").name == "dts-ext"

    def test_unknown_rejected(self):
        with pytest.raises(AlgorithmError):
            create_controller("cubic")

    def test_kwargs_forwarded(self):
        ctrl = create_controller("dts-ext", kappa=0.5)
        assert ctrl.price_config.kappa == 0.5

    def test_attach_requires_subflows(self):
        with pytest.raises(AlgorithmError):
            create_controller("lia").attach([])


class TestReno:
    def test_increase_is_one_over_w(self):
        sf = FakeSubflow(cwnd=10, rtt=0.05)
        ctrl = attach(RenoController(), sf)
        ctrl.on_ack(sf)
        assert sf.cwnd == pytest.approx(10 + 0.1)

    def test_loss_halves(self):
        sf = FakeSubflow(cwnd=10, rtt=0.05)
        ctrl = attach(RenoController(), sf)
        ctrl.on_loss(sf)
        assert sf.cwnd == pytest.approx(5.0)

    def test_loss_floor(self):
        sf = FakeSubflow(cwnd=1.2, rtt=0.05)
        ctrl = attach(RenoController(), sf)
        ctrl.on_loss(sf)
        assert sf.cwnd == MIN_CWND


class TestEwtcp:
    def test_weight_is_inverse_sqrt_n(self):
        sfs = [FakeSubflow(10, 0.05) for _ in range(4)]
        ctrl = attach(EwtcpController(), *sfs)
        ctrl.on_ack(sfs[0])
        assert sfs[0].cwnd == pytest.approx(10 + (1 / math.sqrt(4)) / 10)

    def test_single_path_equals_reno(self):
        sf = FakeSubflow(10, 0.05)
        ctrl = attach(EwtcpController(), sf)
        ctrl.on_ack(sf)
        assert sf.cwnd == pytest.approx(10.1)


class TestCoupled:
    def test_increase_uses_total_window(self):
        a, b = FakeSubflow(10, 0.05), FakeSubflow(30, 0.05)
        ctrl = attach(CoupledController(), a, b)
        ctrl.on_ack(a)
        assert a.cwnd == pytest.approx(10 + 10 / 40**2)

    def test_loss_takes_half_total_from_loser(self):
        a, b = FakeSubflow(30, 0.05), FakeSubflow(10, 0.05)
        ctrl = attach(CoupledController(), a, b)
        ctrl.on_loss(a)
        assert a.cwnd == pytest.approx(30 - 40 / 2)

    def test_loss_floor(self):
        a, b = FakeSubflow(5, 0.05), FakeSubflow(100, 0.05)
        ctrl = attach(CoupledController(), a, b)
        ctrl.on_loss(a)
        assert a.cwnd == MIN_CWND


class TestLia:
    def test_symmetric_increase_matches_closed_form(self):
        a, b = FakeSubflow(10, 0.05), FakeSubflow(10, 0.05)
        ctrl = attach(LiaController(), a, b)
        # best = w/rtt^2 = 4000; total rate = 400; increase = 4000/400^2.
        expected = min(4000 / 400**2, 1 / 10)
        ctrl.on_ack(a)
        assert a.cwnd == pytest.approx(10 + expected)

    def test_capped_by_reno_increase(self):
        # A tiny-window subflow next to a big one: cap 1/w must bind.
        small, big = FakeSubflow(2, 0.05), FakeSubflow(500, 0.01)
        ctrl = attach(LiaController(), small, big)
        # best = 500/0.01^2; total rate = 2/0.05 + 500/0.01.
        uncapped = (500 / 0.01**2) / (2 / 0.05 + 500 / 0.01) ** 2
        ctrl.on_ack(small)
        assert small.cwnd == pytest.approx(2 + min(uncapped, 0.5))

    def test_loss_halves_subflow_only(self):
        a, b = FakeSubflow(20, 0.05), FakeSubflow(10, 0.05)
        ctrl = attach(LiaController(), a, b)
        ctrl.on_loss(a)
        assert a.cwnd == pytest.approx(10)
        assert b.cwnd == pytest.approx(10)


class TestOlia:
    def test_single_path_reduces_to_coupled_term(self):
        sf = FakeSubflow(10, 0.05)
        ctrl = attach(OliaController(), sf)
        ctrl.on_ack(sf)
        expected = (10 / 0.05**2) / (10 / 0.05) ** 2  # = 1/10
        assert sf.cwnd == pytest.approx(10 + expected)

    def test_alpha_zero_for_single_path(self):
        sf = FakeSubflow(10, 0.05)
        ctrl = attach(OliaController(), sf)
        assert ctrl.alpha(sf) == 0.0

    def test_alpha_sums_to_zero_across_paths(self):
        a, b = FakeSubflow(30, 0.05), FakeSubflow(10, 0.05)
        ctrl = attach(OliaController(), a, b)
        # Make b the best path (longer loss interval).
        for _ in range(50):
            ctrl._loss_intervals[id(b)].on_ack()
        ctrl._loss_intervals[id(a)].on_loss()
        alphas = [ctrl.alpha(a), ctrl.alpha(b)]
        assert sum(alphas) == pytest.approx(0.0, abs=1e-12)
        assert alphas[1] > 0 > alphas[0]

    def test_no_transfer_when_best_path_has_max_window(self):
        a, b = FakeSubflow(30, 0.05), FakeSubflow(10, 0.05)
        ctrl = attach(OliaController(), a, b)
        for _ in range(50):
            ctrl._loss_intervals[id(a)].on_ack()
        ctrl._loss_intervals[id(b)].on_loss()
        # Best (a) already holds the max window: collected set empty.
        assert ctrl.alpha(a) == 0.0
        assert ctrl.alpha(b) == 0.0

    def test_loss_resets_interval(self):
        a, b = FakeSubflow(10, 0.05), FakeSubflow(10, 0.05)
        ctrl = attach(OliaController(), a, b)
        for _ in range(10):
            ctrl._loss_intervals[id(a)].on_ack()
        ctrl.on_loss(a)
        assert a.cwnd == pytest.approx(5)
        assert ctrl._loss_intervals[id(a)].current == 0


class TestBalia:
    def test_single_path_increase_is_reno(self):
        sf = FakeSubflow(10, 0.05)
        ctrl = attach(BaliaController(), sf)
        ctrl.on_ack(sf)
        # alpha = 1 -> psi = 1 -> increase = w/(rtt^2 total^2) = 1/w.
        assert sf.cwnd == pytest.approx(10.1)

    def test_psi_expansion(self):
        a, b = FakeSubflow(10, 0.05), FakeSubflow(20, 0.05)
        ctrl = attach(BaliaController(), a, b)
        alpha = (20 / 0.05) / (10 / 0.05)
        assert ctrl.psi(a) == pytest.approx(0.4 + alpha / 2 + alpha**2 / 10)

    def test_loss_decrease_capped_at_three_quarters(self):
        a, b = FakeSubflow(1000, 0.05), FakeSubflow(10, 0.05)
        ctrl = attach(BaliaController(), b, a)
        ctrl.on_loss(b)  # alpha large -> min(alpha, 1.5) = 1.5 -> keep 1/4
        assert b.cwnd == pytest.approx(10 * 0.25)

    def test_loss_on_best_path_is_half(self):
        a, b = FakeSubflow(40, 0.05), FakeSubflow(10, 0.05)
        ctrl = attach(BaliaController(), a, b)
        ctrl.on_loss(a)  # alpha = 1 on the max-rate path
        assert a.cwnd == pytest.approx(20)


class TestEcmtcp:
    def test_increase_closed_form(self):
        a, b = FakeSubflow(10, 0.04), FakeSubflow(10, 0.08)
        ctrl = attach(EcmtcpController(), a, b)
        expected = 0.08 / (2 * 0.04 * 20)
        ctrl.on_ack(b)
        assert b.cwnd == pytest.approx(10 + expected)

    def test_symmetric_equals_lia_scale(self):
        a, b = FakeSubflow(10, 0.05), FakeSubflow(10, 0.05)
        ctrl = attach(EcmtcpController(), a, b)
        ctrl.on_ack(a)
        # rtt/(2 * rtt * 20) = 1/40 = psi=1 coupled increase at symmetry.
        assert a.cwnd == pytest.approx(10 + 1 / 40)

    def test_loss_halves(self):
        a, b = FakeSubflow(10, 0.05), FakeSubflow(10, 0.05)
        ctrl = attach(EcmtcpController(), a, b)
        ctrl.on_loss(a)
        assert a.cwnd == pytest.approx(5)


class TestWvegas:
    def test_no_adjustment_until_full_round(self):
        sf = FakeSubflow(5, 0.05, base_rtt=0.05)
        ctrl = attach(WvegasController(), sf)
        for _ in range(4):
            ctrl.on_ack(sf)
        assert sf.cwnd == pytest.approx(5)

    def test_grows_when_below_target(self):
        sf = FakeSubflow(5, 0.05, base_rtt=0.05)  # zero queueing: diff = 0
        ctrl = attach(WvegasController(), sf)
        for _ in range(5):
            ctrl.on_ack(sf)
        assert sf.cwnd == pytest.approx(6)

    def test_shrinks_when_backlog_exceeds_target(self):
        # Heavy queueing: diff = w * q/rtt = 20 * 0.6 = 12 > alpha = 10.
        sf = FakeSubflow(20, 0.1, base_rtt=0.04)
        ctrl = attach(WvegasController(), sf)
        for _ in range(20):
            ctrl.on_ack(sf)
        assert sf.cwnd == pytest.approx(19)

    def test_targets_track_rate_share(self):
        fast = FakeSubflow(30, 0.05, base_rtt=0.05)
        slow = FakeSubflow(10, 0.1, base_rtt=0.1)
        ctrl = attach(WvegasController(total_alpha=12.0), fast, slow)
        ctrl._update_targets()
        # fast rate 600, slow 100: targets split 12 proportionally.
        assert ctrl.alpha(fast) == pytest.approx(12 * 600 / 700)
        assert ctrl.alpha(slow) == pytest.approx(max(1.0, 12 * 100 / 700))

    def test_loss_halves_and_resets_round(self):
        sf = FakeSubflow(8, 0.05)
        ctrl = attach(WvegasController(), sf)
        ctrl.on_ack(sf)
        ctrl.on_loss(sf)
        assert sf.cwnd == pytest.approx(4)
        assert ctrl._acks_in_round[id(sf)] == 0


class TestDctcp:
    def test_increase_without_marks_is_reno(self):
        sf = FakeSubflow(10, 0.05)
        ctrl = attach(DctcpController(), sf)
        ctrl.on_ack(sf)
        assert sf.cwnd == pytest.approx(10.1)

    def test_ecn_cuts_once_per_window(self):
        sf = FakeSubflow(100, 0.05)
        ctrl = attach(DctcpController(), sf)
        ctrl.on_ecn(sf)
        after_first = sf.cwnd
        ctrl.on_ecn(sf)
        assert after_first < 100
        assert sf.cwnd == after_first  # second mark in same window: no cut

    def test_alpha_converges_toward_mark_fraction(self):
        sf = FakeSubflow(4, 0.05)
        ctrl = attach(DctcpController(), sf)
        for _ in range(4000):
            ctrl.on_ack(sf)
            ctrl.on_ecn(sf)
            sf.cwnd = 4.0  # pin the window so the estimator dominates
        assert ctrl.alpha(sf) > 0.5

    def test_loss_halves(self):
        sf = FakeSubflow(10, 0.05)
        ctrl = attach(DctcpController(), sf)
        ctrl.on_loss(sf)
        assert sf.cwnd == pytest.approx(5)

    def test_is_ecn_capable(self):
        assert DctcpController.ecn_capable
        assert not LiaController.ecn_capable


class TestDts:
    def test_psi_is_c_times_epsilon(self):
        sf = FakeSubflow(10, 0.05, base_rtt=0.05)
        ctrl = attach(DtsController(c=1.0), sf)
        eps = ctrl.epsilon(sf)
        assert ctrl.psi(sf) == pytest.approx(eps)
        assert eps == pytest.approx(2 / (1 + math.exp(-5)), rel=1e-6)

    def test_increase_scales_with_epsilon(self):
        clean = FakeSubflow(10, 0.05, base_rtt=0.05)
        ctrl = attach(DtsController(), clean)
        ctrl.on_ack(clean)
        gain_clean = clean.cwnd - 10

        congested = FakeSubflow(10, 0.25, base_rtt=0.05)  # ratio 0.2
        ctrl2 = attach(DtsController(), congested)
        ctrl2.on_ack(congested)
        gain_congested = congested.cwnd - 10
        # The coupled base term also shrinks with rtt, but epsilon should
        # make the congested path's *relative* gain far smaller still.
        base_clean = (10 / 0.05**2) / (10 / 0.05) ** 2
        base_congested = (10 / 0.25**2) / (10 / 0.25) ** 2
        assert gain_clean / base_clean > 10 * (gain_congested / base_congested)

    def test_loss_halves(self):
        sf = FakeSubflow(10, 0.05)
        ctrl = attach(DtsController(), sf)
        ctrl.on_loss(sf)
        assert sf.cwnd == pytest.approx(5)

    def test_c_scales_increase(self):
        sf1 = FakeSubflow(10, 0.05, base_rtt=0.05)
        attach(DtsController(c=1.0), sf1).on_ack(sf1)
        sf2 = FakeSubflow(10, 0.05, base_rtt=0.05)
        attach(DtsController(c=2.0), sf2).on_ack(sf2)
        assert (sf2.cwnd - 10) == pytest.approx(2 * (sf1.cwnd - 10))


class TestExtendedDts:
    def test_price_counts_hops_and_congestion(self):
        sf = FakeSubflow(10, 0.05, base_rtt=0.05, switch_hops=3)
        ctrl = attach(ExtendedDtsController(rho=1.0, gamma=2.0,
                                            delay_cost_weight=0.0), sf)
        assert ctrl.price(sf) == pytest.approx(3.0)  # no queueing

    def test_price_adds_congestion_indicator(self):
        sf = FakeSubflow(10, 0.10, base_rtt=0.05, switch_hops=1)
        ctrl = attach(ExtendedDtsController(rho=1.0, gamma=2.0,
                                            delay_cost_weight=0.0), sf)
        assert ctrl.price(sf) == pytest.approx(3.0)  # 1 hop + gamma

    def test_delay_cost_term(self):
        sf = FakeSubflow(10, 0.2, base_rtt=0.2, switch_hops=0)
        ctrl = attach(ExtendedDtsController(gamma=0.0, delay_cost_weight=1.0,
                                            delay_cost_reference=0.05), sf)
        assert ctrl.price(sf) == pytest.approx(0.2 / 0.05 - 1)

    def test_drain_reduces_window_vs_plain_dts(self):
        plain = FakeSubflow(50, 0.05, base_rtt=0.05, switch_hops=4)
        attach(DtsController(), plain).on_ack(plain)
        taxed = FakeSubflow(50, 0.05, base_rtt=0.05, switch_hops=4)
        attach(ExtendedDtsController(kappa=1e-3), taxed).on_ack(taxed)
        assert taxed.cwnd < plain.cwnd

    def test_drain_bounded_by_floor(self):
        sf = FakeSubflow(1.0, 0.05, base_rtt=0.05, switch_hops=10)
        ctrl = attach(ExtendedDtsController(kappa=10.0), sf)
        ctrl.on_ack(sf)
        assert sf.cwnd >= MIN_CWND
