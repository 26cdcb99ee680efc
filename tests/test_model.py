"""Tests for the Eq. (3) model and its Section IV decompositions."""

import numpy as np
import pytest

from repro.core.model import (
    ModelState,
    decomposition,
    decompositions,
    make_psi_dts,
    psi_balia,
    psi_coupled,
    psi_ecmtcp,
    psi_ewtcp,
    psi_lia,
    psi_olia,
    psi_wvegas,
)
from repro.errors import ModelError


def state(w, rtt, base=None):
    return ModelState(w=np.asarray(w, float), rtt=np.asarray(rtt, float),
                      base_rtt=None if base is None else np.asarray(base, float))


class TestModelState:
    def test_rates(self):
        st = state([10, 20], [0.1, 0.2])
        assert list(st.x) == pytest.approx([100, 100])

    def test_total_rate(self):
        st = state([10, 20], [0.1, 0.2])
        assert st.total_rate == pytest.approx(200)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            state([10, 20], [0.1])

    def test_nonpositive_rtt_rejected(self):
        with pytest.raises(ModelError):
            state([10], [0.0])

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ModelError):
            state([0.0], [0.1])

    def test_base_rtt_defaults_to_rtt(self):
        st = state([10], [0.1])
        assert st.base_rtt[0] == pytest.approx(0.1)


class TestPsiFormulas:
    def test_lia_symmetric_is_one(self):
        st = state([10, 10], [0.05, 0.05])
        assert list(psi_lia(st)) == pytest.approx([1.0, 1.0])

    def test_lia_favours_best_path(self):
        st = state([20, 10], [0.05, 0.05])
        psi = psi_lia(st)
        assert psi[1] == pytest.approx(2.0)  # max w / w_r
        assert psi[0] == pytest.approx(1.0)

    def test_olia_is_identity(self):
        st = state([3, 7, 11], [0.02, 0.05, 0.08])
        assert list(psi_olia(st)) == [1.0, 1.0, 1.0]

    def test_balia_symmetric_is_one(self):
        st = state([10, 10], [0.05, 0.05])
        assert list(psi_balia(st)) == pytest.approx([1.0, 1.0])

    def test_balia_expansion(self):
        st = state([10, 20], [0.05, 0.05])
        alpha = 2.0
        assert psi_balia(st)[0] == pytest.approx(0.4 + alpha / 2 + alpha**2 / 10)

    def test_ewtcp_value(self):
        st = state([10, 10], [0.05, 0.05])
        x = 200.0
        expected = (2 * x) ** 2 / (x**2 * np.sqrt(2))
        assert psi_ewtcp(st)[0] == pytest.approx(expected)

    def test_coupled_value(self):
        st = state([10, 30], [0.05, 0.05])
        total_x = 800.0
        expected = 0.05**2 * total_x**2 / 40**2
        assert psi_coupled(st)[0] == pytest.approx(expected)

    def test_ecmtcp_symmetric_is_one(self):
        st = state([10, 10], [0.05, 0.05])
        assert list(psi_ecmtcp(st)) == pytest.approx([1.0, 1.0])

    def test_wvegas_symmetric(self):
        st = state([10, 10], [0.06, 0.06], base=[0.05, 0.05])
        psi = psi_wvegas(st)
        assert psi[0] == pytest.approx(psi[1])
        assert psi[0] > 0

    def test_dts_psi_is_epsilon(self):
        psi = make_psi_dts()
        st = state([10, 10], [0.1, 0.05], base=[0.05, 0.05])
        values = psi(st)
        assert values[0] == pytest.approx(1.0)  # ratio 1/2: centre
        assert values[1] > 1.9  # idle path


class TestCongestionModel:
    def test_per_ack_vs_increase_rate_consistency(self):
        # increase_rate = per_ack * x / rtt  (one ACK per segment).
        model = decomposition("lia")
        st = state([10, 25], [0.03, 0.07])
        per_ack = model.per_ack_increase(st)
        rate = model.increase_rate(st)
        assert list(rate) == pytest.approx(list(per_ack * st.x / st.rtt))

    def test_rate_derivative_at_balance_is_zero(self):
        model = decomposition("olia")
        # psi = 1: balance when 1/(rtt^2 total^2) = 0.5 * p.
        rtt = np.array([0.05, 0.05])
        w = np.array([10.0, 10.0])
        st = ModelState(w=w, rtt=rtt)
        total = st.total_rate
        p = 2.0 / (rtt**2 * total**2) * 0.5 * 2  # solve beta*p = 1/(rtt^2 T^2)
        p = 1.0 / (0.5 * rtt**2 * total**2)
        deriv = model.rate_derivative(st, p)
        assert list(deriv) == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_default_beta_is_half(self):
        model = decomposition("balia")
        st = state([10, 10], [0.05, 0.05])
        assert list(model.beta(st)) == [0.5, 0.5]

    def test_default_phi_is_zero(self):
        model = decomposition("lia")
        st = state([10, 10], [0.05, 0.05])
        assert list(model.phi(st)) == [0.0, 0.0]

    def test_wvegas_has_unit_step(self):
        assert decomposition("wvegas").delta == 1.0
        assert decomposition("lia").delta == 0.0

    def test_all_decompositions_present(self):
        names = set(decompositions())
        assert names == {"ewtcp", "coupled", "lia", "olia", "balia",
                         "ecmtcp", "wvegas", "dts"}

    def test_unknown_decomposition_rejected(self):
        with pytest.raises(ModelError):
            decomposition("bbr")


#: Algorithms whose per-ACK increase is one function the packet controller
#: and the fluid adapter both call, mapped to the name of the printed Eq. 3
#: decomposition it must equal.  Reno is EWTCP on its one path.
CONSISTENT = {"lia": "lia", "balia": "balia", "ecmtcp": "ecmtcp",
              "ewtcp": "ewtcp", "coupled": "coupled", "reno": "ewtcp",
              "dts": "dts", "olia": "olia"}


def consistency_state(name, rng):
    """A random congestion-avoidance state ``(w, rtt, base_rtt)`` on which
    the three statements of ``name`` describe the same rule."""
    n = 1 if name == "reno" else int(rng.integers(2, 5))
    w = rng.uniform(2.0, 200.0, n)
    rtt = rng.uniform(0.01, 0.3, n)
    if name == "olia":
        # Loss-free paths of equal quality up to 1/RTT, the best of them
        # already holding the largest window: alpha_r = 0, which is the
        # psi_r = 1 form the paper decomposes.
        w, rtt = np.sort(w)[::-1], np.sort(rtt)
    base = rtt * rng.uniform(0.3, 1.0, n) if name == "dts" else None
    return w, rtt, base


class _RecordingWindow(float):
    """A congestion window that remembers what ``on_ack`` added to it:
    ``cwnd - before`` would round the increase away."""

    def __add__(self, increase):
        self.added = increase
        return float(self) + increase


def per_ack_increase_by_layer(name, w, rtt, base=None):
    """Subflow 0's window increase for one ACK as each layer states it:
    (packet ``on_ack``'s addend, fluid adapter, Eq. 3 decomposition)."""
    from repro.algorithms import create_controller
    from repro.fluidsim import create_fluid_algorithm
    from tests.test_controllers import FakeSubflow
    from tests.test_fluidsim import cohort_state

    subflows = [FakeSubflow(wi, ri, None if base is None else base[i])
                for i, (wi, ri) in enumerate(zip(w, rtt))]
    ctrl = create_controller(name)
    ctrl.attach(subflows)
    subflows[0].cwnd = window = _RecordingWindow(w[0])
    ctrl.on_ack(subflows[0])
    packet = window.added
    assert subflows[0].cwnd == w[0] + packet

    fluid = create_fluid_algorithm(name).per_ack_increase(
        cohort_state(w, rtt, base))[0]

    model = decomposition(CONSISTENT[name]).per_ack_increase(
        state(w, rtt, base))[0]
    if name == "lia":
        # RFC 6356's TCP-friendliness cap sits outside psi_r.
        model = min(model, 1.0 / w[0])
    return packet, fluid, model


class TestControllerModelConsistency:
    """The packet controller and the fluid adapter call one rule, so they
    agree to the bit wherever they gather the same aggregates; the rule
    equals the model's printed translation."""

    @pytest.mark.parametrize("name", sorted(CONSISTENT))
    def test_per_ack_increase_matches_decomposition(self, name, monkeypatch):
        # DTS' psi_r carries Eq. 5's exponential, and ``math.exp`` (on_ack)
        # and ``np.exp`` (a cohort) are different libms: pin one, as
        # tests/test_one_body.py does, to compare the rule and not the libm.
        monkeypatch.setattr("repro._scalar.exp", np.exp)
        rng = np.random.default_rng(16)
        exact = 0
        for _ in range(100):
            w, rtt, base = consistency_state(name, rng)
            packet, fluid, model = per_ack_increase_by_layer(name, w, rtt, base)
            assert packet == pytest.approx(model, rel=1e-9)
            if len(w) <= 2:
                assert packet == fluid
                exact += 1
            else:
                # Over three or more subflows ``sum()`` adds left to right
                # and ``np.add.reduceat`` does not: sum_k x_k itself differs
                # in the last ulp, and the rule squares it.
                assert packet == pytest.approx(fluid, rel=1e-14)
        assert exact >= 25

    def test_dts_matches_decomposition(self):
        packet, fluid, model = per_ack_increase_by_layer(
            "dts", [12.0, 28.0], [0.06, 0.08], [0.03, 0.08])
        assert packet == pytest.approx(fluid, rel=1e-15)  # two libms
        assert packet == pytest.approx(model, rel=1e-9)
