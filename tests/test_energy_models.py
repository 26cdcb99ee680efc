"""Energy model tests: CPU, radios, mobile device, switches, accounting."""

import pytest
from hypothesis import given, strategies as st

from repro import _scalar
from repro.energy.accounting import TransferEnergyAccount, transfer_energy
from repro.energy.cpu import (
    HostPowerModel,
    WiredPathPower,
    WirelessPathPower,
    default_wired_host,
    default_wireless_host,
)
from repro.energy.mobile import nexus5
from repro.energy.nic import LteRadio, WifiRadio
from repro.energy.switch import SwitchPowerModel
from repro.errors import ConfigurationError
from repro.units import mb, mbps


class TestWiredCalibration:
    def test_fifteen_percent_rise_200_to_1000(self):
        host = default_wired_host()
        p200 = host.power([(mbps(200), 0.02)])
        p1000 = host.power([(mbps(1000), 0.02)])
        assert (p1000 - p200) / p200 == pytest.approx(0.15, abs=0.01)

    def test_nonlinear_concave(self):
        model = WiredPathPower()
        # Doubling the throughput less than doubles the marginal power.
        assert model.marginal_power(_scalar, mbps(800)) < 2 * model.marginal_power(_scalar, mbps(400))

    def test_monotone_in_throughput(self):
        model = WiredPathPower()
        powers = [model.marginal_power(_scalar, mbps(b)) for b in (100, 300, 600, 1000)]
        assert powers == sorted(powers)

    def test_zero_throughput_zero_marginal(self):
        assert WiredPathPower().marginal_power(_scalar, 0) == 0.0


class TestWirelessCalibration:
    def test_ninety_percent_rise_10_to_50(self):
        host = default_wireless_host()
        # Two paths carrying half the aggregate each (the Fig. 3b setup).
        p10 = host.power([(mbps(5), 0.03), (mbps(5), 0.03)])
        p50 = host.power([(mbps(25), 0.03), (mbps(25), 0.03)])
        assert (p50 - p10) / p10 == pytest.approx(0.9, abs=0.1)

    def test_linear_above_duty_cycle_knee(self):
        model = WirelessPathPower()
        p20 = model.marginal_power(_scalar, mbps(20))
        p40 = model.marginal_power(_scalar, mbps(40))
        p60 = model.marginal_power(_scalar, mbps(60))
        assert p40 - p20 == pytest.approx(p60 - p40, rel=1e-6)

    def test_duty_cycle_discounts_trickle(self):
        model = WirelessPathPower()
        trickle = model.marginal_power(_scalar, mbps(0.1))
        active = model.marginal_power(_scalar, mbps(5))
        assert trickle < 0.2 * active


class TestRttFactor:
    def test_power_rises_with_rtt(self):
        model = WiredPathPower()
        low = model.power(mbps(100), 0.02)
        high = model.power(mbps(100), 0.2)
        assert high > low

    def test_no_penalty_below_reference(self):
        model = WiredPathPower()
        assert model.power(mbps(100), 0.01) == pytest.approx(
            model.power(mbps(100), 0.04)
        )

    def test_negative_inputs_rejected(self):
        model = WiredPathPower()
        with pytest.raises(ConfigurationError):
            model.power(-1, 0.05)
        with pytest.raises(ConfigurationError):
            model.power(mbps(10), -0.05)

    @given(st.floats(min_value=0, max_value=1e9),
           st.floats(min_value=0, max_value=2.0))
    def test_property_power_nonnegative(self, tau, rtt):
        assert WiredPathPower().power(tau, rtt) >= 0.0


class TestHostModel:
    def test_subflow_overhead(self):
        host = default_wired_host()
        base = host.power([(mbps(100), 0.02)], n_subflows=1)
        more = host.power([(mbps(100), 0.02)], n_subflows=5)
        assert more - base == pytest.approx(4 * host.subflow_overhead_w)

    def test_splitting_fixed_rate_increases_power(self):
        # Concave per-path power: MPTCP splitting costs more (Fig. 1).
        host = default_wired_host()
        single = host.power([(mbps(200), 0.02)])
        split = host.power([(mbps(100), 0.02), (mbps(100), 0.02)])
        assert split > single

    def test_mptcp_exceeds_tcp_at_same_aggregate(self):
        host = default_wired_host()
        tcp = host.power([(mbps(100), 0.02)])
        mptcp = host.power([(mbps(50), 0.02), (mbps(50), 0.02)], n_subflows=2)
        assert mptcp > tcp


class TestRadios:
    def test_wifi_active_power_formula(self):
        radio = WifiRadio()
        watts = radio.active_power(mbps(10))
        assert watts == pytest.approx((132.86 + 137.01 * 10) / 1000)

    def test_lte_base_exceeds_wifi(self):
        assert LteRadio().active_power(0.1) > WifiRadio().active_power(0.1)

    def test_lte_overhead_includes_promotion_and_tail(self):
        lte = LteRadio()
        expected = (1210.7 * 0.26 + 1060.0 * 11.576) / 1000
        assert lte.fixed_overhead_energy() == pytest.approx(expected)

    def test_wifi_overhead_negligible(self):
        assert WifiRadio().fixed_overhead_energy() == 0.0

    def test_transfer_energy_includes_overheads(self):
        lte = LteRadio()
        energy = lte.transfer_energy(mb(10), mbps(10))
        duration = mb(10) * 8 / mbps(10)
        assert energy == pytest.approx(
            lte.active_power(mbps(10)) * duration + lte.fixed_overhead_energy()
        )

    def test_transfer_energy_validates_rate(self):
        with pytest.raises(ConfigurationError):
            WifiRadio().transfer_energy(mb(1), 0)

    def test_lte_tail_state_machine(self):
        lte = LteRadio()
        active = lte.power_at(10.0, mbps(5))
        tail = lte.power_at(15.0, 0.0)
        idle = lte.power_at(40.0, 0.0)
        assert active > tail > idle
        assert tail == pytest.approx(1.060)


class TestMobileDevice:
    def test_mptcp_pays_for_both_radios(self):
        phone = nexus5()
        wifi_only = phone.transfer_power({"wifi": mbps(8)})
        both = phone.transfer_power({"wifi": mbps(8), "lte": mbps(8)})
        assert both > wifi_only + 0.5  # at least the LTE beta difference

    def test_idle_radio_still_draws_idle_power(self):
        phone = nexus5()
        power = phone.transfer_power({"wifi": mbps(8)})
        assert power > WifiRadio().active_power(mbps(8))  # + baseline + lte idle

    def test_unknown_radio_rejected(self):
        with pytest.raises(ConfigurationError):
            nexus5().transfer_power({"bluetooth": mbps(1)})

    def test_transfer_energy_requires_traffic(self):
        with pytest.raises(ConfigurationError):
            nexus5().transfer_energy(mb(1), {"wifi": 0.0})

    def test_transfer_energy_scales_with_data(self):
        phone = nexus5()
        small = phone.transfer_energy(mb(1), {"wifi": mbps(8)},
                                      include_overheads=False)
        large = phone.transfer_energy(mb(2), {"wifi": mbps(8)},
                                      include_overheads=False)
        assert large == pytest.approx(2 * small)


class TestSwitch:
    def test_port_power_bounds(self):
        model = SwitchPowerModel()
        assert model.port_power(_scalar, 0.0) == model.port_idle_w
        assert model.port_power(_scalar, 1.0) == model.port_max_w
        assert model.port_power(_scalar, 2.0) == model.port_max_w  # clamped

    def test_total_power(self):
        model = SwitchPowerModel(chassis_w=10, port_idle_w=1, port_max_w=2)
        assert model.power([0.0, 1.0]) == pytest.approx(10 + 1 + 2)

    def test_energy(self):
        model = SwitchPowerModel(chassis_w=10, port_idle_w=0, port_max_w=0)
        assert model.energy([], 5.0) == pytest.approx(50.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            SwitchPowerModel().energy([], -1.0)

    def test_invalid_port_range_rejected(self):
        with pytest.raises(ConfigurationError):
            SwitchPowerModel(port_idle_w=2.0, port_max_w=1.0)

class TestAccounting:
    def test_transfer_energy_eq2(self):
        host = HostPowerModel(path_model=WiredPathPower(), idle_w=10,
                              subflow_overhead_w=0)
        paths = [(mbps(50), 0.02), (mbps(50), 0.02)]
        duration = mb(10) * 8 / mbps(100)
        assert transfer_energy(mb(10), host, paths) == pytest.approx(
            host.power(paths) * duration
        )

    def test_transfer_energy_requires_throughput(self):
        host = default_wired_host()
        with pytest.raises(ConfigurationError):
            transfer_energy(mb(1), host, [(0.0, 0.02)])

    def test_higher_throughput_means_less_energy(self):
        # The Fig. 3(a) claim: energy falls with throughput.
        host = default_wired_host()
        slow = transfer_energy(mb(100), host, [(mbps(100), 0.02), (mbps(100), 0.02)])
        fast = transfer_energy(mb(100), host, [(mbps(500), 0.02), (mbps(500), 0.02)])
        assert fast < slow


def trapezoid(times, powers):
    """Trapezoidal integral of a power series, summed left to right."""
    energy = 0.0
    for i in range(1, len(times)):
        energy += 0.5 * (powers[i] + powers[i - 1]) * (times[i] - times[i - 1])
    return energy


class TestTransferEnergyAccount:
    """The account keeps totals, not the series; the numbers must be the
    ones the series gave, bit for bit (same left-to-right additions)."""

    @staticmethod
    def _feed(samples):
        host = default_wired_host()
        account = TransferEnergyAccount(host)
        powers = [account.sample(t, paths) for t, paths in samples]
        assert powers == [host.power(paths) for _, paths in samples]
        return account, [t for t, _ in samples], powers

    def test_irregular_intervals_match_the_series_integral(self):
        samples = [
            (10.0, [(0.0, 0.05), (0.0, 0.05)]),
            (10.013, [(mbps(80), 0.021), (mbps(15), 0.048)]),
            (10.061, [(mbps(410), 0.019), (mbps(95), 0.044)]),
            (10.0625, [(mbps(3), 0.2), (mbps(0.4), 0.3)]),
            (10.9, [(mbps(733), 0.0007), (mbps(512), 0.0011)]),
        ]
        account, times, powers = self._feed(samples)
        assert account.energy_j == trapezoid(times, powers)
        assert account.mean_power_w == sum(powers) / len(powers)
        assert account.samples == 5

    def test_zero_dt_sample_adds_no_energy_but_counts_in_the_mean(self):
        paths_a = [(mbps(100), 0.02)]
        paths_b = [(mbps(900), 0.02)]
        account, _, powers = self._feed(
            [(1.0, paths_a), (1.5, paths_a), (1.5, paths_b), (2.0, paths_b)])
        # The repeated timestamp is a step in power, not a negative or
        # double-counted interval.
        assert account.energy_j == 0.5 * powers[0] + 0.5 * powers[3]
        assert account.mean_power_w == sum(powers) / 4

    def test_single_sample_anchors_without_energy(self):
        account, _, powers = self._feed([(3.0, [(mbps(50), 0.02)])])
        assert account.energy_j == 0.0
        assert account.mean_power_w == powers[0]

    def test_empty_account(self):
        account = TransferEnergyAccount(default_wired_host())
        assert account.energy_j == 0.0 and account.mean_power_w == 0.0
