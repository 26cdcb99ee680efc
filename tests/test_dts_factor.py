"""Tests for the DTS factor (Eq. 5) and Algorithm 1's Taylor form."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.dts import (
    DtsFactorConfig,
    epsilon_exact,
    epsilon_taylor,
    rtt_ratio,
    taylor_absolute_error,
)
from repro.errors import ModelError


class TestRttRatio:
    def test_idle_path_is_one(self):
        assert rtt_ratio(0.05, 0.05) == 1.0

    def test_clamped_above(self):
        assert rtt_ratio(0.06, 0.05) == 1.0

    def test_congested_path_below_one(self):
        assert rtt_ratio(0.05, 0.2) == pytest.approx(0.25)

    def test_no_sample_defaults_to_one(self):
        assert rtt_ratio(float("inf"), 0.05) == 1.0
        assert rtt_ratio(0.0, 0.05) == 1.0

    def test_nonpositive_rtt_rejected(self):
        with pytest.raises(ModelError):
            rtt_ratio(0.05, 0.0)


class TestExactEpsilon:
    def test_center_value_is_one(self):
        # At ratio = 1/2 the sigmoid is exactly half its ceiling.
        assert epsilon_exact(1.0, 2.0) == pytest.approx(1.0)

    def test_idle_path_close_to_two(self):
        assert epsilon_exact(0.05, 0.05) == pytest.approx(2 / (1 + math.exp(-5)))

    def test_deeply_congested_near_zero(self):
        assert epsilon_exact(0.01, 1.0) < 0.02

    def test_monotone_in_ratio(self):
        values = [DtsFactorConfig().epsilon(1.0, r) for r in (10.0, 5.0, 2.0, 1.25, 1.0)]
        assert values == sorted(values)

    def test_bounded_by_ceiling(self):
        for rtt in (0.05, 0.1, 0.5, 5.0):
            assert 0.0 < epsilon_exact(0.05, rtt) < 2.0

    def test_custom_slope_and_center(self):
        # Gentler slope moves the idle value down.
        steep = epsilon_exact(0.05, 0.05, slope=10)
        gentle = epsilon_exact(0.05, 0.05, slope=2)
        assert gentle < steep

    @given(st.floats(min_value=0.001, max_value=1.0))
    def test_property_bounds(self, ratio):
        value = epsilon_exact(ratio, 1.0)
        assert 0.0 < value < 2.0

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.001, max_value=0.01))
    def test_property_monotonicity(self, ratio, step):
        lower = epsilon_exact(ratio, 1.0)
        higher = epsilon_exact(min(ratio + step, 1.0), 1.0)
        assert higher >= lower


class TestTaylorEpsilon:
    def test_matches_exact_at_center(self):
        # u = 0: the cubic is exact there.
        assert epsilon_taylor(0.5, 1.0) == pytest.approx(epsilon_exact(0.5, 1.0))

    def test_close_to_exact_near_center(self):
        for ratio in (0.4, 0.45, 0.5, 0.55, 0.6):
            assert taylor_absolute_error(ratio) < 0.05

    def test_diverges_at_extremes_but_stays_bounded(self):
        # The kernel's cubic is a poor fit at ratio -> 1, but must stay in
        # (0, 2).
        for ratio in (0.05, 0.95, 1.0):
            value = epsilon_taylor(ratio, 1.0)
            assert 0.0 < value < 2.0

    def test_clamps_negative_cubic(self):
        # Deep congestion drives the raw cubic negative; clamp keeps eps > 0.
        assert epsilon_taylor(0.01, 1.0) > 0.0

    def test_monotone_over_practical_range(self):
        ratios = [0.3, 0.4, 0.5, 0.6, 0.7]
        values = [epsilon_taylor(r, 1.0) for r in ratios]
        assert values == sorted(values)

    def test_error_helper_validates_input(self):
        with pytest.raises(ModelError):
            taylor_absolute_error(0.0)


class TestConfig:
    def test_defaults_are_papers(self):
        cfg = DtsFactorConfig()
        assert cfg.slope == 10.0
        assert cfg.center == 0.5
        assert cfg.ceiling == 2.0
        assert not cfg.use_taylor

    def test_taylor_dispatch(self):
        cfg = DtsFactorConfig(use_taylor=True)
        assert cfg.epsilon(0.5, 1.0) == pytest.approx(epsilon_taylor(0.5, 1.0))

    def test_exact_dispatch(self):
        cfg = DtsFactorConfig()
        assert cfg.epsilon(0.4, 1.0) == pytest.approx(epsilon_exact(0.4, 1.0))

    def test_invalid_slope_rejected(self):
        with pytest.raises(ModelError):
            DtsFactorConfig(slope=0)

    def test_invalid_ceiling_rejected(self):
        with pytest.raises(ModelError):
            DtsFactorConfig(ceiling=-1)

    def test_expectation_near_one_with_uniform_ratio(self):
        # The paper's TCP-friendliness argument: E[eps] = 1 when the ratio
        # is uniform on (0, 1) (its "expectation is 1/2" reading).
        import numpy as np

        ratios = np.linspace(0.001, 1.0, 20001)
        mean = float(np.mean([epsilon_exact(r, 1.0) for r in ratios]))
        assert mean == pytest.approx(1.0, abs=0.05)
