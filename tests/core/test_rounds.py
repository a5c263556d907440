"""Tests for Pittel's round estimate (Eq 3) and its adjustments (Eq 11)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.config import PmcastConfig
from repro.core.rounds import (
    depth_round_bound,
    loss_adjusted_rounds,
    pittel_rounds,
    round_bound,
)
from repro.errors import AnalysisError


class TestPittelRounds:
    def test_reference_value(self):
        # T(n, F) = ln n (1/F + 1/ln(F+1)); n=10000, F=2:
        expected = math.log(10000) * (0.5 + 1 / math.log(3))
        assert pittel_rounds(10000, 2) == pytest.approx(expected)

    def test_constant_added(self):
        assert pittel_rounds(100, 2, c=3.0) == pytest.approx(
            pittel_rounds(100, 2) + 3.0
        )

    def test_collapse_for_tiny_groups(self):
        # The §5.1 breakdown: n <= 1 yields just the constant.
        assert pittel_rounds(1.0, 2) == 0.0
        assert pittel_rounds(0.5, 2) == 0.0
        assert pittel_rounds(1.0, 2, c=1.5) == 1.5

    def test_zero_fanout_never_completes(self):
        assert math.isinf(pittel_rounds(100, 0))

    def test_monotone_in_group_size(self):
        assert pittel_rounds(10000, 2) > pittel_rounds(100, 2)

    def test_monotone_in_fanout(self):
        assert pittel_rounds(10000, 2) > pittel_rounds(10000, 4)

    def test_negative_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            pittel_rounds(-1, 2)
        with pytest.raises(AnalysisError):
            pittel_rounds(10, -2)

    @given(
        st.floats(min_value=1.5, max_value=1e6),
        st.floats(min_value=0.1, max_value=64),
    )
    def test_always_nonnegative_finite(self, n, fanout):
        value = pittel_rounds(n, fanout)
        assert value >= 0.0
        assert math.isfinite(value)


class TestLossAdjustedRounds:
    def test_no_loss_is_plain_pittel(self):
        assert loss_adjusted_rounds(1000, 3) == pittel_rounds(1000, 3)

    def test_eq11_scaling(self):
        # T_f(n, F) = T(n(1-eps)(1-tau), F(1-eps)(1-tau))
        scale = (1 - 0.1) * (1 - 0.05)
        assert loss_adjusted_rounds(1000, 3, 0.1, 0.05) == pytest.approx(
            pittel_rounds(1000 * scale, 3 * scale)
        )

    def test_loss_increases_rounds(self):
        assert loss_adjusted_rounds(1000, 3, 0.3) > pittel_rounds(1000, 3)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(AnalysisError):
            loss_adjusted_rounds(100, 2, loss_probability=1.0)
        with pytest.raises(AnalysisError):
            loss_adjusted_rounds(100, 2, crash_fraction=-0.1)


class TestRoundBound:
    def test_ceiling(self):
        assert round_bound(3.2) == 4
        assert round_bound(3.0) == 3

    def test_clamping(self):
        assert round_bound(0.0, minimum=2) == 2
        assert round_bound(100.0, maximum=10) == 10
        assert round_bound(math.inf, maximum=7) == 7

    def test_invalid_clamp(self):
        with pytest.raises(AnalysisError):
            round_bound(1.0, minimum=5, maximum=2)
        with pytest.raises(AnalysisError):
            round_bound(1.0, minimum=-1)

    @given(
        st.floats(min_value=0, max_value=1e3),
        st.integers(0, 5),
        st.integers(5, 100),
    )
    def test_bound_respects_clamp(self, estimate, minimum, maximum):
        bound = round_bound(estimate, minimum, maximum)
        assert minimum <= bound <= maximum


class TestDepthRoundBound:
    """Figure 3 line 7, the one definition every execution path uses."""

    def test_is_the_clamped_pittel_estimate(self):
        config = PmcastConfig(
            fanout=3, min_rounds_per_depth=2, max_rounds_per_depth=9
        )
        assert depth_round_bound(66, 0.5, config) == round_bound(
            pittel_rounds(33.0, 1.5, config.pittel_c), 2, 9
        )
        # Nobody interested: T(0, 0) = 0, floored at the minimum.
        assert depth_round_bound(66, 0.0, config) == 2

    def test_loss_aware_config_uses_eq_11(self):
        config = PmcastConfig(
            fanout=3,
            loss_aware_rounds=True,
            assumed_loss=0.2,
            assumed_crash=0.1,
        )
        assert depth_round_bound(66, 1.0, config) == round_bound(
            loss_adjusted_rounds(66.0, 3.0, 0.2, 0.1, config.pittel_c),
            config.min_rounds_per_depth,
            config.max_rounds_per_depth,
        )
