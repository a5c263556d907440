"""Tests for the flat-group infection chain (Eqs 8-10)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    InfectionChain,
    expected_infected,
    reach_probability,
    state_distribution,
    transition_matrix,
)
from repro.errors import AnalysisError


class TestReachProbability:
    def test_eq8_value(self):
        # p = (F / (n-1)) (1-eps)(1-tau)
        assert reach_probability(101, 2, 0.1, 0.05) == pytest.approx(
            (2 / 100) * 0.9 * 0.95
        )

    def test_capped_at_one_factor(self):
        # Tiny group: F > n-1 means the peer is certainly targeted.
        assert reach_probability(2, 5) == 1.0
        assert reach_probability(2, 5, loss_probability=0.2) == pytest.approx(0.8)

    def test_single_process_group(self):
        assert reach_probability(1, 3) == 0.0
        assert reach_probability(0.4, 3) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            reach_probability(10, -1)
        with pytest.raises(AnalysisError):
            reach_probability(10, 2, loss_probability=1.0)
        with pytest.raises(AnalysisError):
            reach_probability(-5, 2)


class TestTransitionMatrix:
    def test_rows_are_distributions(self):
        matrix = transition_matrix(20, 2)
        sums = matrix.sum(axis=1)
        assert np.allclose(sums, 1.0)

    def test_infection_never_recedes(self):
        matrix = transition_matrix(15, 3)
        for j in range(matrix.shape[0]):
            assert np.all(matrix[j, :j] == 0.0)

    def test_state_zero_absorbing(self):
        matrix = transition_matrix(10, 2)
        assert matrix[0, 0] == 1.0

    def test_fractional_size_rounded(self):
        assert transition_matrix(9.6, 2).shape == (11, 11)

    @given(
        st.integers(2, 40),
        st.floats(min_value=0.1, max_value=8.0),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_stochastic_for_any_parameters(self, n, fanout, loss):
        matrix = transition_matrix(n, fanout, loss_probability=loss)
        assert np.all(matrix >= 0.0)
        assert np.allclose(matrix.sum(axis=1), 1.0)


class TestStateDistribution:
    def test_round_zero_is_one_infected(self):
        distribution = state_distribution(10, 2, rounds=0)
        assert distribution[1] == 1.0

    def test_distribution_sums_to_one_over_rounds(self):
        for rounds in (1, 3, 8):
            distribution = state_distribution(12, 2, rounds)
            assert distribution.sum() == pytest.approx(1.0)

    def test_expected_infected_monotone_in_rounds(self):
        values = [expected_infected(30, 2, t) for t in range(8)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_saturates_near_group_size(self):
        assert expected_infected(20, 3, 30) == pytest.approx(20, abs=0.1)

    def test_loss_slows_infection(self):
        lossless = expected_infected(30, 2, 5)
        lossy = expected_infected(30, 2, 5, loss_probability=0.4)
        assert lossy < lossless

    def test_crash_slows_infection(self):
        healthy = expected_infected(30, 2, 5)
        crashing = expected_infected(30, 2, 5, crash_fraction=0.3)
        assert crashing < healthy

    def test_negative_rounds_rejected(self):
        with pytest.raises(AnalysisError):
            state_distribution(10, 2, -1)

    def test_pittel_bound_mostly_infects(self):
        # Running the chain for the Eq 3 round count should infect the
        # bulk of the group — the two models agree.
        from repro.analysis import pittel_rounds
        import math

        n, fanout = 100, 3
        rounds = math.ceil(pittel_rounds(n, fanout))
        assert expected_infected(n, fanout, rounds) > 0.9 * n


class TestInfectionChain:
    def test_wrapper_consistency(self):
        chain = InfectionChain(25, 2, 0.1, 0.0)
        assert chain.expected_after(4) == pytest.approx(
            expected_infected(25, 2, 4, 0.1, 0.0)
        )
        assert np.allclose(chain.after(4),
                           state_distribution(25, 2, 4, 0.1, 0.0))
        assert chain.after(4).shape == (26,)
