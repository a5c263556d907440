"""Edge-of-domain behavior of the analysis: n=1, F >= n, ε ∈ {0, ~1}.

Two of these pin regressions fixed in this PR: the ε≈1 underflow that
produced NaN transition rows, and the banker's-rounding drift between
``_effective_size`` and the tree model's susceptible counts.
"""

import math

import numpy as np
import pytest

from repro.analysis import (
    analyze_tree,
    delivery_probability,
    entity_count_distribution,
    expected_infected,
    false_reception_estimate,
    loss_adjusted_rounds,
    pittel_rounds,
    round_bound,
    state_distribution,
    transition_matrix,
)
from repro.analysis.markov import _effective_size
from repro.analysis.tree_model import _round_half_up
from repro.errors import AnalysisError

NEAR_ONE = float(np.nextafter(1.0, 0.0))


class TestDegenerateGroups:
    def test_single_process_chain_is_absorbing(self):
        matrix = transition_matrix(1.0, 3.0)
        assert matrix.shape == (2, 2)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)
        assert matrix[1, 1] == pytest.approx(1.0)
        for rounds in (0, 1, 5):
            assert expected_infected(1.0, 3.0, rounds) == pytest.approx(
                1.0
            )

    def test_fractional_sizes_round_half_up(self):
        # The docs promise half-up; round() is banker's (2.5 -> 2).
        assert _effective_size(2.5) == 3
        assert _effective_size(4.5) == 5
        assert _round_half_up(2.5) == 3
        assert _round_half_up(4.5) == 5
        assert _round_half_up(2.4) == 2

    def test_fanout_at_least_group_size_saturates_in_one_round(self):
        # With F >= n - 1 and no loss every susceptible process is hit.
        dist = state_distribution(4.0, 8.0, 1)
        assert dist[-1] == pytest.approx(1.0)
        assert expected_infected(4.0, 8.0, 1) == pytest.approx(4.0)


class TestLossExtremes:
    def test_zero_loss_matches_unparameterized_chain(self):
        np.testing.assert_allclose(
            transition_matrix(8.0, 3.0, 0.0),
            transition_matrix(8.0, 3.0),
        )

    def test_near_total_loss_keeps_rows_stochastic(self):
        # Regression: p underflowed so that 1 - p == 1.0 while p > 0,
        # and log1p(-1.0) turned whole rows into NaN.
        matrix = transition_matrix(8.0, 3.0, NEAR_ONE)
        assert np.all(np.isfinite(matrix))
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)
        # Nobody can be infected: the chain is frozen.
        np.testing.assert_allclose(np.diag(matrix), 1.0)

    def test_near_total_crash_fraction_freezes_the_chain(self):
        matrix = transition_matrix(8.0, 3.0, 0.0, NEAR_ONE)
        assert np.all(np.isfinite(matrix))
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)

    def test_loss_probability_one_is_rejected(self):
        with pytest.raises(AnalysisError):
            loss_adjusted_rounds(16.0, 3.0, loss_probability=1.0)
        with pytest.raises(AnalysisError):
            loss_adjusted_rounds(16.0, 3.0, crash_fraction=1.0)


class TestPittelEdges:
    def test_nobody_to_infect(self):
        assert pittel_rounds(1.0, 3.0) == 0.0
        assert pittel_rounds(0.0, 3.0) == 0.0
        assert pittel_rounds(1.0, 3.0, c=2.5) == 2.5

    def test_zero_fanout_never_completes(self):
        assert math.isinf(pittel_rounds(16.0, 0.0))
        assert round_bound(pittel_rounds(16.0, 0.0)) == 64

    def test_negative_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            pittel_rounds(-1.0, 3.0)
        with pytest.raises(AnalysisError):
            pittel_rounds(8.0, -1.0)

    def test_round_bound_clamps(self):
        assert round_bound(3.2, minimum=6) == 6
        assert round_bound(100.0, maximum=12) == 12
        with pytest.raises(AnalysisError):
            round_bound(1.0, minimum=5, maximum=4)


class TestDepthOneTrees:
    def test_depth_one_tree_analysis_is_flat_group(self):
        analysis = analyze_tree(1.0, 8, 1, 2, 3)
        assert analysis.depth == 1
        assert len(analysis.expected_entities) == 1
        assert delivery_probability(
            1.0, 8, 1, 2, 3, analysis=analysis
        ) == pytest.approx(analysis.reliability_degree)

    def test_depth_one_entity_distribution_is_valid(self):
        analysis = analyze_tree(0.5, 8, 1, 2, 3)
        dist = entity_count_distribution(analysis, 1)
        assert np.all(dist >= -1e-12)
        assert dist.sum() == pytest.approx(1.0)
        with pytest.raises(AnalysisError):
            entity_count_distribution(analysis, 2)

    def test_full_interest_has_no_false_receptions(self):
        assert false_reception_estimate(1.0, 4, 2, 2, 3) == 0.0
