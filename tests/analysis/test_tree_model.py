"""Tests for the §4.3 tree propagation model (Eqs 7, 12, 14-18)."""

import numpy as np
import pytest

from repro.analysis import (
    analyze_tree,
    entity_count_distribution,
    regular_view_size,
    subgroup_interest_probability,
)
from repro.errors import AnalysisError


class TestEq7:
    def test_leaf_level_is_pd(self):
        assert subgroup_interest_probability(0.3, 22, 3, 3) == pytest.approx(0.3)

    def test_formula(self):
        # p_i = 1 - (1 - p_d)^(a^(d-i))
        assert subgroup_interest_probability(0.1, 10, 3, 1) == pytest.approx(
            1 - 0.9 ** 100
        )

    def test_monotone_toward_root(self):
        probabilities = [
            subgroup_interest_probability(0.05, 10, 3, level)
            for level in (1, 2, 3)
        ]
        assert probabilities[0] > probabilities[1] > probabilities[2]

    def test_pd_one_everywhere_one(self):
        for level in (1, 2, 3):
            assert subgroup_interest_probability(1.0, 5, 3, level) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            subgroup_interest_probability(1.5, 5, 3, 1)
        with pytest.raises(AnalysisError):
            subgroup_interest_probability(0.5, 5, 3, 4)


class TestEq12:
    def test_view_sizes(self):
        assert regular_view_size(22, 3, 3, 1) == 66
        assert regular_view_size(22, 3, 3, 2) == 66
        assert regular_view_size(22, 3, 3, 3) == 22

    def test_out_of_range(self):
        with pytest.raises(AnalysisError):
            regular_view_size(22, 3, 3, 0)


class TestAnalyzeTree:
    def test_full_interest_high_reliability(self):
        analysis = analyze_tree(1.0, 10, 3, 3, 3)
        assert analysis.reliability_degree > 0.95
        assert analysis.group_size == 1000

    def test_reliability_degrades_for_small_rates(self):
        # The §5.1 observation behind Figure 4.
        high = analyze_tree(0.5, 22, 3, 3, 2).reliability_degree
        low = analyze_tree(0.01, 22, 3, 3, 2).reliability_degree
        assert high > 0.85
        assert low < 0.5

    def test_tuning_lifts_small_rates(self):
        # The Figure 7 relationship.
        untuned = analyze_tree(0.01, 22, 3, 3, 2).reliability_degree
        tuned = analyze_tree(0.01, 22, 3, 3, 2, threshold_h=8)
        assert tuned.reliability_degree > untuned

    def test_tuning_neutral_for_large_rates(self):
        untuned = analyze_tree(0.6, 22, 3, 3, 2).reliability_degree
        tuned = analyze_tree(0.6, 22, 3, 3, 2, threshold_h=8).reliability_degree
        assert tuned == pytest.approx(untuned)

    def test_per_depth_vectors_aligned(self):
        analysis = analyze_tree(0.4, 8, 3, 2, 2)
        assert len(analysis.interest_probabilities) == 3
        assert len(analysis.view_sizes) == 3
        assert len(analysis.rounds_per_depth) == 3
        assert len(analysis.node_infection_probabilities) == 3
        assert len(analysis.expected_entities) == 3

    def test_probabilities_in_range(self):
        for rate in (0.01, 0.2, 0.7, 1.0):
            analysis = analyze_tree(rate, 10, 3, 3, 2)
            for r_i in analysis.node_infection_probabilities:
                assert 0.0 <= r_i <= 1.0
            assert 0.0 <= analysis.reliability_degree <= 1.0

    def test_loss_reduces_reliability(self):
        clean = analyze_tree(0.5, 10, 3, 3, 2).reliability_degree
        lossy = analyze_tree(
            0.5, 10, 3, 3, 2, loss_probability=0.4
        ).reliability_degree
        assert lossy <= clean

    def test_eq18_product_structure(self):
        analysis = analyze_tree(0.5, 6, 2, 2, 2)
        # expected_entities accumulates r_i * a * p_i factors.
        first = analysis.node_infection_probabilities[0] * 6 * \
            analysis.interest_probabilities[0]
        assert analysis.expected_entities[0] == pytest.approx(
            max(first, 1.0)
        )
        assert analysis.expected_infected_processes == pytest.approx(
            analysis.expected_entities[-1]
        )

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            analyze_tree(0.5, 0, 3, 3, 2)
        with pytest.raises(AnalysisError):
            analyze_tree(1.5, 10, 3, 3, 2)
        with pytest.raises(AnalysisError):
            analyze_tree(0.5, 10, 3, 3, 2, threshold_h=-1)


class TestEntityDistribution:
    def test_distribution_sums_to_one(self):
        analysis = analyze_tree(0.5, 4, 3, 2, 2)
        for level in (1, 2, 3):
            distribution = entity_count_distribution(analysis, level)
            assert distribution.sum() == pytest.approx(1.0)

    def test_mean_tracks_expected_entities(self):
        analysis = analyze_tree(0.8, 4, 2, 2, 2)
        distribution = entity_count_distribution(analysis, 1)
        mean = float(distribution @ np.arange(len(distribution)))
        assert mean == pytest.approx(
            analysis.expected_entities[0], rel=0.35
        )

    def test_level_out_of_range(self):
        analysis = analyze_tree(0.5, 4, 2, 2, 2)
        with pytest.raises(AnalysisError):
            entity_count_distribution(analysis, 3)
