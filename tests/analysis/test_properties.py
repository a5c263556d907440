"""Property-based invariants of the §4 analysis (hypothesis).

Each property is a mathematical fact the closed-form models must obey
for *every* admissible parameter choice, not just the pinned examples
of the unit suites: stochasticity of the Eq 9 chain, monotonicity of
expected infection in time and fanout, and probability-ness of the
Eq 18 reliability degree.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    delivery_probability,
    expected_infected,
    state_distribution,
    transition_matrix,
)

COMMON = settings(max_examples=50, deadline=None, derandomize=True)

sizes = st.floats(min_value=1.0, max_value=24.0)
fanouts = st.floats(min_value=0.5, max_value=8.0)
losses = st.floats(min_value=0.0, max_value=0.5)
crashes = st.floats(min_value=0.0, max_value=0.5)
rates = st.floats(min_value=0.05, max_value=1.0)


class TestMarkovProperties:
    @COMMON
    @given(n=sizes, fanout=fanouts, eps=losses, tau=crashes)
    def test_transition_rows_are_distributions(
        self, n, fanout, eps, tau
    ):
        matrix = transition_matrix(n, fanout, eps, tau)
        assert np.all(np.isfinite(matrix))
        assert np.all(matrix >= 0.0)
        np.testing.assert_allclose(
            matrix.sum(axis=1), 1.0, atol=1e-9
        )

    @COMMON
    @given(n=sizes, fanout=fanouts, eps=losses,
           rounds=st.integers(min_value=0, max_value=8))
    def test_expected_infected_monotone_in_rounds(
        self, n, fanout, eps, rounds
    ):
        earlier = expected_infected(n, fanout, rounds, eps)
        later = expected_infected(n, fanout, rounds + 1, eps)
        assert later >= earlier - 1e-9

    @COMMON
    @given(n=sizes, eps=losses,
           fanout=st.floats(min_value=0.5, max_value=7.0),
           rounds=st.integers(min_value=1, max_value=6))
    def test_expected_infected_monotone_in_fanout(
        self, n, fanout, eps, rounds
    ):
        smaller = expected_infected(n, fanout, rounds, eps)
        larger = expected_infected(n, fanout + 0.5, rounds, eps)
        assert larger >= smaller - 1e-9

    @COMMON
    @given(n=sizes, fanout=fanouts, eps=losses, tau=crashes,
           rounds=st.integers(min_value=0, max_value=8))
    def test_state_distribution_is_a_distribution(
        self, n, fanout, eps, tau, rounds
    ):
        dist = state_distribution(n, fanout, rounds, eps, tau)
        assert np.all(dist >= -1e-12)
        assert abs(dist.sum() - 1.0) < 1e-9


class TestTreeProperties:
    @COMMON
    @given(rate=rates,
           arity=st.integers(min_value=2, max_value=6),
           depth=st.integers(min_value=1, max_value=3),
           redundancy=st.integers(min_value=1, max_value=3),
           fanout=st.integers(min_value=1, max_value=6),
           eps=losses, tau=crashes)
    def test_delivery_probability_is_a_probability(
        self, rate, arity, depth, redundancy, fanout, eps, tau
    ):
        value = delivery_probability(
            rate, arity, depth, redundancy, fanout, eps, tau
        )
        assert 0.0 <= value <= 1.0
