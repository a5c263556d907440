"""Shape tests for the figure harnesses at reduced scale.

These run the same code paths as the paper-scale regeneration
(``python -m repro.bench --figure N``) on a smaller tree so they fit in
a test run, and assert the figures' qualitative shapes.
"""

import pytest

from repro.bench import figure4, figure5, figure6, figure7, reliability_sweep
from repro.errors import ReproError

SMALL = dict(arity=6, trials=2, seed=0)
RATES = (0.1, 0.5, 1.0)


class TestReliabilitySweep:
    def test_row_structure(self):
        rows = reliability_sweep(
            RATES, arity=6, depth=3, redundancy=2, fanout=2, trials=2
        )
        assert [row["matching_rate"] for row in rows] == list(RATES)
        for row in rows:
            assert 0.0 <= row["delivery"] <= 1.0
            assert 0.0 <= row["false_reception"] <= 1.0
            assert row["messages"] > 0

    def test_invalid_trials(self):
        with pytest.raises(ReproError):
            reliability_sweep(RATES, 6, 3, 2, 2, trials=0)

    def test_deterministic_under_seed(self):
        kwargs = dict(arity=5, depth=3, redundancy=2, fanout=2, trials=2,
                      seed=42)
        assert reliability_sweep(RATES, **kwargs) == reliability_sweep(
            RATES, **kwargs
        )


class TestFigure4:
    def test_shape(self):
        result = figure4(matching_rates=RATES, **SMALL)
        simulated = result.get_series("simulated")
        # High matching rates deliver nearly always; the small rate sits
        # below (the §5.1 droop).
        assert simulated.y_at(1.0) > 0.95
        assert simulated.y_at(0.5) > 0.9
        assert simulated.y_at(0.1) <= simulated.y_at(1.0)
        # The analytical series exists on the same grid.
        assert result.get_series("analysis").xs == simulated.xs


class TestFigure5:
    def test_shape(self):
        result = figure5(matching_rates=RATES, **SMALL)
        simulated = result.get_series("simulated")
        # Bounded well below flooding — the ceiling is the delegate
        # share R/a = 3/6, with slack — and vanishing at p_d = 1.
        assert simulated.y_at(1.0) == pytest.approx(0.0, abs=1e-9)
        for rate in RATES:
            assert simulated.y_at(rate) <= 1.5 * 3 / 6
        # The hump: moderate rates touch more uninterested delegates
        # than either extreme.
        assert simulated.y_at(0.5) > simulated.y_at(0.1) > simulated.y_at(1.0)


class TestFigure6:
    def test_shape(self):
        result = figure6(
            arities=(6, 9, 12), matching_rates=(0.5, 0.2), trials=2, seed=0
        )
        high = result.get_series("Matching Rate 0.5")
        low = result.get_series("Matching Rate 0.2")
        for arity in (6.0, 9.0, 12.0):
            # Paper shape: delivery >= ~0.9 across the sweep, the
            # low-rate series at or below the high-rate one.
            assert high.y_at(arity) > 0.9
            assert low.y_at(arity) > 0.8
            assert low.y_at(arity) <= high.y_at(arity) + 0.05


class TestFigure7:
    def test_tuning_lifts_small_rates(self):
        rates = (0.02, 0.05, 0.5, 1.0)
        result = figure7(
            matching_rates=rates, threshold_h=8, arity=8, trials=3, seed=0
        )
        original = result.get_series("Original")
        improved = result.get_series("Improved")
        # The gap concentrates at small p_d...
        assert improved.y_at(0.02) > original.y_at(0.02)
        assert improved.y_at(0.05) >= original.y_at(0.05) - 0.02
        # ...and the curves coincide for large p_d.
        for rate in (0.5, 1.0):
            assert improved.y_at(rate) == pytest.approx(
                original.y_at(rate), abs=0.05
            )

    def test_compromise_reported(self):
        result = figure7(
            matching_rates=(0.02,), threshold_h=8, arity=8, trials=2, seed=1
        )
        original_fr = result.get_series("Original false-reception")
        improved_fr = result.get_series("Improved false-reception")
        # Tuning gossips to non-interested processes: reception rises.
        assert improved_fr.y_at(0.02) >= original_fr.y_at(0.02)
