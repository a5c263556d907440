"""Tests for the interval algebra behind numeric interests."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import PredicateError
from repro.interests.intervals import Interval, IntervalSet


class TestInterval:
    def test_point(self):
        interval = Interval.point(5)
        assert interval.contains(5)
        assert not interval.contains(5.0001)

    def test_open_closed_ends(self):
        interval = Interval(1.0, 2.0, lo_closed=False, hi_closed=True)
        assert not interval.contains(1.0)
        assert interval.contains(1.5)
        assert interval.contains(2.0)

    def test_rays(self):
        assert Interval.at_least(3, closed=False).contains(3.1)
        assert not Interval.at_least(3, closed=False).contains(3)
        assert Interval.at_most(3).contains(3)
        assert not Interval.at_most(3).contains(3.5)

    def test_everything_contains_extremes(self):
        everything = Interval(-math.inf, math.inf, False, False)
        assert everything.contains(-1e300)
        assert everything.contains(1e300)

    def test_empty_intervals_rejected(self):
        with pytest.raises(PredicateError):
            Interval(2.0, 1.0)
        with pytest.raises(PredicateError):
            Interval(1.0, 1.0, lo_closed=False)

    def test_nan_rejected(self):
        with pytest.raises(PredicateError):
            Interval(math.nan, 1.0)

    def test_infinite_endpoints_forced_open(self):
        interval = Interval(-math.inf, 0.0, lo_closed=True)
        assert not interval.lo_closed

    def test_merge_overlapping(self):
        merged = Interval(0, 5).merge(Interval(3, 8))
        assert merged.lo == 0 and merged.hi == 8

    def test_merge_touching_closed_open(self):
        merged = Interval(0, 5).merge(Interval(5, 8, lo_closed=False))
        assert merged.contains(5)
        assert merged.hi == 8

    def test_merge_disjoint_rejected(self):
        with pytest.raises(PredicateError):
            Interval(0, 1).merge(Interval(2, 3))

    def test_touching_open_open_does_not_merge(self):
        left = Interval(0, 1, hi_closed=False)
        right = Interval(1, 2, lo_closed=False)
        with pytest.raises(PredicateError):
            left.merge(right)

    def test_covers(self):
        assert Interval(0, 10).covers(Interval(2, 3))
        assert not Interval(0, 10).covers(Interval(2, 11))
        assert not Interval(0, 10, hi_closed=False).covers(Interval(0, 10))

class TestIntervalSet:
    def test_normalization_merges_overlaps(self):
        merged = IntervalSet([Interval(0, 5), Interval(3, 8), Interval(20, 30)])
        assert len(merged) == 2

    def test_contains_binary_search(self):
        intervals = IntervalSet(
            [Interval(i * 10, i * 10 + 2) for i in range(50)]
        )
        assert intervals.contains(100)
        assert intervals.contains(101.5)
        assert not intervals.contains(105)

    def test_empty_and_everything(self):
        assert IntervalSet.empty().is_empty
        everything = IntervalSet((Interval(-math.inf, math.inf, False, False),))
        assert everything.is_everything
        assert everything.contains(42)
        assert not IntervalSet.empty().contains(42)

    def test_union_is_commutative(self):
        a = IntervalSet([Interval(0, 1), Interval(5, 6)])
        b = IntervalSet([Interval(0.5, 5.5)])
        assert a.union(b) == b.union(a)

    def test_union_merges_into_one(self):
        a = IntervalSet([Interval(0, 1)])
        b = IntervalSet([Interval(1, 2)])
        assert len(a.union(b)) == 1

    def test_covers(self):
        big = IntervalSet([Interval(0, 10), Interval(20, 30)])
        small = IntervalSet([Interval(1, 2), Interval(25, 26)])
        assert big.covers(small)
        assert not small.covers(big)

    def test_simplify_closes_smallest_gap_first(self):
        scattered = IntervalSet(
            [Interval(0, 1), Interval(2, 3), Interval(100, 101)]
        )
        simplified = scattered.simplify(2)
        assert len(simplified) == 2
        assert simplified.contains(1.5)        # small gap closed
        assert not simplified.contains(50)     # big gap kept

    def test_simplify_never_loses_points(self):
        scattered = IntervalSet(
            [Interval(0, 1), Interval(5, 6), Interval(10, 11)]
        )
        assert scattered.simplify(1).covers(scattered)

    def test_simplify_invalid_budget(self):
        with pytest.raises(PredicateError):
            IntervalSet([Interval(0, 1)]).simplify(0)


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def interval_sets(draw):
    count = draw(st.integers(0, 5))
    intervals = []
    for __ in range(count):
        lo = draw(finite)
        width = draw(st.floats(min_value=0.0, max_value=1e5))
        intervals.append(Interval(lo, lo + width))
    return IntervalSet(intervals)


class TestIntervalSetProperties:
    @given(interval_sets(), interval_sets(), finite)
    def test_union_semantics(self, a, b, value):
        union = a.union(b)
        assert union.contains(value) == (a.contains(value) or b.contains(value))

    @given(interval_sets())
    def test_canonical_form_is_disjoint_and_sorted(self, intervals):
        items = tuple(intervals)
        for first, second in zip(items, items[1:]):
            assert first.hi <= second.lo
            # Touching endpoints imply both are open there (else merged).
            if first.hi == second.lo:
                assert not first.hi_closed and not second.lo_closed

    @given(interval_sets(), st.integers(1, 3), finite)
    def test_simplify_is_conservative(self, intervals, budget, value):
        if intervals.contains(value):
            assert intervals.simplify(budget).contains(value)

    @given(interval_sets(), interval_sets())
    def test_union_idempotent(self, a, b):
        union = a.union(b)
        assert union.union(a) == union
