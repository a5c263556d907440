"""Tests for per-attribute constraints and their factory functions."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import PredicateError
from repro.interests.intervals import Interval, IntervalSet
from repro.interests.predicates import (
    Constraint,
    between,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
    one_of,
)


def wildcard():
    """Every number and every string: an absent criterion."""
    return Constraint(IntervalSet((Interval(-math.inf, math.inf, False, False),)), None)


class TestFactories:
    def test_eq_number(self):
        constraint = eq(5)
        assert constraint.matches(5)
        assert constraint.matches(5.0)
        assert not constraint.matches(6)

    def test_eq_string(self):
        constraint = eq("Bob")
        assert constraint.matches("Bob")
        assert not constraint.matches("Tom")
        assert not constraint.matches(3)

    def test_ne(self):
        constraint = ne(2)
        assert constraint.matches(1)
        assert constraint.matches(3)
        assert not constraint.matches(2)

    def test_comparisons(self):
        assert gt(3).matches(4) and not gt(3).matches(3)
        assert ge(3).matches(3) and not ge(3).matches(2.9)
        assert lt(3).matches(2) and not lt(3).matches(3)
        assert le(3).matches(3) and not le(3).matches(3.1)

    def test_between_open_by_default(self):
        # The paper's 10.0 < c < 220.0 style.
        constraint = between(10.0, 220.0)
        assert constraint.matches(10.1)
        assert not constraint.matches(10.0)
        assert not constraint.matches(220.0)

    def test_between_closed_ends(self):
        constraint = between(1, 2, lo_closed=True, hi_closed=True)
        assert constraint.matches(1) and constraint.matches(2)

    def test_one_of_mixed(self):
        # e = "Bob" | "Tom" from Figure 2.
        constraint = one_of(["Bob", "Tom"])
        assert constraint.matches("Bob") and constraint.matches("Tom")
        assert not constraint.matches("Alice")

    def test_one_of_numbers(self):
        constraint = one_of([1, 3])
        assert constraint.matches(1) and constraint.matches(3)
        assert not constraint.matches(2)

    def test_one_of_empty_rejected(self):
        with pytest.raises(PredicateError):
            one_of([])

    def test_numeric_factory_rejects_strings(self):
        with pytest.raises(PredicateError):
            gt("abc")

    def test_numeric_factory_rejects_bool(self):
        with pytest.raises(PredicateError):
            eq(True)


class TestWildcardAndNothing:
    def test_wildcard_matches_everything(self):
        anything = wildcard()
        assert anything.matches(0)
        assert anything.matches(-1e18)
        assert anything.matches("whatever")
        assert anything.is_wildcard

    def test_nothing_matches_nothing(self):
        nothing = Constraint.nothing()
        assert not nothing.matches(0)
        assert not nothing.matches("x")
        assert nothing.is_nothing

    def test_matches_rejects_bool_values(self):
        with pytest.raises(PredicateError):
            wildcard().matches(True)


class TestUnion:
    def test_union_numbers(self):
        constraint = eq(1).union(gt(10))
        assert constraint.matches(1)
        assert constraint.matches(11)
        assert not constraint.matches(5)

    def test_union_across_types(self):
        constraint = eq("Bob").union(gt(3))
        assert constraint.matches("Bob")
        assert constraint.matches(4)
        assert not constraint.matches("Tom")
        assert not constraint.matches(2)

    def test_union_with_wildcard_absorbs(self):
        assert eq(1).union(wildcard()).is_wildcard

    def test_union_with_nothing_is_identity(self):
        assert Constraint.nothing().union(eq(7)) == eq(7)

    def test_covers(self):
        assert ge(0).covers(between(1, 2))
        assert not between(1, 2).covers(ge(0))
        assert wildcard().covers(eq("Tom"))
        assert not eq("Tom").covers(wildcard())
        assert one_of(["a", "b"]).covers(eq("a"))


class TestApproximate:
    def test_hull_reduction(self):
        constraint = eq(1).union(eq(100))
        approximated = constraint.approximate(max_intervals=1)
        assert approximated.matches(50)          # hull covers the gap
        assert approximated.covers(constraint)   # conservative

    def test_strings_kept_exact(self):
        constraint = one_of(["a", "b"])
        assert constraint.approximate(max_intervals=1) == constraint

    def test_complexity_decreases(self):
        constraint = eq(1).union(eq(5)).union(eq(9))
        assert constraint.complexity() == 3
        assert constraint.approximate(max_intervals=1).complexity() == 1


numbers = st.one_of(
    st.integers(-1000, 1000),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
values = st.one_of(numbers, st.sampled_from(["Bob", "Tom", "Alice"]))


@st.composite
def constraints(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return eq(draw(values))
    if kind == 1:
        return gt(draw(numbers))
    if kind == 2:
        return le(draw(numbers))
    if kind == 3:
        lo = draw(st.integers(-100, 100))
        return between(lo, lo + draw(st.integers(1, 50)))
    if kind == 4:
        return one_of(draw(st.lists(values, min_size=1, max_size=3)))
    return wildcard()


class TestConstraintProperties:
    @given(constraints(), constraints(), values)
    def test_union_soundness(self, a, b, value):
        union = a.union(b)
        if a.matches(value) or b.matches(value):
            assert union.matches(value)

    @given(constraints(), constraints(), values)
    def test_union_exactness(self, a, b, value):
        # Union of canonical constraints is exact, not just conservative.
        union = a.union(b)
        assert union.matches(value) == (a.matches(value) or b.matches(value))

    @given(constraints(), values)
    def test_approximate_is_conservative(self, constraint, value):
        if constraint.matches(value):
            assert constraint.approximate(max_intervals=1).matches(value)

    @given(constraints(), constraints())
    def test_covers_union(self, a, b):
        union = a.union(b)
        assert union.covers(a)
        assert union.covers(b)
