"""Compiled verdict columns against the interests they compile.

:meth:`VerdictColumns.evaluate` must answer exactly what
:meth:`Interest.matches` answers, for every compiled position: static
coins, the nothing and wildcard subscriptions, regrouped and
``near_root``-approximated unions, constraints mixing numbers and
strings, attributes an event lacks, values on an open or a closed end,
and ints beyond 2⁵³ against float ends (compared exactly, as Python
compares them).  A column evaluated once and then extended over
interests compiled since must equal a column evaluated afresh.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PredicateError
from repro.interests import (
    Event,
    Interest,
    RegroupPolicy,
    StaticInterest,
    Subscription,
    between,
    eq,
    ge,
    gt,
    le,
    lt,
    regroup,
)
from repro.interests.columns import VerdictColumns
from tests.interests.test_predicates import constraints
from tests.interests.test_regrouping import ATTRIBUTES, NAMES, subscriptions

#: Ends no float double can split from an int: 2⁵³ and past it.
BIG = st.integers(2**53 - 4, 2**64)


@st.composite
def mixed(draw):
    """A subscription of drawn constraints, numbers and strings mixed."""
    names = draw(st.lists(st.sampled_from(ATTRIBUTES), unique=True, max_size=3))
    return Subscription({name: draw(constraints()) for name in names})


@st.composite
def big_ends(draw):
    """One-sided and point constraints on ints past 2⁵³."""
    build = draw(st.sampled_from([ge, gt, le, lt, eq]))
    return Subscription({draw(st.sampled_from(ATTRIBUTES)): build(draw(BIG))})


@st.composite
def regrouped(draw):
    members = draw(st.lists(st.one_of(subscriptions(), mixed()), min_size=1, max_size=5))
    policy = draw(st.sampled_from([None, RegroupPolicy.near_root()]))
    return regroup(members, policy)


def interests():
    return st.one_of(
        subscriptions(),
        mixed(),
        big_ends(),
        regrouped(),
        st.sampled_from([Subscription.nothing(), Subscription({})]),
        st.builds(StaticInterest, st.booleans()),
    )


def ends(interests):
    """Per attribute, every interval end ``interests`` give it, as floats
    and, where whole, as ints one either side of them too."""
    out = {}
    for interest in interests:
        if not isinstance(interest, Subscription):
            continue
        for name, constraint in interest:
            near = out.setdefault(name, [])
            for interval in constraint.numeric:
                for end in (interval.lo, interval.hi):
                    if math.isfinite(end):
                        near.append(end)
                        if end == int(end):
                            near += [int(end) - 1, int(end), int(end) + 1]
    return out


@st.composite
def events(draw, interests):
    """An event whose values hit the ends of ``interests`` often."""
    near = ends(interests)
    present = draw(st.lists(st.sampled_from(ATTRIBUTES), unique=True))
    values = {}
    for name in present:
        mine = near.get(name)
        values[name] = draw(
            st.one_of(
                st.integers(-30, 30),
                st.floats(),
                BIG,
                st.sampled_from(NAMES + ("Zed",)),
                *([st.sampled_from(mine)] * 4 if mine else []),
            )
        )
    return Event(values)


def verdicts(positions, column):
    return [bool(column[at]) for at in positions]


class TestVerdictsAreMatches:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(interests(), min_size=1, max_size=10), st.data())
    def test_one_pass_is_every_match(self, members, data):
        columns = VerdictColumns()
        positions = columns.positions(members)
        for event in data.draw(st.lists(events(members), min_size=1, max_size=4)):
            column = columns.evaluate(event)
            assert len(column) == len(columns)
            assert verdicts(positions, column) == [m.matches(event) for m in members]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(constraints(), min_size=1, max_size=8), st.data())
    def test_one_constraint_on_its_ends(self, drawn, data):
        # One attribute each, so no other constraint hides a wrong end.
        members = [Subscription({"c": constraint}) for constraint in drawn]
        columns = VerdictColumns()
        positions = columns.positions(members)
        for event in data.draw(st.lists(events(members), min_size=1, max_size=4)):
            column = columns.evaluate(event)
            assert verdicts(positions, column) == [m.matches(event) for m in members]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(interests(), min_size=1, max_size=6),
        st.lists(interests(), min_size=1, max_size=6),
        st.data(),
    )
    def test_an_extended_column_is_a_fresh_one(self, first, later, data):
        columns = VerdictColumns()
        columns.positions(first)
        event = data.draw(events(first + later))
        column = columns.evaluate(event)
        positions = columns.positions(first + later)
        column = np.concatenate((column, columns.evaluate(event, len(column))))
        assert np.array_equal(column, columns.evaluate(event))
        assert verdicts(positions, column) == [m.matches(event) for m in first + later]


class TestEdges:
    def test_open_and_closed_ends(self):
        columns = VerdictColumns()
        members = [
            Subscription({"c": between(1, 2)}),
            Subscription({"c": between(1, 2, lo_closed=True, hi_closed=True)}),
            Subscription({"c": gt(1)}),
            Subscription({"c": le(2)}),
        ]
        positions = columns.positions(members)
        for value in (1, 1.0, 2, 2.0, 1.5):
            event = Event({"c": value})
            column = columns.evaluate(event)
            assert verdicts(positions, column) == [m.matches(event) for m in members]

    def test_ints_past_two_to_the_53_compare_exactly(self):
        end = 2**60  # a float holds it; 2**60 + 1 rounds onto it
        members = [
            Subscription({"z": gt(end)}), Subscription({"z": ge(end)}),
            Subscription({"z": lt(end)}), Subscription({"z": le(end)}),
            Subscription({"z": eq(end)}),
        ]
        columns = VerdictColumns()
        positions = columns.positions(members)
        for value in (end - 1, end, end + 1, 2**1100, -(2**1100)):
            event = Event({"z": value})
            expected = [m.matches(event) for m in members]
            assert verdicts(positions, columns.evaluate(event)) == expected
        assert expected == [False, False, True, True, False]  # -(2**1100)

    def test_absent_attributes_fail_their_constraint(self):
        columns = VerdictColumns()
        positions = columns.positions([Subscription({"b": ge(0)}), Subscription({})])
        assert verdicts(positions, columns.evaluate(Event({}))) == [False, True]

    def test_equal_interests_share_a_position(self):
        columns = VerdictColumns()
        first = columns.positions([Subscription({"b": eq(3)}), StaticInterest(True)])
        assert columns.positions([Subscription({"b": eq(3)}), StaticInterest(True)]) == first
        assert len(columns) == 2

    def test_nothing_past_the_end(self):
        columns = VerdictColumns()
        columns.positions([StaticInterest(True)])
        assert len(columns.evaluate(Event({}), 1)) == 0

    def test_an_unknown_interest_type_is_refused(self):
        class Odd(Interest):
            def matches(self, event):
                return True

            def union(self, other):
                return self

            def __hash__(self):
                return 7

            def __eq__(self, other):
                return isinstance(other, Odd)

        odd = object.__new__(Odd)
        odd._fp = 0
        with pytest.raises(PredicateError):
            VerdictColumns().positions([odd])
