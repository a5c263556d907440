"""Property tests for interest regrouping (§2.3): never miss a member."""

from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PredicateError
from repro.interests import (
    Event,
    RegroupPolicy,
    StaticInterest,
    Subscription,
    between,
    eq,
    ge,
    le,
    one_of,
    regroup,
)

ATTRIBUTES = ("b", "c", "e", "z")
NAMES = ("Bob", "Tom", "Alice")


@st.composite
def subscriptions(draw):
    constraints = {}
    for name in ATTRIBUTES:
        kind = draw(st.integers(0, 4))
        if kind == 0:
            continue  # wildcard on this attribute
        if name == "e":
            constraints[name] = one_of(
                draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2))
            )
        elif kind == 1:
            constraints[name] = eq(draw(st.integers(0, 20)))
        elif kind == 2:
            constraints[name] = ge(draw(st.integers(0, 20)))
        elif kind == 3:
            constraints[name] = le(draw(st.integers(0, 20)))
        else:
            lo = draw(st.integers(0, 15))
            constraints[name] = between(lo, lo + draw(st.integers(1, 5)))
    return Subscription(constraints)


@st.composite
def events(draw):
    attributes = {}
    for name in ("b", "c", "z"):
        if draw(st.booleans()):
            attributes[name] = draw(st.integers(0, 25))
    if draw(st.booleans()):
        attributes["e"] = draw(st.sampled_from(NAMES))
    return Event(attributes)


class TestRegroupSoundness:
    @given(st.lists(subscriptions(), min_size=1, max_size=8), events())
    @settings(max_examples=200)
    def test_no_false_negatives_exact(self, members, event):
        summary = regroup(members)
        if any(member.matches(event) for member in members):
            assert summary.matches(event)

    @given(st.lists(subscriptions(), min_size=1, max_size=8), events())
    @settings(max_examples=200)
    def test_no_false_negatives_compacted(self, members, event):
        summary = regroup(members, RegroupPolicy.near_root())
        if any(member.matches(event) for member in members):
            assert summary.matches(event)

    @given(st.lists(subscriptions(), min_size=1, max_size=6))
    def test_summary_complexity_bounded_by_inputs(self, members):
        summary = regroup(members)
        assert summary.complexity() <= sum(m.complexity() for m in members)

    @given(st.lists(subscriptions(), min_size=1, max_size=6))
    def test_order_independent(self, members):
        assert regroup(members) == regroup(list(reversed(members)))


class TestRegroupStatic:
    def test_static_or(self):
        assert regroup([StaticInterest(False), StaticInterest(True)]).matches(
            Event({})
        )
        assert not regroup(
            [StaticInterest(False), StaticInterest(False)]
        ).matches(Event({}))

    @given(st.lists(st.booleans(), min_size=1, max_size=10))
    def test_static_union_is_any(self, flags):
        summary = regroup([StaticInterest(flag) for flag in flags])
        assert summary.interested == any(flags)

    @given(
        st.lists(st.booleans(), min_size=1, max_size=40),
        st.sampled_from([None, RegroupPolicy.exact(), RegroupPolicy.near_root()]),
    )
    def test_fast_path_is_the_union_fold(self, flags, policy):
        members = [StaticInterest(flag) for flag in flags]
        fold = reduce(StaticInterest.union, members, StaticInterest(False))
        assert regroup(members, policy) is fold
        assert regroup(iter(members), policy) is fold

    @given(
        st.lists(st.booleans(), min_size=1, max_size=12),
        subscriptions(),
        st.data(),
    )
    def test_a_subscription_anywhere_is_rejected(self, flags, subscription, data):
        members = [StaticInterest(flag) for flag in flags]
        members.insert(data.draw(st.integers(0, len(members))), subscription)
        with pytest.raises(PredicateError):
            regroup(members)


class TestRegroupErrors:
    def test_empty_rejected(self):
        with pytest.raises(PredicateError):
            regroup([])

    def test_mixed_types_rejected(self):
        with pytest.raises(PredicateError):
            regroup([StaticInterest(True), Subscription({})])

    def test_bad_policy_values(self):
        with pytest.raises(PredicateError):
            RegroupPolicy(max_complexity=0)
        with pytest.raises(PredicateError):
            RegroupPolicy(max_intervals_per_attribute=0)
        with pytest.raises(PredicateError):
            RegroupPolicy(widen_fraction=-1.0)


class TestRegroupCompaction:
    def test_compaction_triggers_over_budget(self):
        members = [Subscription({"b": eq(value)}) for value in range(0, 40, 4)]
        exact = regroup(members)
        compacted = regroup(members, RegroupPolicy(max_complexity=3))
        assert exact.complexity() == 10
        assert compacted.complexity() <= 3
        assert compacted.matches(Event({"b": 6}))  # a gap now matches

    def test_compaction_not_triggered_under_budget(self):
        members = [Subscription({"b": eq(1)}), Subscription({"b": eq(2)})]
        policy = RegroupPolicy(max_complexity=10)
        assert regroup(members, policy) == regroup(members)

    def test_figure2_example_row(self):
        # Depth-4 table of Figure 2 compacted into a depth-3 row.
        from repro.interests import parse_subscription

        members = [
            parse_subscription("b = 2, c > 40.0, z = 20000"),
            parse_subscription("b = 5, c > 53.5"),
            parse_subscription("b > 1, 20.0 < c < 30.0, z <= 50000"),
            parse_subscription("b > 0, c > 20.0"),
            parse_subscription("b = 4, 2000 < z < 30000"),
            parse_subscription("b = 3, c >= 35.997"),
            parse_subscription("b = 2"),
        ]
        summary = regroup(members)
        # The paper's depth-3 row for infix 73 is "b > 0, c > 20.0":
        # b is the only attribute constrained by all, and its union is
        # b > 0 over the sampled members.
        assert [name for name, __ in summary] == ["b"]
        assert summary.matches(Event({"b": 2, "c": 41.0, "z": 20000}))
        assert not summary.matches(Event({"b": 0}))
