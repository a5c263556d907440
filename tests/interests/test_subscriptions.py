"""Tests for Subscription / StaticInterest semantics."""

import copy
import multiprocessing
import pickle

import numpy as np
import pytest

from repro.errors import PredicateError
from repro.interests import (
    Constraint,
    Event,
    StaticInterest,
    Subscription,
    between,
    eq,
    gt,
    le,
    one_of,
    wildcard,
)


class TestSubscriptionMatching:
    def test_conjunction(self):
        subscription = Subscription({"b": gt(3), "c": between(10.0, 220.0)})
        assert subscription.matches(Event({"b": 5, "c": 50.0}))
        assert not subscription.matches(Event({"b": 2, "c": 50.0}))
        assert not subscription.matches(Event({"b": 5, "c": 500.0}))

    def test_missing_constrained_attribute_fails(self):
        subscription = Subscription({"b": gt(3)})
        assert not subscription.matches(Event({"c": 5.0}))

    def test_extra_event_attributes_ignored(self):
        subscription = Subscription({"b": gt(3)})
        assert subscription.matches(Event({"b": 4, "z": 9999}))

    def test_wildcard_constraints_dropped(self):
        subscription = Subscription({"b": wildcard()})
        assert subscription.is_everything
        assert subscription.matches(Event({"anything": 1}))

    def test_unsatisfiable_conjunct_voids_subscription(self):
        subscription = Subscription({"b": Constraint.nothing(), "c": gt(0)})
        assert subscription.is_nothing
        assert not subscription.matches(Event({"b": 1, "c": 1}))

    def test_everything_and_nothing(self):
        event = Event({"x": 1})
        assert Subscription.everything().matches(event)
        assert not Subscription.nothing().matches(event)

    def test_non_constraint_rejected(self):
        with pytest.raises(PredicateError):
            Subscription({"b": 42})

    def test_attribute_names_sorted(self):
        subscription = Subscription({"z": gt(0), "a": gt(0)})
        assert [name for name, __ in subscription] == ["a", "z"]

    def test_constraint_accessor_defaults_to_wildcard(self):
        subscription = Subscription({"b": gt(0)})
        assert subscription.constraint("missing").is_wildcard
        assert Subscription.nothing().constraint("b").is_nothing


class TestSubscriptionUnion:
    def test_union_keeps_only_shared_attributes(self):
        a = Subscription({"b": gt(3), "c": between(10.0, 20.0)})
        b = Subscription({"b": eq(2), "e": one_of(["Bob"])})
        union = a.union(b)
        assert [name for name, __ in union] == ["b"]
        # c and e became wildcards: events failing them still match.
        assert union.matches(Event({"b": 2}))
        assert union.matches(Event({"b": 9}))

    def test_union_never_false_negative(self):
        a = Subscription({"b": gt(3)})
        b = Subscription({"c": eq(1)})
        union = a.union(b)
        for event in (Event({"b": 4}), Event({"c": 1})):
            assert union.matches(event)

    def test_union_with_nothing_is_identity(self):
        a = Subscription({"b": gt(3)})
        assert Subscription.nothing().union(a) == a
        assert a.union(Subscription.nothing()) == a

    def test_union_with_everything_is_everything(self):
        a = Subscription({"b": gt(3)})
        assert a.union(Subscription.everything()).is_everything

    def test_union_type_mismatch_rejected(self):
        with pytest.raises(PredicateError):
            Subscription({}).union(StaticInterest(True))

    def test_covers(self):
        wide = Subscription({"b": gt(0)})
        narrow = Subscription({"b": gt(5), "c": eq(1)})
        assert wide.covers(narrow)
        assert not narrow.covers(wide)
        assert wide.covers(Subscription.nothing())


class TestSubscriptionApproximate:
    def test_approximate_is_conservative(self):
        subscription = Subscription({"b": eq(1).union(eq(100))})
        approximated = subscription.approximate(max_intervals=1)
        assert approximated.matches(Event({"b": 1}))
        assert approximated.matches(Event({"b": 100}))
        assert approximated.matches(Event({"b": 50}))  # the price paid

    def test_complexity(self):
        subscription = Subscription(
            {"b": eq(1).union(eq(5)), "e": one_of(["a", "b", "c"])}
        )
        assert subscription.complexity() == 5


class TestStaticInterest:
    def test_matches_ignores_event(self):
        event = Event({"x": 1})
        assert StaticInterest(True).matches(event)
        assert not StaticInterest(False).matches(event)

    def test_union_is_or(self):
        assert StaticInterest(False).union(StaticInterest(True)).interested
        assert not StaticInterest(False).union(StaticInterest(False)).interested

    def test_union_type_mismatch_rejected(self):
        with pytest.raises(PredicateError):
            StaticInterest(True).union(Subscription({}))

    def test_equality_and_hash(self):
        assert StaticInterest(True) == StaticInterest(True)
        assert StaticInterest(True) != StaticInterest(False)
        assert len({StaticInterest(True), StaticInterest(True)}) == 1

    @pytest.mark.parametrize(
        "value", [True, False, 1, 0, 2.5, "", "x", None, [], [0], np.bool_(True)]
    )
    def test_two_shared_instances(self, value):
        interest = StaticInterest(value)
        assert interest is StaticInterest(bool(value))
        assert interest.interested is bool(value)

    def test_union_allocates_nothing(self):
        yes, no = StaticInterest(True), StaticInterest(False)
        assert yes.union(no) is yes and no.union(yes) is yes
        assert no.union(no) is no

    @pytest.mark.parametrize("flag", [True, False])
    def test_copies_and_pickles_are_the_shared_instance(self, flag):
        interest = StaticInterest(flag)
        assert copy.copy(interest) is interest
        assert copy.deepcopy(interest) is interest
        assert copy.deepcopy([interest, interest]) == [interest, interest]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(interest, protocol)) is interest

    def test_fingerprints_are_fixed_and_distinct(self):
        yes, no = StaticInterest(True), StaticInterest(False)
        assert yes.fingerprint() == StaticInterest(1).fingerprint()
        assert yes.fingerprint() != no.fingerprint()
        assert Subscription({}).fingerprint() not in (yes.fingerprint(), no.fingerprint())


def _fingerprinted_pickle() -> bytes:
    """A fresh process fingerprints a subscription, then pickles it."""
    subscription = Subscription({"b": gt(5)})
    subscription.fingerprint()
    return pickle.dumps([subscription, StaticInterest(True)])


def _load_after_others(blob: bytes):
    """Another fresh process numbers eight other structures first, then
    loads ``blob``: what the loaded interests are and how they number."""
    taken = [Subscription({"b": le(1000 + i)}).fingerprint() for i in range(8)]
    subscription, static = pickle.loads(blob)
    return (
        subscription == Subscription({"b": gt(5)}),
        subscription.fingerprint(),
        taken,
        static is StaticInterest(True),
    )


class TestPickledFingerprints:
    """A fingerprint is local to one process: pickling rebuilds an
    interest from its structure, never from the int it had."""

    def test_round_trip_keeps_structure_and_fingerprint(self):
        subscriptions = [
            Subscription({"b": gt(3), "e": one_of(["Bob"])}),
            Subscription.nothing(),
            Subscription.everything(),
        ]
        for subscription in subscriptions:
            fingerprint = subscription.fingerprint()
            for clone in (
                pickle.loads(pickle.dumps(subscription)),
                copy.deepcopy(subscription),
                copy.copy(subscription),
            ):
                assert clone == subscription
                assert clone.fingerprint() == fingerprint
        assert pickle.loads(pickle.dumps(Subscription.nothing())).is_nothing

    def test_a_pickled_fingerprint_never_names_another_structure(self):
        spawn = multiprocessing.get_context("spawn")
        with spawn.Pool(1) as pool:
            blob = pool.apply_async(_fingerprinted_pickle).get(timeout=120)
        with spawn.Pool(1) as pool:
            loaded = pool.apply_async(_load_after_others, (blob,)).get(timeout=120)
        same, fingerprint, taken, shared = loaded
        assert same and shared
        assert fingerprint not in taken
