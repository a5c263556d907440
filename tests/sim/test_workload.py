"""Tests for workload generators."""

import random

import pytest

from repro.addressing import AddressSpace
from repro.errors import SimulationError
from repro.interests import Subscription
from repro.sim import (
    bernoulli_interests,
    random_event,
    random_subscriptions,
)


def addresses(arity=4, depth=3):
    return AddressSpace.regular(arity, depth).enumerate_regular(arity)


class TestBernoulli:
    def test_rate_approximated(self):
        members = bernoulli_interests(
            addresses(arity=8), 0.3, random.Random(0)
        )
        interested = sum(1 for i in members.values() if i.interested)
        assert interested / len(members) == pytest.approx(0.3, abs=0.07)

    def test_extremes(self):
        members = bernoulli_interests(addresses(), 0.0, random.Random(0))
        assert not any(i.interested for i in members.values())
        members = bernoulli_interests(addresses(), 1.0, random.Random(0))
        assert all(i.interested for i in members.values())

    def test_invalid_rate(self):
        with pytest.raises(SimulationError):
            bernoulli_interests(addresses(), 1.5, random.Random(0))


class TestContentUniverse:
    def test_subscriptions_are_subscriptions(self):
        members = random_subscriptions(addresses(), random.Random(3))
        assert all(isinstance(s, Subscription) for s in members.values())

    def test_events_match_some_subscriptions(self):
        rng = random.Random(4)
        members = random_subscriptions(addresses(), rng, selectivity=0.7)
        hits = 0
        for __ in range(20):
            event = random_event(rng)
            hits += sum(1 for s in members.values() if s.matches(event))
        # A permissive universe should produce a healthy matching rate.
        assert hits > 0

    def test_selectivity_monotone(self):
        rng_narrow = random.Random(5)
        rng_wide = random.Random(5)
        narrow = random_subscriptions(
            addresses(), rng_narrow, selectivity=0.1
        )
        wide = random_subscriptions(addresses(), rng_wide, selectivity=0.9)
        probe_rng = random.Random(6)
        events = [random_event(probe_rng) for __ in range(30)]
        narrow_hits = sum(
            s.matches(e) for e in events for s in narrow.values()
        )
        wide_hits = sum(s.matches(e) for e in events for s in wide.values())
        assert wide_hits > narrow_hits

    def test_invalid_selectivity(self):
        with pytest.raises(SimulationError):
            random_subscriptions(addresses(), random.Random(0), 0.0)

    def test_random_event_attributes(self):
        event = random_event(random.Random(7))
        assert set(event.attributes) == {"b", "c", "e", "z"}
