"""Tests for per-destination-subset broadcast groups (§1 alternative 3)."""

import pytest

from repro.addressing import Address, AddressSpace
from repro.config import SimConfig
from repro.errors import SimulationError
from repro.interests import Event, StaticInterest, Subscription, gt
from repro.baselines import BroadcastGroupMapper


def content_members():
    space = AddressSpace.regular(3, 2)
    members = {}
    for index, address in enumerate(space.enumerate_regular(3)):
        members[address] = Subscription({"b": gt(index % 5)})
    return members


class TestMapping:
    def test_destination_subset_exact(self):
        members = content_members()
        mapper = BroadcastGroupMapper(members)
        subset = mapper.destination_subset(Event({"b": 3}))
        expected = {
            address
            for address, subscription in members.items()
            if subscription.matches(Event({"b": 3}))
        }
        assert subset == expected

    def test_groups_memoized_per_subset(self):
        mapper = BroadcastGroupMapper(content_members())
        first, created_first = mapper.group_for(Event({"b": 3}))
        second, created_second = mapper.group_for(Event({"b": 3}))
        assert created_first and not created_second
        assert first == second

    def test_group_count_grows_with_distinct_subsets(self):
        mapper = BroadcastGroupMapper(content_members())
        groups = {mapper.group_for(Event({"b": b}))[0] for b in range(6)}
        # b in 0..5 against thresholds 0..4 gives several distinct
        # subsets (the 2^n-bounded blow-up in miniature).
        assert len(groups) >= 4

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            BroadcastGroupMapper({})


class TestMulticast:
    def test_perfect_targeting(self):
        space = AddressSpace.regular(4, 2)
        members = {
            address: StaticInterest(address.components[0] < 2)
            for address in space.enumerate_regular(4)
        }
        mapper = BroadcastGroupMapper(members)
        publisher = Address((0, 0))
        report, group_id, created = mapper.multicast(
            publisher, Event({}), fanout=3, sim_config=SimConfig(seed=1)
        )
        assert created and group_id == 0
        assert report.false_reception_ratio == 0.0
        assert report.delivery_ratio > 0.95
