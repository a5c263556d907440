"""Tests for PmcastGroup wiring."""

import pytest

from repro.addressing import Address, AddressSpace, Prefix
from repro.config import PmcastConfig
from repro.errors import SimulationError
from repro.interests import Event, StaticInterest, Subscription, gt
from repro.sim import PmcastGroup, bernoulli_interests, derive_rng


def make_members(arity=3, depth=2, interested=True):
    space = AddressSpace.regular(arity, depth)
    return {
        address: StaticInterest(interested)
        for address in space.enumerate_regular(arity)
    }


class TestBuild:
    def test_size_and_nodes(self):
        group = PmcastGroup.build(make_members(), PmcastConfig(redundancy=2))
        assert group.size == 9
        assert len(list(group.nodes())) == 9
        assert group.addresses() == sorted(group.addresses())

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            PmcastGroup.build({})

    def test_nodes_share_prefix_tables(self):
        group = PmcastGroup.build(make_members(), PmcastConfig(redundancy=2))
        a = group.node(Address((0, 0)))
        b = group.node(Address((0, 1)))
        assert a.view(1) is b.view(1)
        assert a.view(2) is b.view(2)
        c = group.node(Address((1, 0)))
        assert a.view(1) is c.view(1)
        assert a.view(2) is not c.view(2)

    def test_ragged_subgroups_are_wired_per_leaf(self):
        members = make_members(arity=3, depth=3)
        for gone in (Address((0, 0, 1)), Address((0, 0, 2)), Address((2, 1, 0))):
            del members[gone]
        group = PmcastGroup.build(members, PmcastConfig(redundancy=2))
        for address in group.addresses():
            node = group.node(address)
            for prefix in address.prefixes():
                assert node.view(prefix.depth) is group.table(prefix)
        # Siblings share tables but not the mapping that holds them.
        a, b = group.node(Address((1, 1, 0))), group.node(Address((1, 1, 1)))
        a.replace_view(3, group.table(Prefix((1, 0))))
        assert b.view(3) is group.table(Prefix((1, 1)))

    def test_addresses_is_a_fresh_sorted_list(self):
        group = PmcastGroup.build(make_members(), PmcastConfig(redundancy=2))
        first = group.addresses()
        first.reverse()
        first.pop()
        assert group.addresses() == sorted(node.address for node in group.nodes())
        assert group.interested_members(Event({})) == group.addresses()

    def test_table_accessor(self):
        group = PmcastGroup.build(make_members(), PmcastConfig(redundancy=2))
        assert group.table(Prefix(())).row_count == 3
        with pytest.raises(SimulationError):
            group.table(Prefix((9,)))

    def test_unknown_node_rejected(self):
        group = PmcastGroup.build(make_members())
        with pytest.raises(SimulationError):
            group.node(Address((9, 9)))

    def test_redundancy_comes_from_config(self):
        group = PmcastGroup.build(make_members(), PmcastConfig(redundancy=3))
        assert group.tree.redundancy == 3
        assert group.table(Prefix(())).entry_count == 9


class TestInterestedMembers:
    def test_static_ground_truth(self):
        members = make_members(interested=False)
        some = Address((1, 1))
        members[some] = StaticInterest(True)
        group = PmcastGroup.build(members)
        assert group.interested_members(Event({})) == [some]

    def test_content_based_ground_truth(self):
        space = AddressSpace.regular(2, 2)
        members = {
            address: Subscription({"b": gt(index)})
            for index, address in enumerate(space.enumerate_regular(2))
        }
        group = PmcastGroup.build(members, PmcastConfig(redundancy=1))
        interested = group.interested_members(Event({"b": 2}))
        assert len(interested) == 2   # b > 0 and b > 1 match b = 2

    def test_bernoulli_workload_integration(self):
        space = AddressSpace.regular(3, 2)
        addresses = space.enumerate_regular(3)
        members = bernoulli_interests(addresses, 0.5, derive_rng(1, "w"))
        group = PmcastGroup.build(members)
        interested = group.interested_members(Event({}))
        assert 0 <= len(interested) <= len(addresses)
