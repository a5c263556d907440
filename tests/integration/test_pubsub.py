"""Tests for the high-level PubSubSystem facade."""

import pytest

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import MembershipError, SimulationError
from repro.interests import Event, parse_subscription
from repro.pubsub import PubSubSystem

CONFIG = PmcastConfig(fanout=2, redundancy=2, min_rounds_per_depth=2)


def populated_system(arity=3, depth=3):
    system = PubSubSystem(depth=depth, config=CONFIG,
                          sim_config=SimConfig(seed=99))
    space = AddressSpace.regular(arity, depth)
    for index, address in enumerate(space.enumerate_regular(arity)):
        text = "topic >= 5" if index % 2 == 0 else "topic >= 1"
        system.subscribe(address, parse_subscription(text))
    return system


class TestSubscribe:
    def test_membership_grows(self):
        system = populated_system()
        assert system.size == 27
        assert len(system.members()) == 27

    def test_resubscription_changes_delivery(self):
        system = populated_system()
        address = Address((0, 0, 0))
        system.subscribe(address, parse_subscription("topic >= 100"))
        event = Event({"topic": 6})
        report = system.publish(Address((2, 2, 2)), event)
        assert not system.node(address).has_delivered(event)
        assert address not in system.delivered_to(event)
        assert report.delivery_ratio > 0.9

    def test_unsubscribe_removes(self):
        system = populated_system()
        system.unsubscribe(Address((0, 0, 0)))
        assert system.size == 26
        with pytest.raises(MembershipError):
            system.unsubscribe(Address((0, 0, 0)))


class TestRefreshInPlace:
    def test_second_subscribe_keeps_tables_and_nodes(self):
        system = populated_system()
        first = Address((0, 0, 7))
        system.subscribe(first, parse_subscription("topic >= 1"))
        tables = dict(system._directory.tables)
        nodes = dict(system._nodes)
        newcomer = Address((0, 0, 8))
        system.subscribe(newcomer, parse_subscription("topic >= 1"))
        # Refreshed in place: no table on (or off) the path is a new
        # object, and the only node built is the newcomer's.
        assert set(system._directory.tables) == set(tables)
        for prefix, table in tables.items():
            assert system._directory.tables[prefix] is table
        assert set(system._nodes) - set(nodes) == {newcomer}
        for address, node in nodes.items():
            assert system._nodes[address] is node
        # ... and everybody sees the newcomer through the shared table.
        leaf = newcomer.prefixes()[-1]
        assert system.node(first)._views[leaf.depth] is tables[leaf]
        assert tables[leaf].has_row(8)
        assert system.node(newcomer)._views[leaf.depth] is tables[leaf]

    def test_new_subgroup_is_wired_into_the_newcomer_only(self):
        system = populated_system()
        nodes = dict(system._nodes)
        newcomer = Address((5, 0, 0))
        system.subscribe(newcomer, parse_subscription("topic >= 1"))
        assert set(system._nodes) - set(nodes) == {newcomer}
        for prefix in newcomer.prefixes():
            assert (
                system.node(newcomer)._views[prefix.depth]
                is system._directory.tables[prefix]
            )
        event = Event({"topic": 2})
        system.publish(Address((0, 0, 1)), event)
        assert newcomer in system.delivered_to(event)


class TestPublish:
    def test_selective_delivery(self):
        system = populated_system()
        event = Event({"topic": 3})
        report = system.publish(Address((0, 0, 0)), event)
        # Only the "topic >= 1" half delivers.
        delivered = system.delivered_to(event)
        assert report.delivery_ratio == 1.0
        assert 0 < len(delivered) < system.size
        for address in delivered:
            assert system.tree.interest_of(address).matches(event)

    def test_publishes_are_independent(self):
        system = populated_system()
        first = system.publish(Address((0, 0, 0)), Event({"topic": 9}))
        second = system.publish(Address((1, 1, 1)), Event({"topic": 9}))
        assert first.delivery_ratio == 1.0
        assert second.delivery_ratio == 1.0

    def test_unknown_publisher_rejected(self):
        system = populated_system()
        with pytest.raises(SimulationError):
            system.publish(Address((9, 9, 9)), Event({"topic": 1}))


class TestChurnDuringOperation:
    def test_join_between_publishes(self):
        system = populated_system()
        newcomer = Address((5, 0, 0))
        system.subscribe(newcomer, parse_subscription("topic >= 1"))
        event = Event({"topic": 2})
        system.publish(Address((0, 0, 1)), event)
        assert newcomer in system.delivered_to(event)

    def test_crash_then_exclude(self):
        system = populated_system()
        victim = Address((1, 0, 0))
        system.crash(victim)
        # The victim is still in views (not yet excluded): it cannot
        # deliver, so reliability may dip but the rest still works.
        # Average over a few publishes: a single run at this tiny scale
        # (n = 27, R = 2) is noisy.
        ratios = []
        for __ in range(4):
            event = Event({"topic": 2})
            report = system.publish(Address((2, 2, 2)), event)
            assert victim not in system.delivered_to(event)
            ratios.append(report.delivery_ratio)
        assert sum(ratios) / len(ratios) > 0.75
        system.exclude(victim)
        assert system.size == 26
        follow_up = Event({"topic": 2})
        report = system.publish(Address((2, 2, 2)), follow_up)
        assert report.delivery_ratio == 1.0

    def test_delegate_departure_heals(self):
        system = populated_system()
        # Remove the three smallest addresses: delegates everywhere.
        for address in [Address((0, 0, 0)), Address((0, 0, 1)),
                        Address((0, 0, 2))]:
            system.unsubscribe(address)
        event = Event({"topic": 2})
        report = system.publish(Address((2, 2, 2)), event)
        assert report.delivery_ratio == 1.0


class TestAutoJoin:
    def make_system(self):
        from repro.addressing import AddressSpace

        space = AddressSpace.regular(4, 3)
        return PubSubSystem(
            depth=3, config=CONFIG, sim_config=SimConfig(seed=5),
            space=space,
        )

    def test_join_allocates_and_delivers(self):
        system = self.make_system()
        members = [
            system.join(parse_subscription("topic >= 1"))
            for __ in range(12)
        ]
        assert len(set(members)) == 12
        assert system.size == 12
        event = Event({"topic": 5})
        report = system.publish(members[0], event)
        assert report.delivery_ratio == 1.0

    def test_hinted_joins_share_subtrees(self):
        system = self.make_system()
        zurich = [
            system.join(parse_subscription("topic >= 1"), hint="zurich")
            for __ in range(3)
        ]
        geneva = [
            system.join(parse_subscription("topic >= 1"), hint="geneva")
            for __ in range(3)
        ]
        assert len({a.prefix(3) for a in zurich}) == 1
        assert len({a.prefix(3) for a in geneva}) == 1
        assert zurich[0].prefix(3) != geneva[0].prefix(3)

    def test_join_without_space_rejected(self):
        system = PubSubSystem(depth=3, config=CONFIG)
        with pytest.raises(MembershipError):
            system.join(parse_subscription("topic >= 1"))

    def test_unsubscribe_releases_address(self):
        system = self.make_system()
        first = system.join(parse_subscription("topic >= 1"))
        system.join(parse_subscription("topic >= 1"))
        system.unsubscribe(first)
        # The freed slot is reissued before any fresh one.
        again = system.join(parse_subscription("topic >= 1"))
        assert again == first

    def test_exclude_releases_address(self):
        # 2^2 holds four addresses: three joins, an exclusion and an
        # unsubscribe leave one member, so three more joins fit.
        system = PubSubSystem(
            depth=2, config=CONFIG, space=AddressSpace.regular(2, 2)
        )
        first, second, __ = (
            system.join(parse_subscription("topic >= 1")) for __ in range(3)
        )
        system.crash(first)
        system.exclude(first)
        system.unsubscribe(second)
        for __ in range(3):
            system.join(parse_subscription("topic >= 1"))
        assert system.members() == sorted(AddressSpace.regular(2, 2).enumerate_regular(2))

    def test_mixed_manual_and_auto(self):
        from repro.addressing import Address

        system = self.make_system()
        manual = Address((0, 0, 0))
        system.subscribe(manual, parse_subscription("topic >= 1"))
        auto = system.join(parse_subscription("topic >= 1"))
        assert auto != manual
        assert system.size == 2
