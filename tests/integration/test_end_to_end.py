"""End-to-end scenarios: content-based pub/sub, churn, and recovery."""

import random


from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.interests import Event, parse_subscription
from repro.pubsub import PubSubSystem
from repro.sim import (
    PmcastGroup,
    derive_rng,
    random_event,
    random_subscriptions,
    run_dissemination,
)

CONFIG = PmcastConfig(fanout=3, redundancy=2, min_rounds_per_depth=2)


class TestContentBasedDissemination:
    def test_random_universe_many_events(self):
        space = AddressSpace.regular(4, 3)
        addresses = space.enumerate_regular(4)
        rng = derive_rng(7, "subscriptions")
        members = random_subscriptions(addresses, rng, selectivity=0.6)
        group = PmcastGroup.build(members, CONFIG)
        total_interested = 0
        total_delivered = 0
        total_false = 0
        total_uninterested = 0
        for index in range(8):
            event = random_event(rng, event_id=3000 + index)
            publisher = rng.choice(addresses)
            report = run_dissemination(
                group, publisher, event, SimConfig(seed=100 + index)
            )
            total_interested += report.interested
            total_delivered += report.delivered_interested
            total_false += report.received_uninterested
            total_uninterested += report.uninterested
        assert total_delivered / max(total_interested, 1) > 0.97
        # Uninterested reception stays a minority phenomenon.
        assert total_false / max(total_uninterested, 1) < 0.5

    def test_figure2_style_subscriptions(self):
        space = AddressSpace.regular(3, 3)
        addresses = space.enumerate_regular(3)
        texts = [
            "b > 3, 10.0 < c < 220.0",
            'b = 2, e = "Bob" | "Tom"',
            "b > 0",
            "b > 4, 20.0 < c < 35.0, z < 23002",
            "z > 10000",
            "b = 3, z = 42000",
        ]
        members = {
            address: parse_subscription(texts[index % len(texts)])
            for index, address in enumerate(addresses)
        }
        group = PmcastGroup.build(members, CONFIG)
        event = Event({"b": 2, "e": "Tom", "z": 50000}, event_id=4000)
        report = run_dissemination(
            group, addresses[0], event, SimConfig(seed=3)
        )
        interested = group.interested_members(event)
        assert report.interested == len(interested)
        assert report.delivery_ratio == 1.0


class TestChurnThenDisseminate:
    def build_system(self):
        system = PubSubSystem(3, config=CONFIG)
        for address in AddressSpace.regular(3, 3).enumerate_regular(3):
            system.subscribe(address, parse_subscription("kind >= 1"))
        return system

    def test_join_then_deliver_to_newcomer(self):
        system = self.build_system()
        newcomer = Address((1, 1, 2))
        # 1.1.2 is part of the arity-3 regular population, so first
        # remove it, then re-join.
        system.unsubscribe(newcomer)
        system.subscribe(newcomer, parse_subscription("kind >= 1"))
        assert newcomer in system.members()
        event = Event({"kind": 2}, event_id=5000)
        report = system.publish(Address((0, 0, 0)), event, SimConfig(seed=9))
        assert newcomer in system.delivered_to(event)
        assert report.delivery_ratio == 1.0

    def test_delegate_leaves_tree_reroutes(self):
        system = self.build_system()
        # 0.0.0 is the smallest address: a delegate at every depth.
        system.unsubscribe(Address((0, 0, 0)))
        event = Event({"kind": 2}, event_id=5001)
        report = system.publish(Address((2, 2, 2)), event, SimConfig(seed=10))
        assert report.delivery_ratio == 1.0
        assert report.group_size == 26

    def test_mass_churn_sequence(self):
        system = self.build_system()
        rng = random.Random(11)
        # Ten joins into fresh addresses and ten leaves, interleaved.
        space = AddressSpace.regular(6, 3)
        fresh = [a for a in sorted(rng.sample(space.enumerate_regular(6), 60))
                 if a not in system.tree][:10]
        victims = rng.sample(system.members(), 10)
        for newcomer, victim in zip(fresh, victims):
            system.subscribe(newcomer, parse_subscription("kind >= 1"))
            if victim in system.tree:
                system.unsubscribe(victim)
        event = Event({"kind": 3}, event_id=5002)
        publisher = system.members()[0]
        report = system.publish(publisher, event, SimConfig(seed=12))
        assert report.delivery_ratio > 0.95
