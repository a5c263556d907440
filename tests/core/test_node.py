"""Unit tests for the Figure 3 state machine (PmcastNode)."""

import random

import pytest

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig
from repro.core import GossipContext, PmcastNode
from repro.core.messages import GossipMessage
from repro.errors import ProtocolError
from repro.interests import Event, StaticInterest
from repro.membership import MembershipTree, build_process_views


def build_node(address, interests, config=None, redundancy=1):
    """A node over a real tree built from an interest mapping."""
    tree = MembershipTree.build(interests, redundancy=redundancy)
    views = build_process_views(tree, address)
    return PmcastNode(
        address, interests[address], views, config or PmcastConfig(
            fanout=2, redundancy=redundancy, min_rounds_per_depth=1
        )
    )


def four_members(flags=(True, True, True, True)):
    addresses = [Address((0, 0)), Address((0, 1)), Address((1, 0)),
                 Address((1, 1))]
    return {
        address: StaticInterest(flag)
        for address, flag in zip(addresses, flags)
    }


def ctx(threshold_h=0, seed=0):
    return GossipContext(random.Random(seed), threshold_h)


class TestConstruction:
    def test_requires_contiguous_depths(self):
        members = four_members()
        tree = MembershipTree.build(members, redundancy=1)
        views = build_process_views(tree, Address((0, 0)))
        del views[1]
        with pytest.raises(ProtocolError):
            PmcastNode(
                Address((0, 0)), StaticInterest(True), views, PmcastConfig()
            )

    def test_rejects_foreign_tables(self):
        members = four_members()
        tree = MembershipTree.build(members, redundancy=1)
        views = build_process_views(tree, Address((1, 1)))
        with pytest.raises(ProtocolError):
            PmcastNode(
                Address((0, 0)), StaticInterest(True), views, PmcastConfig()
            )

    def test_wired_equals_checked_construction(self):
        # The trusted constructor a group uses for the tables it looks
        # up on a member's prefix path.
        members = four_members()
        tree = MembershipTree.build(members, redundancy=1)
        views = build_process_views(tree, Address((0, 0)))
        config = PmcastConfig()
        sibling = Address((0, 1))
        wired = PmcastNode.wired(sibling, members[sibling], views, config)
        direct = PmcastNode(sibling, members[sibling], views, config)
        for node in (wired, direct):
            assert node.address == sibling
            assert node.address.depth == 2
            assert node.alive and node.is_idle
            assert [node._views[d] for d in (1, 2)] == [views[1], views[2]]
        # Each node owns its mapping: a membership change on one
        # sibling never rewires the other.
        wired._views[2] = direct._views[2]
        views.clear()
        assert wired._views[1] is direct._views[1]

    def test_check_views_is_what_construction_runs(self):
        members = four_members()
        tree = MembershipTree.build(members, redundancy=1)
        foreign = build_process_views(tree, Address((1, 1)))
        for views in (foreign, {}):
            with pytest.raises(ProtocolError):
                PmcastNode(Address((0, 0)), StaticInterest(True), views, PmcastConfig())


class TestPmcast:
    def test_publisher_delivers_to_itself_if_interested(self):
        node = build_node(Address((0, 0)), four_members())
        event = Event({})
        node.pmcast(event, ctx())
        assert node.has_delivered(event)
        assert node._delivered == [event]

    def test_uninterested_publisher_does_not_deliver(self):
        node = build_node(
            Address((0, 0)), four_members((False, True, True, True))
        )
        event = Event({})
        node.pmcast(event, ctx())
        assert not node.has_delivered(event)
        assert node.has_received(event)

    def test_event_starts_at_the_root(self):
        node = build_node(Address((0, 0)), four_members())
        event = Event({})
        node.pmcast(event, ctx())
        assert node.buffers._located.get(event.event_id) == 1

    def test_double_publish_rejected(self):
        node = build_node(Address((0, 0)), four_members())
        event = Event({})
        context = ctx()
        node.pmcast(event, context)
        with pytest.raises(ProtocolError):
            node.pmcast(event, context)

    def test_crashed_publisher_rejected(self):
        node = build_node(Address((0, 0)), four_members())
        node.alive = False
        with pytest.raises(ProtocolError):
            node.pmcast(Event({}), ctx())


class TestGossipStep:
    def test_sends_up_to_f_interested_destinations(self):
        node = build_node(Address((0, 0)), four_members())
        event = Event({})
        context = ctx()
        node.pmcast(event, context)
        envelopes = node.gossip_step(context)
        assert envelopes
        assert len(envelopes) <= 2 * node.address.depth  # F per depth at most
        for envelope in envelopes:
            assert envelope.destination != node.address
            assert envelope.message.event == event

    def test_never_targets_uninterested_rows(self):
        # Subtree 1 entirely uninterested: no envelope may go there.
        node = build_node(
            Address((0, 0)), four_members((True, True, False, False))
        )
        event = Event({})
        context = ctx()
        node.pmcast(event, context)
        for __ in range(10):
            for envelope in node.gossip_step(context):
                assert envelope.destination.components[0] == 0

    def test_round_counter_increments_until_bound(self):
        config = PmcastConfig(
            fanout=2, redundancy=1, min_rounds_per_depth=2,
            max_rounds_per_depth=2,
        )
        node = build_node(Address((0, 0)), four_members(), config)
        event = Event({})
        context = ctx()
        node.pmcast(event, context)
        node.gossip_step(context)
        assert node.buffers._buffers[0][event.event_id].round == 1
        node.gossip_step(context)
        assert node.buffers._buffers[0][event.event_id].round == 2
        # Third step: bound reached -> demoted to depth 2, round reset.
        node.gossip_step(context)
        assert node.buffers._located.get(event.event_id) == 2

    def test_expiry_at_leaf_removes(self):
        config = PmcastConfig(
            fanout=2, redundancy=1, min_rounds_per_depth=1,
            max_rounds_per_depth=1,
        )
        node = build_node(Address((0, 0)), four_members(), config)
        event = Event({})
        context = ctx()
        node.pmcast(event, context)
        for __ in range(2 * node.address.depth + 2):
            node.gossip_step(context)
        assert node.is_idle

    def test_demoted_event_gossiped_same_period(self):
        # An event expiring at depth 1 is gossiped at depth 2 within the
        # same GOSSIP firing (Figure 3's in-place loop).
        config = PmcastConfig(
            fanout=2, redundancy=1, min_rounds_per_depth=1,
            max_rounds_per_depth=1,
        )
        node = build_node(Address((0, 0)), four_members(), config)
        event = Event({})
        context = ctx()
        node.pmcast(event, context)
        node.gossip_step(context)        # round 1 at depth 1
        envelopes = node.gossip_step(context)  # expiry -> depth 2 + gossip
        depths = {envelope.message.depth for envelope in envelopes}
        assert depths == {2}
        assert node.buffers._buffers[1][event.event_id].round == 1

    def test_crashed_node_is_silent(self):
        node = build_node(Address((0, 0)), four_members())
        event = Event({})
        context = ctx()
        node.pmcast(event, context)
        node.alive = False
        assert node.gossip_step(context) == []

    def test_idle_node_returns_no_envelopes(self):
        node = build_node(Address((0, 0)), four_members())
        assert node.gossip_step(ctx()) == []

    def test_messages_sent_counter(self):
        node = build_node(Address((0, 0)), four_members())
        event = Event({})
        context = ctx()
        node.pmcast(event, context)
        sent = len(node.gossip_step(context))
        assert node.messages_sent == sent


class TestReceive:
    def make_message(self, event, depth=2, rate=1.0, round=0):
        return GossipMessage(
            event=event, rate=rate, round=round, depth=depth,
            sender=Address((0, 1)),
        )

    def test_first_reception_delivers_when_interested(self):
        node = build_node(Address((0, 0)), four_members())
        event = Event({})
        node.receive(self.make_message(event), ctx())
        assert node.has_delivered(event)
        assert node.buffers._located.get(event.event_id) == 2

    def test_uninterested_receiver_buffers_but_does_not_deliver(self):
        node = build_node(
            Address((0, 0)), four_members((False, True, True, True))
        )
        event = Event({})
        node.receive(self.make_message(event), ctx())
        assert node.has_received(event)
        assert not node.has_delivered(event)
        assert node.buffers.holds(event)   # susceptible delegate

    def test_duplicate_reception_no_double_delivery(self):
        node = build_node(Address((0, 0)), four_members())
        event = Event({})
        context = ctx()
        node.receive(self.make_message(event), context)
        node.receive(self.make_message(event, depth=1), context)
        assert len(node._delivered) == 1
        assert node.receptions == 2
        # Line 20: still buffered at the original depth only.
        assert node.buffers._located.get(event.event_id) == 2

    def test_received_round_resumed(self):
        node = build_node(Address((0, 0)), four_members())
        event = Event({})
        node.receive(self.make_message(event, round=3), ctx())
        assert node.buffers._buffers[1][event.event_id].round == 3

    def test_crashed_receiver_drops_silently(self):
        node = build_node(Address((0, 0)), four_members())
        node.alive = False
        event = Event({})
        node.receive(self.make_message(event), ctx())
        assert not node.has_received(event)

    def test_foreign_depth_rejected(self):
        node = build_node(Address((0, 0)), four_members())
        with pytest.raises(ProtocolError):
            node.receive(self.make_message(Event({}), depth=9), ctx())


class TestLocalInterestShortcut:
    def test_skips_root_when_only_own_subtree_interested(self):
        config = PmcastConfig(
            fanout=2, redundancy=1, min_rounds_per_depth=1,
            local_interest_shortcut=True,
        )
        node = build_node(
            Address((0, 0)),
            four_members((True, True, False, False)),
            config,
        )
        event = Event({})
        node.pmcast(event, ctx())
        assert node.buffers._located.get(event.event_id) == 2

    def test_no_skip_when_remote_subtree_interested(self):
        config = PmcastConfig(
            fanout=2, redundancy=1, min_rounds_per_depth=1,
            local_interest_shortcut=True,
        )
        node = build_node(Address((0, 0)), four_members(), config)
        event = Event({})
        node.pmcast(event, ctx())
        assert node.buffers._located.get(event.event_id) == 1

    def test_disabled_by_default(self):
        node = build_node(
            Address((0, 0)), four_members((True, True, False, False))
        )
        event = Event({})
        node.pmcast(event, ctx())
        assert node.buffers._located.get(event.event_id) == 1


class TestLeafFlood:
    def test_flood_sends_to_every_interested_neighbor(self):
        config = PmcastConfig(
            fanout=1, redundancy=1, min_rounds_per_depth=1,
            leaf_flood_threshold=0.5,
        )
        space = AddressSpace.regular(4, 2)
        members = {
            address: StaticInterest(True)
            for address in space.enumerate_regular(4)
        }
        tree = MembershipTree.build(members, redundancy=1)
        address = Address((0, 0))
        node = PmcastNode(
            address, StaticInterest(True),
            build_process_views(tree, address), config,
        )
        event = Event({})
        context = ctx()
        node.receive(
            GossipMessage(event, rate=1.0, round=0, depth=2,
                          sender=Address((0, 1))),
            context,
        )
        envelopes = node.gossip_step(context)
        leaf_envelopes = [e for e in envelopes if e.message.depth == 2]
        # Flood: all 3 other members of subgroup 0, despite fanout=1.
        assert len(leaf_envelopes) == 3
        assert not node.buffers.holds(event)   # retired after flooding

    def test_no_flood_below_threshold(self):
        config = PmcastConfig(
            fanout=1, redundancy=1, min_rounds_per_depth=1,
            leaf_flood_threshold=0.9,
        )
        node = build_node(
            Address((0, 0)),
            four_members((True, False, True, True)),
            config,
        )
        event = Event({})
        context = ctx()
        node.pmcast(event, context)
        for __ in range(6):
            envelopes = node.gossip_step(context)
            assert len([e for e in envelopes if e.message.depth == 2]) <= 1


class TestPassiveGarbageCollection:
    def test_no_rebuffer_after_expiry(self):
        """A late duplicate must not resurrect a GC'd event.

        Regression test for the leaf-flood oscillation: without a
        seen-set, re-buffering an expired event made two flooding
        neighbors reinfect each other forever.
        """
        config = PmcastConfig(
            fanout=2, redundancy=1, min_rounds_per_depth=1,
            max_rounds_per_depth=1,
        )
        node = build_node(Address((0, 0)), four_members(), config)
        event = Event({})
        context = ctx()
        message = GossipMessage(
            event=event, rate=1.0, round=0, depth=2, sender=Address((0, 1))
        )
        node.receive(message, context)
        for __ in range(4):
            node.gossip_step(context)
        assert node.is_idle
        node.receive(message, context)   # late duplicate
        assert node.is_idle              # stays garbage-collected
        assert len(node._delivered) == 1

    def test_flood_ping_pong_terminates(self):
        """Two flooding neighbors exchange the event finitely."""
        config = PmcastConfig(
            fanout=1, redundancy=1, min_rounds_per_depth=1,
            leaf_flood_threshold=0.5,
        )
        members = four_members()
        tree = MembershipTree.build(members, redundancy=1)
        nodes = {
            address: PmcastNode(
                address, members[address],
                build_process_views(tree, address), config,
            )
            for address in [Address((0, 0)), Address((0, 1))]
        }
        context = ctx()
        nodes[Address((0, 0))].receive(
            GossipMessage(Event({}), 1.0, 0, 2, Address((1, 0))), context
        )
        total = 0
        for __ in range(20):
            for node in nodes.values():
                for envelope in node.gossip_step(context):
                    if envelope.destination in nodes:
                        nodes[envelope.destination].receive(
                            envelope.message, context
                        )
                        total += 1
        assert all(node.is_idle for node in nodes.values())
        assert total <= 4
