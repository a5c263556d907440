"""Wire-level conformance: the protocol runs over JSON-encoded messages.

A dissemination where every gossip is serialized to a JSON string and
parsed back before delivery — if the codec lost anything the protocol
needs (rates, rounds, depths, event identity, interests in view
transfers), this would diverge from the in-memory run.
"""

import json

from repro.addressing import AddressSpace
from repro.config import PmcastConfig
from repro.core import GossipContext
from repro.core.codec import (
    decode_message,
    decode_view_table,
    encode_message,
    encode_view_table,
)
from repro.interests import Event, parse_subscription
from repro.membership import build_process_views
from repro.sim import PmcastGroup, derive_rng


def build_group():
    space = AddressSpace.regular(3, 3)
    members = {}
    for index, address in enumerate(space.enumerate_regular(3)):
        text = "b > 5" if index % 2 == 0 else "b > 0"
        members[address] = parse_subscription(text)
    return PmcastGroup.build(
        members, PmcastConfig(fanout=3, redundancy=2, min_rounds_per_depth=2)
    ), sorted(members)


class TestWireProtocol:
    def run_over_the_wire(self, event):
        group, addresses = build_group()
        nodes = {address: group.node(address) for address in addresses}
        ctx = GossipContext(derive_rng(55, "wire"))
        nodes[addresses[0]].pmcast(event, ctx)
        wire_messages = 0
        for __ in range(64):
            envelopes = []
            for node in nodes.values():
                envelopes.extend(node.gossip_step(ctx))
            for envelope in envelopes:
                # The actual wire boundary: dict -> JSON text -> dict.
                payload = json.dumps(encode_message(envelope.message))
                message = decode_message(json.loads(payload))
                nodes[envelope.destination].receive(message, ctx)
                wire_messages += 1
            if all(node.is_idle for node in nodes.values()):
                break
        return group, nodes, wire_messages

    def test_dissemination_over_json(self):
        event = Event({"b": 3}, event_id=30_001)
        group, nodes, wire_messages = self.run_over_the_wire(event)
        assert wire_messages > 0
        interested = set(group.interested_members(event))
        delivered = {
            node.address
            for node in nodes.values()
            if node.has_delivered(event)
        }
        assert delivered == interested  # "b > 0" half, loss-free
        assert 0 < len(interested) < group.size

    def test_event_identity_survives_the_wire(self):
        event = Event({"b": 9}, event_id=30_002)
        __, nodes, __ = self.run_over_the_wire(event)
        # Dedup across wire hops: nobody delivered twice.
        for node in nodes.values():
            assert len(node._delivered) == len(set(node._delivered))

    def test_view_transfer_over_json(self):
        # A §2.3 join transfer: all tables of a process, through JSON.
        group, addresses = build_group()
        views = build_process_views(group.tree, addresses[0])
        for depth, table in views.items():
            payload = json.dumps(encode_view_table(table))
            restored = decode_view_table(json.loads(payload))
            assert restored.rows() == table.rows()
            # The restored table matches events identically.
            probe = Event({"b": 3}, event_id=30_003)
            assert [r.infix for r in restored.matching_rows(probe)] == [
                r.infix for r in table.matching_rows(probe)
            ]
