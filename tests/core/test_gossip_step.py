"""The GOSSIP task against its candidate-list reference.

``PmcastNode.gossip_step`` draws entry *positions* over the flat match
(skipping its own) and reads the match's verdict mask and round-bound
memo.  Figure 3 lines 4–18 read most directly as: build the view minus
self, ``random.sample`` F of it, send to the interested ones.  The
reference below is that reading; the two must agree envelope for
envelope, leave the same buffers and consume the stream identically.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import Address
from repro.config import PmcastConfig
from repro.core import Envelope, GossipContext, GossipMessage, PmcastNode
from repro.core.rounds import depth_round_bound
from repro.interests import Event, StaticInterest
from repro.membership import ViewRow, ViewTable


def reference_step(node, ctx, config):
    """Figure 3 lines 4–18 over a per-entry candidate list."""
    out = []
    leaf = node.address.depth
    for depth in range(1, leaf + 1):
        for entry in list(node.buffers._buffers[depth - 1].values()):
            table = node._views[depth]
            match = ctx.table_match(table, entry.event)
            if depth == leaf and match.rate >= config.leaf_flood_threshold:
                message = GossipMessage(
                    entry.event, entry.rate, entry.round, depth, node.address
                )
                out.extend(
                    Envelope(destination, message)
                    for destination in sorted(match.matching)
                    if destination != node.address
                )
                node.buffers.remove(depth, entry.event)
                continue
            bound = depth_round_bound(sum(len(row.delegates) for row in table.rows()), entry.rate, config)
            if entry.round < bound:
                entry.round += 1
                candidates = [
                    address
                    for address in match.entries
                    if address != node.address
                ]
                if not candidates:
                    continue
                message = GossipMessage(
                    entry.event, entry.rate, entry.round, depth, node.address
                )
                count = min(config.fanout, len(candidates))
                for destination in ctx.rng.sample(candidates, count):
                    if destination in match.matching:
                        out.append(Envelope(destination, message))
            elif depth < leaf:
                next_match = ctx.table_match(
                    node._views[depth + 1], entry.event
                )
                node.buffers.demote(depth, entry.event, next_match.rate)
            else:
                node.buffers.remove(depth, entry.event)
    return out


@st.composite
def views_of(draw, tree_depth):
    """One table per depth along the path of ``0.0…0``, self listed in
    each or not; up to 10 rows of up to 5 delegates, so both branches of
    the ``sample`` mirror (pool and selection set) are reached."""
    me = Address((0,) * tree_depth)
    views = {}
    for depth in range(1, tree_depth + 1):
        prefix = me.prefix(depth)
        head = prefix.components
        listed = draw(st.booleans())
        rows = []
        for infix in range(draw(st.integers(1, 10))):
            if depth == tree_depth:
                if infix == 0 and not listed:
                    continue
                delegates = (Address(head + (infix,)),)
            else:
                pad = (0,) * (tree_depth - depth - 1)
                tails = list(range(1, draw(st.integers(1, 5)) + 1))
                if infix == 0 and listed:
                    tails[0] = 0            # ourselves, as a delegate
                delegates = tuple(
                    Address(head + (infix, tail) + pad) for tail in tails
                )
            rows.append(
                ViewRow(
                    infix,
                    delegates,
                    StaticInterest(draw(st.booleans())),
                    len(delegates),
                )
            )
        if not rows:                        # a leaf of ourselves alone
            rows.append(
                ViewRow(1, (Address(head + (1,)),), StaticInterest(True), 1)
            )
        views[depth] = ViewTable(prefix, tree_depth, rows)
    return me, views


@st.composite
def scenarios(draw):
    tree_depth = draw(st.integers(1, 3))
    me, views = draw(views_of(tree_depth))
    config = PmcastConfig(
        fanout=draw(st.integers(1, 10)),
        redundancy=4,
        threshold_h=draw(st.integers(0, 6)),
        min_rounds_per_depth=draw(st.integers(0, 2)),
        # Off (2.0), on at rates a small leaf hits exactly, or anywhere.
        leaf_flood_threshold=draw(
            st.one_of(
                st.just(2.0),
                st.sampled_from([0.0, 0.5, 1.0]),
                st.floats(0.0, 1.0),
            )
        ),
    )
    buffered = [
        (
            draw(st.integers(1, tree_depth)),
            draw(st.floats(0.0, 1.0)),
            draw(st.integers(0, 3)),
        )
        for __ in range(draw(st.integers(1, 3)))
    ]
    return me, views, config, buffered, draw(st.integers(0, 2**32))


def buffer_state(node):
    return [
        (depth, entry.event.event_id, entry.rate, entry.round)
        for depth, entry in node.buffers
    ]


class TestGossipStepEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_same_envelopes_buffers_and_stream(self, scenario):
        me, views, config, buffered, seed = scenario
        events = [Event({}, event_id=500 + n) for n in range(len(buffered))]
        pair = []
        for __ in range(2):
            node = PmcastNode(me, StaticInterest(True), views, config)
            for event, (depth, rate, round_) in zip(events, buffered):
                node.buffers.add(depth, event, rate, round=round_)
            ctx = GossipContext(
                random.Random(seed), threshold_h=config.threshold_h
            )
            pair.append((node, ctx))
        (node, ctx), (twin, twin_ctx) = pair
        # An entry spends at most max_rounds_per_depth + 1 steps at a
        # depth: a rate near 0 draws the window's top bound.
        for __ in range(node.address.depth * (config.max_rounds_per_depth + 1)):
            assert node.gossip_step(ctx) == reference_step(
                twin, twin_ctx, config
            )
            assert buffer_state(node) == buffer_state(twin)
            assert ctx.rng.getstate() == twin_ctx.rng.getstate()
            if node.is_idle:
                break
        assert node.is_idle
