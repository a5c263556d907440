"""Stateful property testing of DepthBuffers against a naive model."""

import hypothesis
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.buffers import DepthBuffers
from repro.errors import ProtocolError
from repro.interests import Event

DEPTH = 3


class BuffersMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.buffers = DepthBuffers(DEPTH)
        # model: event_id -> (depth, rate, round)
        self.model = {}
        self.events = {}

    def event(self, event_id):
        if event_id not in self.events:
            self.events[event_id] = Event({}, event_id=event_id)
        return self.events[event_id]

    @rule(
        event_id=st.integers(0, 9),
        depth=st.integers(1, DEPTH),
        rate=st.floats(0.0, 1.0),
        round=st.integers(0, 5),
    )
    def add(self, event_id, depth, rate, round):
        added = self.buffers.add(depth, self.event(event_id), rate, round)
        if event_id in self.model:
            assert not added          # line-20 guard
        else:
            assert added
            self.model[event_id] = (depth, rate, round)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        event_id = data.draw(st.sampled_from(sorted(self.model)))
        depth, __, ___ = self.model[event_id]
        entry = self.buffers.remove(depth, self.event(event_id))
        assert entry.event.event_id == event_id
        del self.model[event_id]

    @precondition(lambda self: any(
        depth < DEPTH for depth, __, ___ in self.model.values()
    ))
    @rule(data=st.data(), new_rate=st.floats(0.0, 1.0))
    def demote(self, data, new_rate):
        candidates = sorted(
            event_id
            for event_id, (depth, __, ___) in self.model.items()
            if depth < DEPTH
        )
        event_id = data.draw(st.sampled_from(candidates))
        depth, __, ___ = self.model[event_id]
        fresh = self.buffers.demote(depth, self.event(event_id), new_rate)
        assert fresh.round == 0
        self.model[event_id] = (depth + 1, new_rate, 0)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def increment_round(self, data):
        event_id = data.draw(st.sampled_from(sorted(self.model)))
        depth, rate, round = self.model[event_id]
        self.buffers._buffers[depth - 1][self.event(event_id).event_id].round += 1
        self.model[event_id] = (depth, rate, round + 1)

    @rule(event_id=st.integers(0, 9), depth=st.integers(1, DEPTH))
    def remove_missing_raises(self, event_id, depth):
        if self.model.get(event_id, (None,))[0] == depth:
            return
        try:
            self.buffers.remove(depth, self.event(event_id))
            assert False, "remove of missing entry must raise"
        except ProtocolError:
            pass

    @invariant()
    def located_matches_model(self):
        assert len(self.buffers._located) == len(self.model)
        for event_id, (depth, rate, round) in self.model.items():
            event = self.event(event_id)
            assert self.buffers.holds(event)
            assert self.buffers._located.get(event.event_id) == depth
            entry = self.buffers._buffers[depth - 1][event.event_id]
            assert entry.round == round
            assert entry.rate == rate

    @invariant()
    def iteration_is_depth_ascending(self):
        depths = [depth for depth, __ in self.buffers]
        assert depths == sorted(depths)

    @invariant()
    def is_empty_consistent(self):
        assert self.buffers.is_empty == (not self.model)


TestBuffersMachine = BuffersMachine.TestCase
TestBuffersMachine.settings = hypothesis.settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
