"""Tests for per-depth gossip buffers (Figure 3 bookkeeping)."""

import pytest

from repro.core.buffers import BufferedEvent, DepthBuffers
from repro.errors import ProtocolError
from repro.interests import Event


def event(eid):
    return Event({"x": 1}, event_id=eid)


class TestBufferedEvent:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            BufferedEvent(event(1), rate=1.5, round=0)
        with pytest.raises(ProtocolError):
            BufferedEvent(event(1), rate=0.5, round=-1)


class TestDepthBuffers:
    def test_add_and_lookup(self):
        buffers = DepthBuffers(3)
        assert buffers.add(1, event(1), 0.5)
        assert buffers.holds(event(1))
        assert buffers._located.get(event(1).event_id) == 1
        assert len(buffers._located) == 1

    def test_line20_guard_one_depth_at_a_time(self):
        buffers = DepthBuffers(3)
        buffers.add(1, event(1), 0.5)
        # A second reception at any depth is ignored.
        assert not buffers.add(2, event(1), 0.9)
        assert buffers._located.get(event(1).event_id) == 1

    def test_remove(self):
        buffers = DepthBuffers(3)
        buffers.add(2, event(1), 0.5, round=4)
        removed = buffers.remove(2, event(1))
        assert removed.round == 4
        assert not buffers.holds(event(1))
        assert buffers.is_empty

    def test_remove_missing_rejected(self):
        buffers = DepthBuffers(3)
        with pytest.raises(ProtocolError):
            buffers.remove(1, event(1))

    def test_demote_resets_round_and_rate(self):
        buffers = DepthBuffers(3)
        buffers.add(1, event(1), 0.5, round=6)
        fresh = buffers.demote(1, event(1), new_rate=0.25)
        assert fresh.round == 0
        assert fresh.rate == 0.25
        assert buffers._located.get(event(1).event_id) == 2

    def test_demote_below_leaf_rejected(self):
        buffers = DepthBuffers(2)
        buffers.add(2, event(1), 0.5)
        with pytest.raises(ProtocolError):
            buffers.demote(2, event(1), 0.5)

    def test_reinsert_after_expiry_allowed(self):
        # Figure 3's passive GC: once fully expired, a late gossip may
        # re-buffer the event (delivery dedup lives in the node).
        buffers = DepthBuffers(2)
        buffers.add(2, event(1), 0.5)
        buffers.remove(2, event(1))
        assert buffers.add(2, event(1), 0.5, round=3)
        assert buffers._buffers[1][event(1).event_id].round == 3

    def test_iteration_depth_ascending(self):
        buffers = DepthBuffers(3)
        buffers.add(3, event(1), 0.5)
        buffers.add(1, event(2), 0.5)
        depths = [depth for depth, __ in buffers]
        assert depths == [1, 3]

    def test_depth_out_of_range(self):
        buffers = DepthBuffers(2)
        with pytest.raises(ProtocolError):
            buffers.add(0, event(1), 0.5)
        with pytest.raises(ProtocolError):
            buffers.add(3, event(1), 0.5)

    def test_mutating_entry_round_in_place(self):
        # The GOSSIP task mutates the stored round counter (line 8).
        buffers = DepthBuffers(1)
        buffers.add(1, event(1), 0.5)
        next(iter(buffers))[1].round += 1
        assert buffers._buffers[0][event(1).event_id].round == 1
