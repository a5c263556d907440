"""The virtual clock: deterministic (time, priority, seq) ordering."""

import pytest

from repro.errors import NetError
from repro.net.clock import (
    PRIORITY_BOUNDARY,
    PRIORITY_FLUSH,
    PRIORITY_TIMER,
    VirtualClock,
)


class TestOrdering:
    def test_pops_in_time_order(self):
        clock = VirtualClock()
        clock.schedule(300, PRIORITY_TIMER, "c")
        clock.schedule(100, PRIORITY_TIMER, "a")
        clock.schedule(200, PRIORITY_TIMER, "b")
        assert [clock.pop()[3] for __ in range(3)] == ["a", "b", "c"]

    def test_priority_breaks_time_ties(self):
        clock = VirtualClock()
        clock.schedule(100, PRIORITY_FLUSH, "flush")
        clock.schedule(100, PRIORITY_BOUNDARY, "boundary")
        clock.schedule(100, PRIORITY_TIMER, "timer")
        assert [clock.pop()[3] for __ in range(3)] == [
            "boundary", "timer", "flush",
        ]

    def test_fifo_breaks_priority_ties(self):
        # The tie-break that reproduces the engine's insertion-ordered
        # active dict: equal (time, priority) pops in schedule order.
        clock = VirtualClock()
        for label in ["first", "second", "third"]:
            clock.schedule(50, PRIORITY_TIMER, label)
        assert [clock.pop()[3] for __ in range(3)] == [
            "first", "second", "third",
        ]

    def test_pop_advances_now(self):
        clock = VirtualClock()
        assert clock.now_us == 0
        clock.schedule(75, PRIORITY_TIMER, None)
        clock.pop()
        assert clock.now_us == 75

    def test_interleaved_scheduling(self):
        clock = VirtualClock()
        clock.schedule(100, PRIORITY_TIMER, "r1")
        when, __, __, __ = clock.pop()
        # Events scheduled while processing keep global seq order.
        clock.schedule(when + 100, PRIORITY_TIMER, "r2")
        clock.schedule(when + 100, PRIORITY_BOUNDARY, "b2")
        assert clock.pop()[3] == "b2"
        assert clock.pop()[3] == "r2"


class TestGuards:
    def test_rejects_scheduling_into_the_past(self):
        clock = VirtualClock()
        clock.schedule(100, PRIORITY_TIMER, None)
        clock.pop()
        with pytest.raises(NetError):
            clock.schedule(99, PRIORITY_TIMER, None)

    def test_scheduling_at_now_is_allowed(self):
        clock = VirtualClock()
        clock.schedule(100, PRIORITY_TIMER, None)
        clock.pop()
        clock.schedule(100, PRIORITY_FLUSH, "same-instant")
        assert clock.pop()[3] == "same-instant"

    def test_pop_on_empty_raises(self):
        with pytest.raises(NetError):
            VirtualClock().pop()

    def test_bool_and_pending(self):
        clock = VirtualClock()
        assert not clock
        clock.schedule(1, PRIORITY_TIMER, None)
        assert clock
        assert clock.pending == 1
        clock.pop()
        assert not clock
