"""A deterministic virtual clock for discrete-event simulation.

The event-driven runtime (:mod:`repro.net.runtime`) needs a notion of
time that is *exactly* reproducible: two runs with the same seed must
pop the same events in the same order, on any machine, under any
``PYTHONHASHSEED``.  :class:`VirtualClock` is a plain binary heap of
``(time_us, priority, seq, payload)`` entries:

* ``time_us`` — absolute virtual microseconds.  Scheduling into the
  past raises; time only moves forward (the timer-monotonicity law the
  property suite pins).
* ``priority`` — tie-break *within* one instant.  The runtime uses
  ``PRIORITY_BOUNDARY < PRIORITY_TIMER < PRIORITY_FLUSH`` so a round
  boundary is observed before the timers of that instant, and message
  flushes after both.
* ``seq`` — a global monotone counter, so events scheduled earlier pop
  earlier among equal ``(time, priority)``.  This FIFO tie-break is
  what makes timer order reproduce the round-synchronous engine's
  insertion-ordered active dict (see docs/NETWORK.md).

Payloads are opaque to the clock; cancellation is the caller's concern
(the runtime cancels lazily: a popped timer for a dead process is
simply skipped).
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

from repro.errors import NetError

__all__ = [
    "PRIORITY_BOUNDARY",
    "PRIORITY_TIMER",
    "PRIORITY_FLUSH",
    "VirtualClock",
]

#: Round-boundary events run first at an instant: crash application and
#: termination checks happen before any timer of the new round fires.
PRIORITY_BOUNDARY = 0
#: Gossip-timer fires.
PRIORITY_TIMER = 1
#: Transport batch flushes (deliveries) run after timers of the same
#: instant — a message sent *at* time t can never arrive at time t.
PRIORITY_FLUSH = 2


class VirtualClock:
    """A monotone discrete-event queue over virtual microseconds."""

    __slots__ = ("_now", "_seq", "_heap")

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._heap: List[Tuple[int, int, int, Any]] = []

    @property
    def now_us(self) -> int:
        """The current virtual time (time of the last popped event)."""
        return self._now

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, time_us: int, priority: int, payload: Any) -> int:
        """Queue ``payload`` at ``time_us``; returns its sequence number.

        Raises:
            NetError: when ``time_us`` is in the virtual past — a
                deterministic simulation must never rewrite history.
        """
        if time_us < self._now:
            raise NetError(
                f"cannot schedule at t={time_us}us: clock is at "
                f"{self._now}us"
            )
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (int(time_us), int(priority), seq, payload))
        return seq

    def pop(self) -> Tuple[int, int, int, Any]:
        """Advance to and return the next ``(time, priority, seq, payload)``.

        Raises:
            NetError: when the queue is empty.
        """
        if not self._heap:
            raise NetError("virtual clock has no pending events")
        entry = heapq.heappop(self._heap)
        self._now = entry[0]
        return entry

    def __repr__(self) -> str:
        return (
            f"VirtualClock(now_us={self._now}, pending={len(self._heap)})"
        )
