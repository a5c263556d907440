"""Per-depth gossip buffers (Figure 3, lines 2–3 and 19–21).

Each process keeps one buffer per tree depth holding the events it is
currently gossiping about at that depth, together with the propagated
matching rate and the per-depth round counter.  The bounded-gossiping
garbage collection (§3.3) removes an entry once its round counter
reaches the Pittel bound; :class:`DepthBuffers` is pure bookkeeping —
the bound itself is computed by the node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.interests.events import Event

__all__ = ["BufferedEvent", "DepthBuffers"]


@dataclass(slots=True)
class BufferedEvent:
    """One ``(event, rate, round)`` triple of a gossip buffer."""

    event: Event
    rate: float
    round: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ProtocolError(f"matching rate {self.rate} not in [0, 1]")
        if self.round < 0:
            raise ProtocolError(f"round {self.round} must be >= 0")


class DepthBuffers:
    """The ``gossips[1..d]`` array of Figure 3.

    Enforces the line-20 invariant: an event lives in at most one
    depth's buffer at a time.
    """

    __slots__ = ("_depth", "_buffers", "_located")

    def __init__(self, tree_depth: int):
        if tree_depth < 1:
            raise ProtocolError(f"tree depth {tree_depth} must be >= 1")
        # PmcastNode._install lays out these same fields inline.
        self._depth = tree_depth
        self._buffers: List[Dict[int, BufferedEvent]] = [
            {} for __ in range(tree_depth)
        ]
        # event_id -> depth currently buffering it.
        self._located: Dict[int, int] = {}

    @property
    def tree_depth(self) -> int:
        """The number of per-depth buffers ``d``."""
        return self._depth

    def _bucket(self, depth: int) -> Dict[int, BufferedEvent]:
        if not 1 <= depth <= self._depth:
            raise ProtocolError(
                f"depth {depth} out of range [1, {self._depth}]"
            )
        return self._buffers[depth - 1]

    def holds(self, event: Event) -> bool:
        """Figure 3 line 20: is the event buffered at *any* depth?"""
        return event.event_id in self._located

    def depth_of(self, event: Event) -> Optional[int]:
        """The depth currently buffering ``event``, or None."""
        return self._located.get(event.event_id)

    def add(self, depth: int, event: Event, rate: float, round: int = 0) -> bool:
        """Insert an event at ``depth`` unless buffered anywhere already.

        Returns True if inserted (the line-20 guard passed).
        """
        if self.holds(event):
            return False
        self._bucket(depth)[event.event_id] = BufferedEvent(event, rate, round)
        self._located[event.event_id] = depth
        return True

    def remove(self, depth: int, event: Event) -> BufferedEvent:
        """Drop the event from ``depth``'s buffer (line 16)."""
        bucket = self._bucket(depth)
        entry = bucket.pop(event.event_id, None)
        if entry is None:
            raise ProtocolError(
                f"event {event.event_id} is not buffered at depth {depth}"
            )
        del self._located[event.event_id]
        return entry

    def demote(self, depth: int, event: Event, new_rate: float) -> BufferedEvent:
        """Move an expired event one depth down with a fresh round counter.

        Figure 3 lines 16–18: remove from ``gossips[depth]``, insert
        ``(event, GETRATE(depth+1, event), 0)`` into ``gossips[depth+1]``.
        """
        if depth >= self._depth:
            raise ProtocolError(
                f"cannot demote below the leaf depth {self._depth}"
            )
        self.remove(depth, event)
        fresh = BufferedEvent(event, new_rate, 0)
        self._bucket(depth + 1)[event.event_id] = fresh
        self._located[event.event_id] = depth + 1
        return fresh

    def entries(self, depth: int) -> List[BufferedEvent]:
        """A snapshot of ``gossips[depth]`` (stable iteration order)."""
        return list(self._bucket(depth).values())

    def entry(self, depth: int, event: Event) -> BufferedEvent:
        """The buffered triple for ``event`` at ``depth``."""
        entry = self._bucket(depth).get(event.event_id)
        if entry is None:
            raise ProtocolError(
                f"event {event.event_id} is not buffered at depth {depth}"
            )
        return entry

    @property
    def is_empty(self) -> bool:
        """True when no event is buffered at any depth (node is idle)."""
        return not self._located

    def __len__(self) -> int:
        return len(self._located)

    def __iter__(self) -> Iterator[Tuple[int, BufferedEvent]]:
        """Yield ``(depth, entry)`` pairs over all buffers, depth-ascending.

        Each buffer is snapshotted only when the walk reaches it, so an
        entry demoted mid-walk is yielded again at its new depth.
        """
        for index, bucket in enumerate(self._buffers, start=1):
            for entry in list(bucket.values()):
                yield index, entry
