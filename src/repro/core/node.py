"""The pmcast protocol state machine (paper §3, Figure 3).

One :class:`PmcastNode` is one process of the group: it owns the
per-depth gossip buffers, runs the periodic GOSSIP task, handles
RECEIVE, and initiates PMCAST.  Nodes are transport-agnostic — the
GOSSIP task *returns* the messages to send and the simulator (or any
other harness) carries them — so the same state machine runs under the
round-synchronous simulator and under the example applications.

Fidelity notes (each tied to a Figure 3 line):

* line 7 — the round bound is ``T(|view[depth]|·R·rate, F·rate)`` with
  the *propagated* rate of the buffered triple; the effective entry
  count already equals ``|view|·R`` below the leaf depth and ``|view|``
  at it.
* lines 10–14 — F distinct destinations are drawn from the whole view,
  and the event is sent only to those whose (regrouped) interest
  matches; the §5.3 tuning widens that audience via the shared
  :class:`~repro.core.context.GossipContext`.
* lines 16–18 — on expiry the event moves one depth down with a fresh
  round counter and a locally computed GETRATE for the next depth.
* lines 19–23 — an event is buffered at most once per process, ever
  (a seen-set generalizes the figure's buffered-at-any-depth check so
  passive garbage collection is final), and delivery (HPDELIVER)
  happens on first reception, only if the process's own interest
  matches.
* lines 24–25 — PMCAST inserts at the *root* (depth 1): the algorithm
  figure's OCR shows ``gossips[d]`` but §3.1 is explicit that
  dissemination starts at the root and moves toward depth d (see
  DESIGN.md).  The §3.2 shortcut for events of local interest can skip
  root depths where only the sender's own subtree is interested.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.addressing import Address
from repro.config import PmcastConfig
from repro.core.buffers import BufferedEvent, DepthBuffers
from repro.core.context import GossipContext
from repro.core.messages import Envelope, GossipMessage
from repro.core.rate import TableMatch, sample_positions
from repro.errors import ProtocolError
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.membership.views import ViewTable

__all__ = ["PmcastNode", "shortcut_depth"]

class PmcastNode:
    """One pmcast process: views, buffers, and the Figure 3 tasks.

    Args:
        address: the process's hierarchical address.
        interest: the process's own subscription.
        views: one :class:`ViewTable` per depth ``1..d`` along the
            process's prefix path (see
            :func:`repro.membership.knowledge.build_process_views`).
        config: the protocol parameters.
    """

    __slots__ = (
        "_address",
        "_interest",
        "_views",
        "_config",
        "_tree_depth",
        "_buffers",
        "_received",
        "_delivered",
        "_delivered_ids",
        "_messages_sent",
        "_receptions",
        "alive",
    )

    def __init__(
        self,
        address: Address,
        interest: Interest,
        views: Dict[int, ViewTable],
        config: PmcastConfig,
    ):
        depths = sorted(views)
        if not depths or depths != list(range(1, depths[-1] + 1)):
            raise ProtocolError(
                f"views must cover depths 1..d contiguously, got {depths}"
            )
        for depth, table in views.items():
            if table.depth != depth:
                raise ProtocolError(
                    f"table at key {depth} is for depth {table.depth}"
                )
            if not table.prefix.is_prefix_of(address):
                raise ProtocolError(
                    f"table {table.prefix} is not on {address}'s prefix path"
                )
        self._install(address, interest, views, config)

    @classmethod
    def wired(
        cls,
        address: Address,
        interest: Interest,
        views: Dict[int, ViewTable],
        config: PmcastConfig,
    ) -> "PmcastNode":
        """Trusted constructor: ``views`` are the tables on ``address``'s
        prefix path, as :class:`~repro.sim.group.PmcastGroup` looks them
        up by its table ids, so nothing is checked."""
        node = cls.__new__(cls)
        node._install(address, interest, views, config)
        return node

    def _install(
        self,
        address: Address,
        interest: Interest,
        views: Dict[int, ViewTable],
        config: PmcastConfig,
    ) -> None:
        """Set every field in one frame: a group build runs this once
        per member, so the empty buffers are laid out here rather than
        through :class:`DepthBuffers`' constructor."""
        self._address = address
        self._interest = interest
        self._views = dict(views)
        self._config = config
        # Checked views cover depths 1..d contiguously.
        depth = self._tree_depth = len(views)
        buffers = self._buffers = DepthBuffers.__new__(DepthBuffers)
        buffers._depth = depth
        buffers._buffers = [{} for __ in range(depth)]
        buffers._located = {}
        self._received: Set[int] = set()
        self._delivered: List[Event] = []
        self._delivered_ids: Set[int] = set()
        self._messages_sent = 0
        self._receptions = 0
        self.alive = True

    # -- inspection -----------------------------------------------------

    @property
    def address(self) -> Address:
        """This process's address."""
        return self._address

    @property
    def buffers(self) -> DepthBuffers:
        """The per-depth gossip buffers (exposed for tests/metrics)."""
        return self._buffers

    @property
    def is_idle(self) -> bool:
        """True when no event is being gossiped by this node."""
        return self._buffers.is_empty

    @property
    def messages_sent(self) -> int:
        """Total gossip messages emitted by this node."""
        return self._messages_sent

    @property
    def receptions(self) -> int:
        """Total gossip messages received (duplicates included)."""
        return self._receptions

    def has_received(self, event: Event) -> bool:
        """True if this node ever received (or published) the event."""
        return event.event_id in self._received

    def has_delivered(self, event: Event) -> bool:
        """True if the event was HPDELIVERed here."""
        return event.event_id in self._delivered_ids

    # -- the three Figure 3 entry points ---------------------------------

    def pmcast(self, event: Event, ctx: GossipContext) -> None:
        """PMCAST (lines 24–25): start multicasting ``event``.

        The publisher takes part in the entire gossip procedure from
        the root down (§3.2), delivering to itself first if interested.
        """
        if not self.alive:
            raise ProtocolError(f"{self._address} has crashed")
        if event.event_id in self._received:
            raise ProtocolError(f"event {event.event_id} already published")
        self._note_first_reception(event)
        depth = 1
        if self._config.local_interest_shortcut:
            depth = shortcut_depth(self._address, self._views, event)
        match = ctx.table_match(self._views[depth], event)
        self._buffers.add(depth, event, match.rate, round=0)

    def receive(self, message: GossipMessage, ctx: GossipContext) -> None:
        """RECEIVE (lines 19–23)."""
        if not self.alive:
            return
        if not 1 <= message.depth <= self._tree_depth:
            raise ProtocolError(f"gossip for foreign depth {message.depth}")
        self._receptions += 1
        if message.event.event_id in self._received:
            # Line 20 generalized: an event is buffered at most once
            # per process, *ever*.  Checking only the live buffers (the
            # figure's literal reading) would let a late duplicate
            # re-buffer an event that bounded gossiping already
            # garbage-collected — and with the §6 leaf-flood extension
            # that reinfection oscillates forever.  The seen-set is the
            # standard way gossip implementations keep passive GC final.
            return
        self._note_first_reception(message.event)
        self._buffers.add(
            message.depth, message.event, message.rate, message.round
        )

    def gossip_step(self, ctx: GossipContext) -> List[Envelope]:
        """One firing of the periodic GOSSIP task (lines 4–18).

        Returns the envelopes to transmit this period.  Depths are
        walked in ascending order, so an event expiring at depth ``i``
        is demoted into ``gossips[i+1]`` and gossiped there within the
        same period — exactly the in-place mutation of Figure 3's loop.
        """
        if not self.alive or self._buffers.is_empty:
            return []
        out: List[Envelope] = []
        views = self._views
        leaf = self._tree_depth
        config = self._config
        # A buffer is snapshotted only when the walk reaches it, so a
        # demotion is seen at its new depth.
        for depth, entry in self._buffers:
            match = ctx.table_match(views[depth], entry.event)
            if depth == leaf and match.rate >= config.leaf_flood_threshold:
                self._leaf_flood(depth, entry, match, out)
            elif entry.round < match.round_bound(entry.rate, config):
                entry.round += 1
                self._emit_gossips(depth, entry, match, ctx, out)
            elif depth < leaf:
                next_match = ctx.table_match(views[depth + 1], entry.event)
                self._buffers.demote(depth, entry.event, next_match.rate)
            else:
                self._buffers.remove(depth, entry.event)
        self._messages_sent += len(out)
        return out

    # -- internals -------------------------------------------------------

    def _note_first_reception(self, event: Event) -> None:
        self._received.add(event.event_id)
        if self._interest.matches(event):
            # HPDELIVER (line 23).
            self._delivered.append(event)
            self._delivered_ids.add(event.event_id)

    def _emit_gossips(
        self,
        depth: int,
        entry: BufferedEvent,
        match: TableMatch,
        ctx: GossipContext,
        out: List[Envelope],
    ) -> None:
        """Lines 9–14: draw F destinations, send to the interested ones.

        The F draws are positions over the view minus ourselves: the
        ``random.sample`` of a candidate list, made without building
        one (entries past our own position shift up by one), and line
        13's check reads the match's verdict mask.
        """
        own = match.positions.get(self._address, -1)
        size = len(match.entries) - (own >= 0)
        if not size:
            return
        entries = match.entries
        mask = match.mask
        message = None  # built at the first interested draw, if any
        count = min(self._config.fanout, size)
        for j in sample_positions(ctx.rng, size, count):
            if 0 <= own <= j:
                j += 1
            if mask[j]:
                if message is None:
                    message = GossipMessage(
                        event=entry.event,
                        rate=entry.rate,
                        round=entry.round,
                        depth=depth,
                        sender=self._address,
                    )
                out.append(Envelope(entries[j], message))

    def _leaf_flood(
        self,
        depth: int,
        entry: BufferedEvent,
        match: TableMatch,
        out: List[Envelope],
    ) -> None:
        """§6 extension 1: flood a leaf subgroup dense with interest.

        Taken (threshold <= 1) when the leaf matching rate reaches the
        threshold: the event is sent once to every interested neighbor
        and retired locally.  Receivers flood once themselves (first
        buffering) and then retire too, so a leaf subgroup costs at
        most one message per (holder, neighbor) pair.
        """
        message = GossipMessage(
            event=entry.event,
            rate=entry.rate,
            round=entry.round,
            depth=depth,
            sender=self._address,
        )
        for destination in sorted(match.matching):
            if destination != self._address:
                out.append(Envelope(destination, message))
        self._buffers.remove(depth, entry.event)


def shortcut_depth(address: Address, views: Dict[int, ViewTable], event: Event) -> int:
    """§3.2: the depth a publish of ``event`` by ``address`` (whose view
    tables are ``views``, by depth) starts at — root depths where only
    its own subtree is interested are skipped."""
    depth = 1
    while depth < len(views):
        own_infix = address.components[depth - 1]
        interested_infixes = {
            row.infix for row in views[depth].matching_rows(event)
        }
        if interested_infixes <= {own_infix}:
            depth += 1
        else:
            break
    return depth
