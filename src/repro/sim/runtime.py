"""A long-running group: dissemination + membership management together.

:func:`repro.sim.engine.run_dissemination` measures one event over a
*static* group.  :class:`GroupRuntime` is the live system of §2.3: in
every round, alongside the Figure 3 event gossip,

* each process runs one **gossip-pull** membership exchange — with a
  random immediate neighbor (its depth-d subgroup) and with a random
  more distant peer ("membership information can be piggybacked when
  gossiping events, or [...] propagated with dedicated gossips");
* each process feeds its **failure detector** from every contact: a
  received event gossip or a membership exchange both prove the sender
  alive ("every process keeps track of the last time it was contacted
  by its most immediate neighbor processes");
* when every live neighbor of a silent process has been suspecting it
  past the timeout (the §6 leaf-subgroup *agreement* hardening), the
  process is **excluded**: removed from the membership and from the
  views along its prefix path.  Every process's detector and the
  accusations live in one group-wide
  :class:`~repro.membership.failure_detector.ContactTable`.

Processes crash silently through :meth:`GroupRuntime.crash`; the
runtime exposes how long detection and exclusion took, and publishes
keep flowing before, during and after.

Scheduling is **active-set** based: an event round only visits the
processes that actually buffer an event (*infected* processes), so a
round costs O(infected), not O(n) — at paper scale almost every node
is idle almost always.  Skipping an idle node is free of side effects:
its GOSSIP task returns immediately without drawing randomness, so the
active-set walk consumes the shared RNG exactly like the full scan,
provided the visit *order* matches.  The runtime therefore stamps each
node with a wiring sequence number and walks the active set in that
order — the same order the full scan would use.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import is_not
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.addressing import Address, Prefix
from repro.config import PmcastConfig, SimConfig
from repro.core.context import GossipContext
from repro.core.messages import Envelope
from repro.core.node import PmcastNode
from repro.errors import MembershipError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.membership.failure_detector import ContactTable
from repro.membership.gossip_pull import (
    _ADDR_TOKENS,
    _CACHE_TOKENS,
    MembershipState,
    _pull,
    exchange,
)
from repro.membership.knowledge import build_view, refresh_path
from repro.membership.tree import MembershipTree
from repro.membership.views import ViewTable
from repro.net.scheduler import Schedule
from repro.obs.probes import NULL_OBSERVER, Observer
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_rng
from repro.variants.base import emit_dispositions

__all__ = ["GroupRuntime"]


class GroupRuntime:
    """A running pmcast group with live membership management.

    Args:
        members: initial member -> interest mapping.
        config: protocol parameters.
        sim_config: loss/seed environment.
        detector_timeout: rounds of silence before a neighbor suspects
            a process (§2.3).
        exclusion_quorum: how many distinct neighbors must concur
            before exclusion; ``None`` requires *all* live neighbors
            (the §6 agreement variant).
        piggyback_membership: when True, every delivered event gossip
            also carries membership information — the receiver pulls
            from the sender's replica ("membership information can be
            piggybacked when gossiping events", §2.3), accelerating
            view convergence wherever events already flow.
        observer: an optional :class:`~repro.obs.probes.Observer`.
            Its registry receives per-subsystem counters (``runtime``,
            ``membership``, ``views``, ``detector``, ``gossip_pull``,
            ``match_cache``); when a trace destination is attached,
            every protocol action — event gossip, membership pulls,
            join/leave/crash, suspicions, exclusions, view refreshes —
            is emitted as a :class:`~repro.obs.trace.TraceRecord`.
            Observation never draws randomness: an observed run is
            bit-identical to an unobserved one.
        fault_plan: an optional :class:`~repro.faults.plan.FaultPlan`
            replayed across the runtime's rounds by a
            :class:`~repro.faults.injector.FaultInjector` — the
            group's link, wrapping its network — over a dedicated RNG
            stream (label ``"runtime-faults"``).
            Targeted/delegate/depth crash clauses go through
            :meth:`crash`, so detection and exclusion react exactly as
            they would to any other silent crash.  A run with an empty
            plan is bit-identical to a run with none.
        schedule: an optional :class:`~repro.net.scheduler.Schedule`
            governing *how many* gossip steps each process takes per
            round (:meth:`Schedule.fires_in_round` keyed by the dotted
            address, 1-based rounds).  ``None`` — and any
            round-synchronous schedule, e.g. the zero-jitter
            :class:`~repro.net.scheduler.RoundSchedule` — reproduces
            the engine's one-fire-per-round cadence bit for bit.
            Jittered and straggler schedules model timers drifting
            across round boundaries or running at a slower cadence;
            a process firing zero times simply keeps buffering.
    """

    def __init__(
        self,
        members: Dict[Address, Interest],
        config: Optional[PmcastConfig] = None,
        sim_config: Optional[SimConfig] = None,
        detector_timeout: int = 12,
        exclusion_quorum: Optional[int] = None,
        piggyback_membership: bool = False,
        observer: Optional[Observer] = None,
        fault_plan: Optional[FaultPlan] = None,
        schedule: Optional[Schedule] = None,
    ):
        if not members:
            raise SimulationError("cannot start an empty runtime")
        if exclusion_quorum is not None and exclusion_quorum < 1:
            raise SimulationError(
                f"exclusion_quorum {exclusion_quorum} must be >= 1 "
                "(None = every live neighbor)"
            )
        self._config = config or PmcastConfig()
        self._sim_config = sim_config or SimConfig()
        self._piggyback_membership = piggyback_membership
        self._schedule = schedule
        self._schedule_keys: Dict[Address, str] = {}
        self._tree = MembershipTree.build(members, self._config.redundancy)
        self._clock = 0
        self._round = 0
        self._tables: Dict[Prefix, ViewTable] = {}
        self._nodes: Dict[Address, PmcastNode] = {}
        self._replicas: Dict[Address, MembershipState] = {}
        # The same replicas by slot (None once their owner left).
        self._replica_at: List[Optional[MembershipState]] = []
        # Every process's failure detector and the §6 accusations, one
        # slot per address ever wired (kept across leave and re-join).
        self._contacts = ContactTable(
            detector_timeout, self._tree.depth, exclusion_quorum
        )
        # Per slot and depth: the cache token of the table the replica
        # holds, and an id of that table's prefix.  Two replicas are in
        # sync iff their tokens agree wherever their prefixes do, so a
        # round's pulls are sorted out in one array compare.  The tokens
        # are those of the ``_seq`` tuple kept beside them (a replica
        # replaces the tuple whenever it changes a table).
        self._tokens = np.zeros((0, self._tree.depth), np.int64)
        self._tokens_of: List[Optional[tuple]] = []
        self._prefix_ids = np.zeros((0, self._tree.depth), np.int64)
        self._prefix_id: Dict[Prefix, int] = {}
        # Materialized with the first accusation, so registry snapshots
        # show the counters in exactly the runs that accuse.
        self._m_accusations = None
        self._m_convictions = None
        self._excluded_at: Dict[Address, int] = {}
        self._crashed: Set[Address] = set()
        self._crashed_at: Dict[Address, int] = {}
        # Active-set scheduling: the addresses whose nodes buffer at
        # least one event.  Walked in wiring order (the _nodes insertion
        # order a full scan would use) so the shared gossip RNG is
        # consumed exactly as a scan over every node would consume it.
        self._active: Set[Address] = set()
        self._node_seq: Dict[Address, int] = {}
        self._wire_seq = 0
        # Derived-state caches.  _membership_changed() drops the live
        # member snapshot (_live) and the changed leaf subgroup's
        # live-neighbor lists; the per-member far-peer pools are
        # validated against the replica's addresses_token tuple on every
        # lookup (anti-entropy changes the known peer set mid-run) and
        # dropped by _drop_far_pools() only where a liveness change can
        # show.
        self._live_cache: Optional[
            Tuple[List[Address], np.ndarray, np.ndarray]
        ] = None
        self._neighbors_cache: Dict[Address, List[Address]] = {}
        self._far_cache: Dict[
            Address, Tuple[Tuple[int, ...], List[Address]]
        ] = {}
        # The shallowest depth at which a shared table ever listed an
        # address as a delegate (absent: only its own leaf-table row,
        # depth d).  Monotone — replicas may still hold a row the
        # shared table has since replaced.  Scopes _drop_far_pools().
        self._listed_depth: Dict[Address, int] = {}
        # Addresses whose replica was torn down by leave() and never
        # re-wired.  Every address a table can mention was wired once
        # (tables only describe members), so "peer has a live replica"
        # is exactly "peer not in _unwired" — and while this set is
        # empty (no leaves in flight) the far-peer pool filter is the
        # identity and the peers() list is shared outright.
        self._unwired: Set[Address] = set()
        self._obs = observer if observer is not None else NULL_OBSERVER
        self._reg = self._obs.registry
        self._m_rounds = self._reg.counter("runtime", "rounds")
        self._m_sent = self._reg.counter("runtime", "envelopes_sent")
        self._m_lost = self._reg.counter("runtime", "envelopes_lost")
        self._m_receptions = self._reg.counter("runtime", "receptions")
        self._m_deliveries = self._reg.counter("runtime", "deliveries")
        self._m_publishes = self._reg.counter("runtime", "publishes")
        self._m_joins = self._reg.counter("membership", "joins")
        self._m_leaves = self._reg.counter("membership", "leaves")
        self._m_crashes = self._reg.counter("membership", "crashes")
        self._m_exclusions = self._reg.counter("membership", "exclusions")
        self._m_pulls = self._reg.counter("membership", "pulls")
        self._m_interest_updates = self._reg.counter(
            "membership", "interest_updates"
        )
        self._m_refreshes = self._reg.counter("views", "path_refreshes")
        self._m_tables = self._reg.counter("views", "tables_refreshed")
        self._h_exclusion = self._reg.histogram(
            "detector", "exclusion_latency_rounds"
        )
        # Per-round membership-plane cost visibility: how often the
        # far-peer pools are reused vs rebuilt.  These never enter
        # benchmark digests (they are new observability, not protocol
        # behavior).
        self._m_far_hits = self._reg.counter("membership", "far_cache_hits")
        self._m_far_misses = self._reg.counter(
            "membership", "far_cache_misses"
        )
        # The membership round performs two exchanges per live member
        # per round; prefetch the gossip_pull counters once instead of
        # paying a registry lookup per exchange (same counters, same
        # counting semantics).
        self._x_counters = (
            self._reg.counter("gossip_pull", "exchanges"),
            self._reg.counter("gossip_pull", "synced_exchanges"),
            self._reg.counter("gossip_pull", "lines_updated"),
        )
        self._reg.register_collector(
            "runtime",
            lambda: {
                "active_count": len(self._active),
                "round": self._round,
                "size": self._tree.size,
            },
        )
        self._ctx = GossipContext(
            derive_rng(self._sim_config.seed, "runtime-gossip"),
            threshold_h=self._config.threshold_h,
            registry=self._reg,
        )
        # The one thing between two processes' event gossip: the ε
        # network, wrapped below by the fault plan when there is one.
        self._link = LossyNetwork(
            self._sim_config.loss_probability,
            derive_rng(self._sim_config.seed, "runtime-network"),
        )
        self._membership_rng = derive_rng(
            self._sim_config.seed, "runtime-membership"
        )
        if fault_plan is not None:
            self._link = FaultInjector(
                fault_plan,
                self._tree,
                derive_rng(self._sim_config.seed, "runtime-faults"),
                self._link,
                self._obs.emit if self._obs.tracing else None,
            )
            self._reg.register_collector("faults", self._link.stats)
        self._m_suspicion_reports = self._reg.counter(
            "detector", "suspicion_reports"
        )
        for address in self._tree.members():
            self._wire(address)
        self._watch_neighbors(list(self._tree.members()))

    # -- inspection -------------------------------------------------------

    @property
    def round(self) -> int:
        """Rounds executed so far."""
        return self._round

    @property
    def size(self) -> int:
        """Live membership size (excluded processes removed)."""
        return self._tree.size

    @property
    def tree(self) -> MembershipTree:
        """The current membership ground truth."""
        return self._tree

    @property
    def active_count(self) -> int:
        """How many processes currently buffer an event (are *infected*).

        This is the per-round event-gossip cost: only these processes
        are visited by a round's fan-out.
        """
        return len(self._active)

    @property
    def observer(self) -> Observer:
        """The attached observer (the shared null observer by default)."""
        return self._obs

    @property
    def fault_stats(self) -> Optional[Dict[str, int]]:
        """Injection counters when a fault plan is attached, else None."""
        return self._link.trace_meta().get("fault_stats")

    def node(self, address: Address) -> PmcastNode:
        """The protocol node of a (possibly crashed) process."""
        try:
            return self._nodes[address]
        except KeyError:
            raise MembershipError(f"{address} has no node") from None

    def exclusion_round(self, address: Address) -> Optional[int]:
        """The round a crashed process was excluded, or None."""
        return self._excluded_at.get(address)

    def delivered_to(self, event: Event) -> List[Address]:
        """Which processes have delivered ``event``."""
        return sorted(
            address
            for address, node in self._nodes.items()
            if node.has_delivered(event)
        )

    # -- mutation -----------------------------------------------------------

    def publish(self, publisher: Address, event: Event) -> None:
        """PMCAST ``event``; it disseminates over subsequent rounds."""
        if publisher not in self._tree:
            raise SimulationError(f"{publisher} is not a member")
        node = self._nodes[publisher]
        if not node.alive:
            raise SimulationError(f"{publisher} has crashed")
        node.pmcast(event, self._ctx)
        if not node.is_idle:
            self._active.add(publisher)
        self._m_publishes.inc()
        if self._obs.tracing:
            self._obs.emit(
                self._round, "publish", publisher, event_id=event.event_id
            )
            if node.has_delivered(event):
                self._obs.emit(
                    self._round, "deliver", publisher,
                    event_id=event.event_id,
                )

    def crash(self, address: Address) -> None:
        """Silently crash a process (it stays in views until excluded).

        A liveness *transition*: crashing an already-crashed process is
        a no-op, so the crash round feeding
        ``detector.exclusion_latency_rounds``, the ``crashes`` counter
        and the trace all describe the first crash only.
        """
        node = self.node(address)
        if address in self._crashed:
            return
        node.alive = False
        self._crashed.add(address)
        self._crashed_at[address] = self._round
        self._active.discard(address)
        self._membership_changed(address)
        self._drop_far_pools(address)
        self._m_crashes.inc()
        self._obs.emit(self._round, "crash", address)

    def join(self, address: Address, interest: Interest) -> None:
        """Add a process to the running group (§2.3 join, converged).

        The tree gains the member, the tables on its prefix path are
        refreshed in place at a fresh timestamp (what the contact-chain
        protocol of :func:`repro.membership.lifecycle.join` converges
        to), the newcomer is wired onto the shared tables, and it and
        its immediate neighbors start watching each other.  No other
        member is touched: they hold the very table objects that were
        just refreshed.
        """
        if address in self._tree:
            raise SimulationError(f"{address} is already a member")
        self._tree.add(address, interest)
        self._m_joins.inc()
        self._obs.emit(self._round, "join", address)
        self._refresh_path(address, cause="join")
        self._wire(address)
        self._watch_neighbors([address])
        slot_of = self._contacts.slot_of
        live = [slot_of[neighbor] for neighbor in self._live_neighbors(address)]
        self._contacts.watch(
            live, [slot_of[address]] * len(live), now=self._round
        )

    def leave(self, address: Address) -> None:
        """Gracefully remove a process from the running group."""
        if address not in self._tree:
            raise SimulationError(f"{address} is not a member")
        self._tree.remove(address)
        self._m_leaves.inc()
        self._obs.emit(self._round, "leave", address)
        self._crashed.discard(address)
        self._crashed_at.pop(address, None)
        self._nodes.pop(address, None)
        slot = self._contacts.slot_of[address]
        if self._replicas.pop(address, None) is not None:
            self._replica_at[slot] = None
            self._unwired.add(address)
        self._contacts.forget(slot)
        self._active.discard(address)
        self._node_seq.pop(address, None)
        self._drop_far_pools(address)
        self._refresh_path(address, cause="leave")
        self._contacts.unwatch(slot)

    def update_interest(self, address: Address, interest: Interest) -> None:
        """Re-subscribe a live member (§2.3 "subscriptions and
        unsubscriptions are updates of the membership information").

        The tree records the new interest, the member's node matches
        future events against it, and the tables along its prefix path
        are refreshed in place — the regrouped subtree interests near
        the root absorb the change, exactly as a converged
        re-subscription would.  Mirrors :meth:`join`/:meth:`leave`:
        no other member is touched.
        """
        if address not in self._tree:
            raise SimulationError(f"{address} is not a member")
        node = self._nodes[address]
        if not node.alive:
            raise SimulationError(f"{address} has crashed")
        self._tree.update_interest(address, interest)
        node.update_interest(interest)
        self._m_interest_updates.inc()
        self._refresh_path(address, cause="interest-update")

    # -- the round loop -------------------------------------------------------

    def step(self) -> None:
        """Execute one round: event gossip, membership gossip, detection.

        The round structure mirrors the dissemination driver's
        (:func:`repro.variants.base.run_variant`): crash step, fan-out,
        exchange — each stage is its own method so the runtime's round
        anatomy lines up with the strategy seam, plus the membership
        stage the single-event engine does not have.
        """
        self._round += 1
        self._m_rounds.inc()
        # The link's rounds are 0-based like the engine's: a fault
        # plan's clause round r acts in the (r+1)-th step.
        for victim in self._link.begin_round(self._round - 1):
            self.crash(victim)
        timeline = self._obs.timeline
        with timeline.span("fan_out", "runtime", self._round):
            envelopes = self._fan_out_round()
        with timeline.span("exchange", "runtime", self._round):
            heard = self._exchange_round(envelopes)
        with timeline.span("membership", "runtime", self._round):
            self._membership_round(heard)
            self._detection_round()

    def _fires_for(self, address: Address) -> int:
        """How many gossip steps ``address`` takes this round.

        The scheduler seam: without a schedule every process fires
        exactly once per round (the hard-wired engine cadence); with
        one, :meth:`~repro.net.scheduler.Schedule.fires_in_round`
        decides — 0 models a straggler sitting the round out, 2 a
        jittered timer drifting across the boundary.
        """
        if self._schedule is None:
            return 1
        key = self._schedule_keys.get(address)
        if key is None:
            key = self._schedule_keys[address] = str(address)
        return self._schedule.fires_in_round(key, self._round)

    def _fan_out_round(self) -> List[Envelope]:
        """Collect this round's gossip envelopes from every live node.

        Only buffered nodes are visited (in their stable join order,
        the sender sequence a scan over every node would give the
        shared gossip RNG); idle nodes drop off the set.
        """
        envelopes: List[Envelope] = []
        for address in sorted(self._active, key=self._node_seq.__getitem__):
            node = self._nodes[address]
            if not node.alive or address not in self._tree:
                continue
            for __ in range(self._fires_for(address)):
                envelopes.extend(node.gossip_step(self._ctx))
                if node.is_idle:
                    break
            if node.is_idle:
                self._active.discard(address)
        return envelopes

    def _exchange_round(
        self, envelopes: List[Envelope]
    ) -> Tuple[List[Address], List[Address]]:
        """Transmit the round's envelopes and apply every arrival.

        Returns who heard from whom — (receivers, senders), one pair per
        applied arrival — for the round's contact table update.
        """
        receivers: List[Address] = []
        senders: List[Address] = []
        survivors = self._link.transmit(envelopes)
        self._m_sent.inc(len(envelopes))
        # Released (delayed) envelopes can make survivors exceed this
        # round's sends; injected losses are in the "faults" collector.
        self._m_lost.inc(max(len(envelopes) - len(survivors), 0))
        if self._obs.tracing and envelopes:
            emit_dispositions(
                envelopes,
                {id(envelope) for envelope in survivors},
                self._link.last_diverted,
                self._obs.emit,
                self._round,
            )
        for envelope in survivors:
            receiver = self._nodes.get(envelope.destination)
            if receiver is None or not receiver.alive:
                continue
            freshly_delivered = (
                self._obs.enabled
                and not receiver.has_delivered(envelope.message.event)
            )
            receiver.receive(envelope.message, self._ctx)
            self._m_receptions.inc()
            if self._obs.tracing:
                self._obs.emit(
                    self._round,
                    "receive",
                    envelope.destination,
                    peer=envelope.message.sender,
                    event_id=envelope.message.event.event_id,
                    depth=envelope.message.depth,
                )
            if freshly_delivered and receiver.has_delivered(
                envelope.message.event
            ):
                self._m_deliveries.inc()
                self._obs.emit(
                    self._round,
                    "deliver",
                    envelope.destination,
                    event_id=envelope.message.event.event_id,
                )
            if not receiver.is_idle:
                self._active.add(envelope.destination)
            receivers.append(envelope.destination)
            senders.append(envelope.message.sender)
            if self._piggyback_membership:
                sender_replica = self._replicas.get(envelope.message.sender)
                receiver_replica = self._replicas.get(envelope.destination)
                if sender_replica is not None and receiver_replica is not None:
                    exchange(receiver_replica, sender_replica, self._reg)
        return receivers, senders

    def run(self, rounds: int) -> None:
        """Execute several rounds."""
        for __ in range(rounds):
            self.step()

    def run_until_idle(self, max_rounds: int = 256) -> int:
        """Step until no event is buffered anywhere; returns rounds run.

        A fault plan holding delayed envelopes keeps the run alive:
        the group is not idle while a release is still due.
        """
        for executed in range(max_rounds):
            if not self._link.has_pending and not self._active:
                return executed
            self.step()
        return max_rounds

    # -- internals ---------------------------------------------------------

    def _wire(self, address: Address) -> None:
        """(Re)build node, replica and detector state for a member."""
        views = {}
        for prefix in address.prefixes():
            table = self._tables.get(prefix)
            if table is None:
                table = build_view(self._tree, prefix, self._clock)
                self._tables[prefix] = table
                self._note_delegates(table)
            views[prefix.depth] = table
        existing = self._nodes.get(address)
        if existing is None:
            self._node_seq[address] = self._wire_seq
            self._wire_seq += 1
            self._nodes[address] = PmcastNode(
                address,
                self._tree.interest_of(address),
                views,
                self._config,
            )
        else:
            for depth, table in views.items():
                existing.replace_view(depth, table)
        if address not in self._replicas:
            # Staleness is per-process, yet the replica shares its
            # tables: it holds the frozen snapshot of each shared path
            # table's current state (one per state, whoever asks), and a
            # pull moves it to another version without writing any.
            # The shared tables carry exactly the rows a fresh
            # per-process build would produce (built or refreshed at
            # the current clock).
            replica = self._replicas[address] = MembershipState(
                address,
                {depth: table.snapshot() for depth, table in views.items()},
            )
            slot = self._contacts.slot(address)
            if slot == len(self._replica_at):  # a first-time member
                self._replica_at.append(None)
                self._tokens_of.append(None)
                if slot == len(self._tokens):
                    spare = np.zeros((max(slot, 64), self._tree.depth), np.int64)
                    self._tokens = np.concatenate((self._tokens, spare))
                    self._prefix_ids = np.concatenate((self._prefix_ids, spare))
                self._prefix_ids[slot] = [
                    self._prefix_id.setdefault(prefix, len(self._prefix_id))
                    for prefix in address.prefixes()
                ]
            self._replica_at[slot] = replica
            if address in self._unwired:
                # A departed member is back: it re-enters the pools of
                # whoever still lists it.
                self._unwired.remove(address)
                self._drop_far_pools(address)

    def _versions(self) -> np.ndarray:
        """``_tokens``, first brought up to date for every replica whose
        ``_seq`` is not the tuple they were read from."""
        seqs = list(map(getattr, self._replica_at, repeat("_seq"), repeat(None)))
        for slot in compress(count(), map(is_not, seqs, self._tokens_of)):
            if seqs[slot] is not None:
                self._tokens[slot] = tuple(map(_CACHE_TOKENS, seqs[slot]))
        self._tokens_of = seqs
        return self._tokens

    def _watch_neighbors(self, addresses: List[Address]) -> None:
        """Each of ``addresses`` starts watching its leaf subgroup."""
        slot_of = self._contacts.slot_of.__getitem__
        watching: Dict[Prefix, List[int]] = {}
        for address in addresses:
            leaf = address.prefix(self._tree.depth)
            watching.setdefault(leaf, []).append(slot_of(address))
        monitors, neighbors = [], []
        for leaf, slots in watching.items():
            mates = np.fromiter(
                map(slot_of, self._tree.subtree_members(leaf)), np.int64
            )
            pairs = np.repeat(slots, len(mates)), np.tile(mates, len(slots))
            others = pairs[0] != pairs[1]
            monitors.append(pairs[0][others])
            neighbors.append(pairs[1][others])
        self._contacts.watch(
            np.concatenate(monitors), np.concatenate(neighbors), now=self._round
        )

    def _membership_changed(self, address: Address) -> None:
        """Drop the caches derived from the tree or from crash state.

        ``address`` is the member whose join, leave, crash or exclusion
        caused the change.  The live-member snapshot goes; a
        live-neighbor list only depends on its leaf subgroup, so only
        the changed member's subgroup entries are invalidated —
        rebuilding all n lists after every crash used to be a visible
        slice of paper-scale runs.  The far-peer pools are *not*
        touched here: they filter on liveness, not on tree membership,
        and have their own scoped rule (:meth:`_drop_far_pools`).
        """
        self._live_cache = None
        neighbors_cache = self._neighbors_cache
        if neighbors_cache:
            neighbors_cache.pop(address, None)
            for member in self._tree.subtree_members(
                address.prefix(self._tree.depth)
            ):
                neighbors_cache.pop(member, None)

    def _note_delegates(self, table: ViewTable) -> None:
        """Record who a freshly written shared table lists as delegates.

        Called at every shared-table write (``build_view``,
        ``replace_rows``); keeps ``_listed_depth`` at the shallowest
        depth seen per address.  Leaf tables are skipped: their rows
        are the members themselves, the default scope.
        """
        depth = table.depth
        if depth == self._tree.depth:
            return
        listed = self._listed_depth
        for row in table.rows():
            for delegate in row.delegates:
                if listed.get(delegate, self._tree.depth) > depth:
                    listed[delegate] = depth

    def _drop_far_pools(self, address: Address) -> None:
        """Invalidate the far-peer pools ``address``'s liveness can show in.

        A member's pool is its ``replica.peers()`` minus ``_crashed``
        and ``_unwired``.  It changes only when one of the replica's
        tables changes structure (checked on every lookup) or when an
        address it lists enters or leaves ``_crashed | _unwired`` — a
        crash, a leave, or the re-wiring of a departed member.  A first-time
        joiner and an exclusion (the victim stays crashed) move neither
        set and so invalidate nothing.

        Who can list ``address``?  Replicas only ever hold rows taken
        from the shared tables or pulled from another replica's table
        of the same prefix, so every row anywhere was once written into
        a shared table; a depth-i table names only processes under its
        prefix and is held only by the members under that prefix.  With
        k the shallowest depth a shared table ever listed ``address``
        at (``_listed_depth``; its own leaf row makes k <= d), every
        holder sits in the subtree of ``address.prefix(k)`` — dropping
        that subtree's pools is exact, one leaf subgroup for an
        ordinary process.  A root-level delegate (k = 1) is known
        group-wide: the whole cache goes.
        """
        far_cache = self._far_cache
        k = self._listed_depth.get(address, self._tree.depth)
        if k == 1:
            far_cache.clear()
            return
        # The process itself is out of the subtree once it has left.
        far_cache.pop(address, None)
        for member in self._tree.subtree_members(address.prefix(k)):
            far_cache.pop(member, None)

    def _live(self) -> Tuple[List[Address], np.ndarray, np.ndarray]:
        """(live members in member order, their slots, a per-slot
        "is a member" flag): a round's pullers, its monitors, and who
        may be accused.  Cached between membership changes; the cache
        slot is *replaced*, never mutated, so a detection round that
        excludes members keeps walking its round-start snapshot."""
        if self._live_cache is None:
            crashed = self._crashed
            live = [a for a in self._tree.members() if a not in crashed]
            slot_of = self._contacts.slot_of.__getitem__
            slots = np.fromiter(map(slot_of, live), np.int64, len(live))
            flags = np.zeros(len(self._contacts.addresses), bool)
            flags[slots] = True
            flags[[slot_of(a) for a in crashed if a in self._tree]] = True
            self._live_cache = (live, slots, flags)
        return self._live_cache

    def _live_neighbors(self, address: Address) -> List[Address]:
        cached = self._neighbors_cache.get(address)
        if cached is None:
            prefix = address.prefix(self._tree.depth)
            cached = [
                neighbor
                for neighbor in self._tree.subtree_members(prefix)
                if neighbor != address and neighbor not in self._crashed
            ]
            self._neighbors_cache[address] = cached
        return cached

    def _membership_round(
        self, heard: Tuple[List[Address], List[Address]]
    ) -> None:
        """Dedicated membership gossips — one near pull, one far pull
        per live member — then every contact of the round.

        One walk over the live members draws every peer, near then far:

        * rng.choice(seq) is exactly ``seq[rng._randbelow(len(seq))]``
          (CPython's implementation); drawing through ``_randbelow``
          keeps the RNG stream bit-identical while skipping a Python
          frame per draw.  A pull draws nothing, so drawing every peer
          first consumes the stream exactly as interleaving would.
        * The far-peer pool lookup is inlined and validated against the
          replica's ``addresses_token`` tuple (timestamp churn never
          rebuilds it); a crash, a leave or a returning member drops
          only the pools that can list it (``_drop_far_pools``), so
          steady churn costs its subtree, not n rebuilds per round.

        The pulls then run in draw order (:meth:`_pull_round`).  Each
        pull is a contact both ways (the peer answered) and each event
        arrival (``heard``) one way; the round's contacts reach the
        contact table in one batch, before detection reads it.
        """
        randbelow = self._membership_rng._randbelow
        replica_at = self._replica_at
        crashed = self._crashed
        unwired = self._unwired
        far_cache = self._far_cache
        far_cache_get = far_cache.get
        neighbors_get = self._neighbors_cache.get
        live, live_slots, __ = self._live()
        gossipers: List[int] = []  # slots
        peers: List[Address] = []
        n_far_hits = n_far_misses = 0
        for address, slot in zip(live, live_slots.tolist()):
            replica = replica_at[slot]
            near = neighbors_get(address)
            if near is None:
                near = self._live_neighbors(address)
            if near:
                gossipers.append(slot)
                peers.append(near[randbelow(len(near))])
            # Far-peer pool: live peers from the replica's own tables.
            structure = tuple(map(_ADDR_TOKENS, replica._seq))
            entry = far_cache_get(address)
            if entry is not None and entry[0] == structure:
                far = entry[1]
                n_far_hits += 1
            else:
                # "peer has a replica" == "peer not in _unwired" (see
                # __init__); with no leave in flight and nobody crashed
                # the filter is the identity and the peers() list is
                # shared outright — it is replaced, never mutated, on
                # change, and this entry is dropped with it.
                pool = replica.peers()
                if crashed:
                    if unwired:
                        far = [
                            peer
                            for peer in pool
                            if peer not in unwired and peer not in crashed
                        ]
                    else:
                        far = [peer for peer in pool if peer not in crashed]
                elif unwired:
                    far = [peer for peer in pool if peer not in unwired]
                else:
                    far = pool
                far_cache[address] = (structure, far)
                n_far_misses += 1
            if far:
                gossipers.append(slot)
                peers.append(far[randbelow(len(far))])
        if n_far_hits:
            self._m_far_hits.inc(n_far_hits)
        if n_far_misses:
            self._m_far_misses.inc(n_far_misses)
        slot_of = self._contacts.slot_of.__getitem__
        g = np.array(gossipers, np.int64)
        p = np.fromiter(map(slot_of, peers), np.int64, len(peers))
        if len(g):
            self._pull_round(g, p)
        receivers, senders = heard
        r = np.fromiter(map(slot_of, receivers), np.int64, len(receivers))
        s = np.fromiter(map(slot_of, senders), np.int64, len(senders))
        self._contacts.contact(
            np.concatenate((g, p, r)), np.concatenate((p, g, s)), now=self._round
        )

    def _pull_round(self, g: np.ndarray, p: np.ndarray) -> None:
        """Slot ``g[j]`` pulls from slot ``p[j]``, in ``j`` order.

        Replicas share frozen table versions, so a pair is in sync when
        it holds the same version of every table it shares (same
        prefix).  One compare over the round-start versions
        (``_tokens``, ``_prefix_ids``) finds the pairs that are not; only
        those pay a :func:`~repro.membership.gossip_pull._pull`, plus
        any pair one of whose replicas an earlier pull this round
        changed.  Every other pull is synced, exactly as a pull-by-pull
        walk would find it.
        """
        tokens, prefix_ids = self._versions(), self._prefix_ids
        unsynced = (
            (tokens[g] != tokens[p]) & (prefix_ids[g] == prefix_ids[p])
        ).any(axis=1)
        replica_at = self._replica_at
        outcomes: Dict[int, int] = {}  # pull index -> _pull's answer
        changed = bytearray(len(tokens))  # per slot: took lines this round
        for j, (needed, gossiper, peer) in enumerate(
            zip(unsynced.tolist(), g.tolist(), p.tolist())
        ):
            if needed or changed[gossiper] or changed[peer]:
                outcome = outcomes[j] = _pull(
                    replica_at[gossiper], replica_at[peer]
                )
                if outcome > 0:
                    changed[gossiper] = 1
        pulls, answered = len(g), list(outcomes.values())
        self._m_pulls.inc(pulls)
        exchanges, synced, lines = self._x_counters
        exchanges.inc(pulls)
        n_synced = pulls - sum(outcome >= 0 for outcome in answered)
        if n_synced:
            synced.inc(n_synced)
        n_lines = sum(outcome for outcome in answered if outcome > 0)
        if n_lines:
            lines.inc(n_lines)
        if self._obs.tracing:
            emit = self._obs.emit
            addresses = self._contacts.addresses
            for j, (gossiper, peer) in enumerate(zip(g.tolist(), p.tolist())):
                emit(
                    self._round, "pull", addresses[gossiper],
                    peer=addresses[peer], value=max(outcomes.get(j, -1), 0),
                )

    def _detection_round(self) -> None:
        """Collect suspicions; exclude once the quorum concurs.

        Only *immediate neighbors* accuse (§2.3 monitors "its most
        immediate neighbor processes"): a detector also holds stale
        last-contact entries for distant peers it merely gossiped with
        once; those count as suspicion reports but never feed
        exclusions.  A round that convicts nobody and is not traced is
        settled in arrays (:meth:`~repro.membership.failure_detector.
        ContactTable.accuse_all`); any other is played accusation by
        accusation (:meth:`_play_detection`).
        """
        live, slots, members = self._live()
        counts = self._contacts.suspect_counts(slots, self._round)
        if not self._obs.tracing:
            accused = self._contacts.accuse_all(slots, self._round, members)
            if accused is not None:
                self._count_detection(int(counts.sum()), accused, 0)
                return
        self._play_detection(live, slots, counts)

    def _play_detection(
        self, live: List[Address], slots: np.ndarray, counts: np.ndarray
    ) -> None:
        """The detection round, one accusation at a time.

        Monitors take turns in member order; each accuses its suspect
        leaf-mates in component order.  Three behaviours follow, and
        the array form of the round must agree with all of them:

        1. accusations made by monitors that since crashed or left stay
           counted until retracted (the accuser hears from the suspect);
        2. a conviction excludes the suspect at once and ends that
           monitor's turn; later monitors find it out of the tree (and
           no longer watch it, so it leaves their report counts too);
        3. suspects are accused in component order.
        """
        tracing = self._obs.tracing
        contacts = self._contacts
        addresses = contacts.addresses
        now = self._round
        # tree.__contains__ is a Python-level frame; the accusation
        # loop runs it for every (monitor, suspect) pair.
        in_tree = self._tree._interests.__contains__
        may_concur = np.zeros(len(addresses), bool)
        may_concur[slots] = True
        reports = dict(zip(slots.tolist(), counts.tolist()))
        suspect_lists = contacts.near_suspects(slots, now)
        # Accuser counts of everyone who may be accused, kept up to date
        # here as accusations land.
        touched = list(set().union(*suspect_lists))
        accusers = dict(
            zip(touched, contacts.accusers(np.array(touched, np.int64)).tolist())
        )
        n_reports = n_accusations = n_convictions = 0
        for address, slot, suspects in zip(live, slots.tolist(), suspect_lists):
            n_reports += reports[slot]
            for suspect_slot in suspects:
                suspect = addresses[suspect_slot]
                if not in_tree(suspect):
                    continue
                new, required = contacts.accuse(slot, suspect_slot, may_concur)
                if new:
                    n_accusations += 1
                    accusers[suspect_slot] += 1
                if tracing:
                    self._obs.emit(
                        self._round, "suspect", address, peer=suspect,
                        value=accusers[suspect_slot],
                    )
                if accusers[suspect_slot] >= required:
                    n_convictions += 1
                    may_concur[suspect_slot] = False
                    self._exclude(suspect)
                    # Nobody watches the excluded process any more: it
                    # leaves the later monitors' report counts.
                    counts = contacts.suspect_counts(slots, now)
                    reports = dict(zip(slots.tolist(), counts.tolist()))
                    break
        self._count_detection(n_reports, n_accusations, n_convictions)

    def _count_detection(
        self, reports: int, accusations: int, convictions: int
    ) -> None:
        if reports:
            self._m_suspicion_reports.inc(reports)
        if accusations:
            if self._m_accusations is None:
                self._m_accusations = self._reg.counter(
                    "detector", "accusations"
                )
                self._m_convictions = self._reg.counter(
                    "detector", "convictions"
                )
            self._m_accusations.inc(accusations)
        if convictions:
            self._m_convictions.inc(convictions)

    def _refresh_path(self, address: Address, cause: str) -> None:
        """Refresh the tables on a changed prefix path, in place.

        The table half is :func:`~repro.membership.knowledge.
        refresh_path`; around it the runtime keeps its own books: the
        delegates every written table lists, a fresh table wired into
        the (new) members of a prefix a join newly populated, and the
        match-cache entries of a table a removal emptied.

        ``cause`` ("join" / "leave" / "crash" / "interest-update") is
        recorded in the match cache's invalidation-cause breakdown so
        churn-driven hit-rate collapses are attributable.
        """
        self._ctx.note_invalidation(cause)
        self._clock += 1
        self._membership_changed(address)
        written, created, dropped = refresh_path(
            self._tree, self._tables, address, self._clock
        )
        for table in written:
            self._note_delegates(table)
        for fresh in created:
            for member in self._tree.subtree_members(fresh.prefix):
                node = self._nodes.get(member)
                if node is not None:
                    node.replace_view(fresh.depth, fresh)
        for table in dropped:
            self._ctx.invalidate_table(table)
        touched = self._tree.depth  # one path prefix per depth
        self._m_refreshes.inc()
        self._m_tables.inc(touched)
        if self._obs.tracing:
            self._obs.emit(
                self._round, "refresh", address, value=touched
            )

    def _exclude(self, address: Address) -> None:
        """Remove a convicted process; refresh its prefix path."""
        if address not in self._tree:
            return
        self._tree.remove(address)
        self._excluded_at[address] = self._round
        # Only tree members are in reach of _drop_far_pools: a wrongly
        # convicted live process may come back through join() with its
        # replica intact, and must then rebuild its pool.
        self._far_cache.pop(address, None)
        self._m_exclusions.inc()
        crashed_at = self._crashed_at.get(address)
        if crashed_at is not None:
            self._h_exclusion.observe(self._round - crashed_at)
        if self._obs.tracing:
            self._obs.emit(self._round, "exclude", address)
        self._refresh_path(address, cause="crash")
        self._contacts.unwatch(self._contacts.slot_of[address])
