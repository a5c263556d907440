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

The runtime keeps no node objects: its event state is one
:class:`~repro.sim.vector.RowTable` (a row per buffered (process, event),
per-process columns), which :meth:`GroupRuntime.node` reads a process off.

Scheduling is **active-set** based: an event round only visits the
processes that actually buffer an event (*infected* processes), so a
round costs O(infected), not O(n) — at paper scale almost every process
is idle almost always.  Skipping an idle process is free of side
effects: its GOSSIP task returns immediately without drawing
randomness, so the active-set walk consumes the shared RNG exactly like
the full scan, provided the visit *order* matches.  The runtime
therefore stamps each process with a wiring sequence number and walks
the active set in that order — the same order the full scan would use.
Every round's fan-out and exchange run on
:class:`~repro.sim.vector.LiveRound` as array passes over the rows of
the walked slots, draw for draw with one ``gossip_step`` per fire and
one ``receive`` per arrival.  A schedule's extra fires are extra passes
over a slot's rows; a fault plan's link sees the round's envelopes, and
its survivors are the arrivals.

The membership round draws each live member's near and far pull
partner the same way: a pool is a slice of the round's reachable view
less the member itself.  A near pool is the member's leaf in the live
snapshot; a far pool is its *listing* — every slot its replica's
tables name, memoised on their structure — less whoever cannot receive.
Liveness is one mask per round, so no crash, leave or re-join
invalidates anything.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.addressing import Address, Prefix
from repro.config import PmcastConfig, SimConfig
from repro.core.context import GossipContext
from repro.core.rate import sample_positions_each
from repro.errors import MembershipError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.membership.failure_detector import ContactTable, _fit
from repro.membership.gossip_pull import (
    _ADDR_TOKENS,
    _CACHE_TOKENS,
    MembershipState,
    pull_batch,
)
from repro.membership.lifecycle import GroupDirectory
from repro.membership.tree import MembershipTree
from repro.membership.views import ViewTable
from repro.net.scheduler import Schedule
from repro.obs.probes import NULL_OBSERVER, Observer
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_rng
from repro.sim.vector import Buffered, LiveEmission, LiveRound, RowTable

__all__ = ["GroupRuntime", "LiveNode"]

#: The runtime's arrays with one row per slot, grown together.
_PER_SLOT = (
    "_tokens", "_addr_tokens", "_prefix_ids", "_far_from", "_far_id", "_far_self",
    "_crashed_flag", "_receiving",
)


class LiveNode:
    """A process as :meth:`GroupRuntime.node` read it off the runtime's
    columns: what a :class:`~repro.core.node.PmcastNode`'s readers read
    (``_views``: the tables on its prefix path), each built when read."""

    def __init__(self, alive: bool, rows: RowTable, slot: int, address: Address, tables) -> None:
        self.alive, self._rows, self._slot = alive, rows, slot
        self.messages_sent, self.receptions = int(rows.sent[slot]), int(rows.receptions[slot])
        self._address, self._tables = address, tables

    @cached_property
    def buffers(self) -> Buffered:
        """The process's buffered events in bucket order (``holds``)."""
        return self._rows.buffered(self._slot)

    @property
    def is_idle(self) -> bool:
        """True if the process buffers nothing."""
        return not self.buffers

    @property
    def _views(self) -> Dict[int, ViewTable]:
        tables = self._tables
        return {p.depth: tables[p] for p in self._address.prefixes() if p in tables}

    def has_received(self, event: Event) -> bool:
        """True if the process ever received (or published) ``event``."""
        col = self._rows.event_col.get(event.event_id)
        return col is not None and bool(self._rows.received[self._slot, col])

    def has_delivered(self, event: Event) -> bool:
        """True if ``event`` was HPDELIVERed at the process."""
        col = self._rows.event_col.get(event.event_id)
        return col is not None and bool(self._rows.delivered[self._slot, col])


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
            The round's envelopes cross it as objects, and what it
            returns (survivors, then releases) is applied as the
            round's arrivals.  Targeted/delegate/depth crash clauses go
            through :meth:`crash`, so detection and exclusion react
            exactly as they would to any other silent crash.  A run
            with an empty plan is bit-identical to a run with none.
        schedule: an optional :class:`~repro.net.scheduler.Schedule`
            governing *how many* gossip steps each process takes per
            round (:meth:`Schedule.fires_in_round` keyed by the dotted
            address, 1-based rounds).  ``None`` — and any
            round-synchronous schedule, e.g. the zero-jitter
            :class:`~repro.net.scheduler.RoundSchedule` — reproduces
            the engine's one-fire-per-round cadence bit for bit.
            Jittered and straggler schedules model timers drifting
            across round boundaries or running at a slower cadence;
            a process firing zero times simply keeps buffering, and
            one firing twice takes two gossip steps in a row.
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
        self._directory = GroupDirectory(self._tree)
        self._round = 0
        # Every process's buffers, seen-sets and counters (§3, Figure 3).
        self._rows = RowTable()
        # Every process's failure detector and the §6 accusations, one
        # slot per address ever wired (kept across leave and re-join).
        self._contacts = ContactTable(
            detector_timeout, self._tree.depth, exclusion_quorum
        )
        # The replicas: per slot and depth, the cache token of the
        # frozen table the replica holds (a row of zeros once its owner
        # left), that table's addresses_token (the far-peer listings key
        # on it) and an id of its prefix.  ``_tables`` maps each token to
        # its table, pruned to the tokens some row holds (:meth:`_prune`).
        depth = self._tree.depth
        self._tokens = np.zeros((0, depth), np.int64)
        self._addr_tokens = np.zeros((0, depth), np.int64)
        self._tables: Dict[int, ViewTable] = {}
        self._held = 0  # len(_tables) as last pruned
        self._prefix_ids = np.zeros((0, depth), np.int64)
        self._prefix_id: Dict[Prefix, int] = {}
        # Materialized with the first accusation, so registry snapshots
        # show the counters in exactly the runs that accuse.
        self._m_accusations = None
        self._m_convictions = None
        self._excluded_at: Dict[Address, int] = {}
        self._crashed: Set[Address] = set()
        self._crashed_at: Dict[Address, int] = {}
        # Active-set scheduling: the slots that buffer at least one
        # event.  Walked in wiring order (_seq_at: the order a full scan
        # would use) so the shared gossip RNG is consumed exactly as a
        # scan over every process would consume it.
        self._active: Set[int] = set()
        self._seq_at: List[int] = []
        self._wire_seq = 0
        # The live snapshot (_live), dropped at every membership change,
        # is read off two arrays kept up to date here: the tree members'
        # slots in member order (a dict used as an ordered set) and a
        # per-slot crashed flag (_crashed by slot).
        self._live_cache: Optional[Tuple[np.ndarray, ...]] = None
        self._member_slots: Dict[int, None] = {}
        self._crashed_flag = np.zeros(0, bool)
        # Who an event gossip can reach, by slot: there and alive.
        self._receiving = np.zeros(0, bool)
        # Far-peer listings (:meth:`_point_listings`), a function of an
        # _addr_tokens row alone: by id, the listing and its row, and
        # how many slots point at it (_listing_refs; the listing is
        # dropped with the last one and its id reused); by row, the id.
        # Per slot, the listing it draws from (_far_id), the row that
        # listing was read for (_far_from; the listing is current iff
        # that row is the replica's row now) and the member's own place
        # in it (_far_self, -1 if not listed).
        self._listings: Dict[int, Tuple[np.ndarray, tuple]] = {}
        self._listing_of: Dict[tuple, int] = {}
        self._listing_refs = np.zeros(0, np.int64)
        self._free_ids: List[int] = []
        self._far_from = np.full((0, depth), -1, np.int64)
        self._far_id = np.full(0, -1, np.int64)
        self._far_self = np.full(0, -1, np.int64)
        self._obs = observer if observer is not None else NULL_OBSERVER
        self._reg = self._obs.registry
        self._m_rounds = self._reg.counter("runtime", "rounds")
        self._m_sent = self._reg.counter("runtime", "envelopes_sent")
        self._m_lost = self._reg.counter("runtime", "envelopes_lost")
        self._m_undeliverable = self._reg.counter("runtime", "envelopes_undeliverable")
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
        # Per live member per round: whether its far-peer listing was
        # reused or read again.  Not protocol behaviour (no draw reads
        # them), yet pinned round by round with the rest of the plane
        # (tests/sim/data/membership_rounds.json); the ledger reads
        # their ratio.
        self._m_far_hits = self._reg.counter("membership", "far_cache_hits")
        self._m_far_misses = self._reg.counter(
            "membership", "far_cache_misses"
        )
        # What every pull batch counts (:meth:`_pull_batch`).
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
        self._faults: Optional[FaultInjector] = None
        if fault_plan is not None:
            self._faults = FaultInjector(
                fault_plan,
                self._tree,
                derive_rng(self._sim_config.seed, "runtime-faults"),
                self._link,
                self._obs.emit if self._obs.tracing else None,
            )
            self._reg.register_collector("faults", self._faults.stats)
            if fault_plan.clauses:
                # An empty plan injects nothing and draws nothing: its
                # rounds keep the bare network, and so the kernel.
                self._link = self._faults
        # The event round on arrays: fan-out and exchange.
        self._kernel = LiveRound(
            self._ctx, self._config, self._contacts.slot_of, self._contacts.addresses,
            self._tree.depth, self._rows,
        )
        self._m_suspicion_reports = self._reg.counter(
            "detector", "suspicion_reports"
        )
        for address in self._tree.members():
            self._wire(address)
        self._member_slots = dict.fromkeys(
            map(self._contacts.slot_of.__getitem__, self._tree.members())
        )
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

    def node(self, address: Address) -> LiveNode:
        """A (possibly crashed) process as it stands now: one wired and
        not left since, as long as it holds a replica."""
        slot = self._contacts.slot_of.get(address)
        if slot is None or not self._tokens[slot, 0]:
            raise MembershipError(f"{address} has no node")
        return LiveNode(not self._crashed_flag[slot], self._rows, slot, address, self._directory.tables)

    def stale_replicas(self) -> int:
        """How many (live member, depth) replica tables differ from the
        directory's table on the member's path — 0 once gossip pull has
        carried every refreshed line to every live replica."""
        slots = self._live()[0]
        cells = np.stack((self._tokens[slots].ravel(), self._prefix_ids[slots].ravel()))
        pairs, counts = np.unique(cells, axis=1, return_counts=True)
        prefix_of = dict(zip(self._prefix_id.values(), self._prefix_id))
        truth = self._directory.tables
        return sum(
            count
            for (token, prefix), count in zip(pairs.T.tolist(), counts.tolist())
            if self._tables[token].rows() != truth[prefix_of[prefix]].rows()
        )

    def exclusion_round(self, address: Address) -> Optional[int]:
        """The round a crashed process was excluded, or None."""
        return self._excluded_at.get(address)

    def delivered_to(self, event: Event) -> List[Address]:
        """Which processes have delivered ``event``."""
        col = self._rows.event_col.get(event.event_id)
        if col is None:
            return []
        slots = np.flatnonzero(self._rows.delivered[:, col]).tolist()
        return sorted(map(self._contacts.addresses.__getitem__, slots))

    # -- mutation -----------------------------------------------------------

    def publish(self, publisher: Address, event: Event) -> None:
        """PMCAST ``event``; it disseminates over subsequent rounds."""
        if publisher not in self._tree:
            raise SimulationError(f"{publisher} is not a member")
        slot = self._contacts.slot_of[publisher]
        if self._crashed_flag[slot]:
            raise SimulationError(f"{publisher} has crashed")
        delivers = self._pmcast(slot, publisher, event)
        self._active.add(slot)
        self._m_publishes.inc()
        if self._obs.enabled and delivers:
            self._m_deliveries.inc()
        if self._obs.tracing:
            self._obs.emit(
                self._round, "publish", publisher, event_id=event.event_id
            )
            if delivers:
                self._obs.emit(
                    self._round, "deliver", publisher,
                    event_id=event.event_id,
                )

    def _pmcast(self, slot: int, publisher: Address, event: Event) -> bool:
        """PMCAST at a live member, over its directory path
        (:meth:`LiveRound.publish <repro.sim.vector.LiveRound.publish>`).
        Returns whether it delivered."""
        return self._kernel.publish(slot, publisher, self._directory.path(publisher), event)

    def crash(self, address: Address) -> None:
        """Silently crash a process (it stays in views until excluded).

        A liveness *transition*: crashing an already-crashed process is
        a no-op, so the crash round feeding
        ``detector.exclusion_latency_rounds``, the ``crashes`` counter
        and the trace all describe the first crash only.
        """
        slot = self._contacts.slot_of.get(address)
        if slot is None or not self._tokens[slot, 0]:
            raise MembershipError(f"{address} has no node")
        if address in self._crashed:
            return
        self._crashed.add(address)
        self._crashed_at[address] = self._round
        self._crashed_flag[slot] = True
        self._receiving[slot] = False
        self._active.discard(slot)
        self._live_cache = None
        self._m_crashes.inc()
        self._obs.emit(self._round, "crash", address)

    def join(self, address: Address, interest: Interest) -> None:
        """Add a process to the running group (§2.3 join, converged).

        The tree gains the member, the directory's tables on its prefix
        path are refreshed in place at a fresh timestamp (what §2.3's
        contact chain converges to), the newcomer's replica is wired
        onto snapshots of them, and it and its immediate neighbors start
        watching each other.  No other replica is touched: the other
        members learn the refreshed lines by pulling them, from the
        newcomer first (:meth:`stale_replicas` counts who has not yet).
        """
        if address in self._tree:
            raise SimulationError(f"{address} is already a member")
        self._tree.add(address, interest)
        self._m_joins.inc()
        self._obs.emit(self._round, "join", address)
        self._refresh_path(address, cause="join")
        self._wire(address)
        slot_of = self._contacts.slot_of
        slot = slot_of[address]
        self._member_slots[slot] = None
        if not self._crashed_flag[slot] and (self._rows.slot == slot).any():
            # A wrongly excluded process comes back still buffering.
            self._active.add(slot)
        self._watch_neighbors([address])
        crashed = self._crashed
        live = [
            slot_of[mate]
            for mate in self._tree.subtree_members(address.prefix(self._tree.depth))
            if mate != address and mate not in crashed
        ]
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
        slot = self._contacts.slot_of[address]
        self._rows.clear(slot)
        self._kernel.flats.prune(self._rows.live_events(), self._link.has_pending)
        del self._member_slots[slot]
        self._crashed_flag[slot] = False
        self._receiving[slot] = False
        self._tokens[slot] = 0
        self._contacts.forget(slot)
        self._active.discard(slot)
        self._refresh_path(address, cause="leave")
        self._contacts.unwatch(slot)

    def update_interest(self, address: Address, interest: Interest) -> None:
        """Re-subscribe a live member (§2.3 "subscriptions and
        unsubscriptions are updates of the membership information").

        The tree records the new interest, the member matches future
        events against it, and the tables along its prefix path
        are refreshed in place — the regrouped subtree interests near
        the root absorb the change, exactly as a converged
        re-subscription would.  Mirrors :meth:`join`/:meth:`leave`:
        no other member is touched.
        """
        if address not in self._tree:
            raise SimulationError(f"{address} is not a member")
        slot = self._contacts.slot_of[address]
        if self._crashed_flag[slot]:
            raise SimulationError(f"{address} has crashed")
        self._tree.update_interest(address, interest)
        self._rows.set_interest(slot, interest)
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
        heard = self._event_round()
        with self._obs.timeline.span("membership", "runtime", self._round):
            self._membership_round(heard)
            self._detection_round()

    def _event_round(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fan-out and exchange on the kernel
        (:class:`~repro.sim.vector.LiveRound`); returns who heard from
        whom as (receiver, sender) slot arrays, one pair per arrival."""
        timeline = self._obs.timeline
        with timeline.span("fan_out", "runtime", self._round):
            emission = self._kernel_fan_out(self._walk())
        with timeline.span("exchange", "runtime", self._round):
            return self._kernel_exchange(emission)

    def _walk(self) -> List[int]:
        """The active set in wiring order — the sender sequence a scan
        over every node would give the shared gossip RNG — less the
        processes that crashed or left the tree, which drop off the set
        (:meth:`join` re-adds a live process excluded while buffering)."""
        walk = []
        crashed, members = self._crashed_flag, self._member_slots
        for slot in sorted(self._active, key=self._seq_at.__getitem__):
            if not crashed[slot] and slot in members:
                walk.append(slot)
            else:
                self._active.discard(slot)
        return walk

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

    def _kernel_fan_out(self, walk: List[int]) -> LiveEmission:
        """The walk's gossip on the kernel, each slot once per fire
        (none: it sits the round out, still active); idle slots drop off
        the set."""
        fires = None
        if self._schedule is not None:
            addresses = self._contacts.addresses
            fires = np.array([self._fires_for(addresses[slot]) for slot in walk], np.int64)
        slots = np.array(walk, np.int64)
        # A prefix's id is its place in _prefix_id's insertion order.
        tables, prefixes = self._directory.tables, list(self._prefix_id)
        wired = self._kernel.flats.wired
        columns = self._kernel.columns(self._prefix_ids, lambda at: wired(tables[prefixes[at]]))
        emission = self._kernel.fan_out(slots, fires, columns)
        self._active.difference_update(slots[~np.isin(slots, self._rows.slot)].tolist())
        return emission

    def _kernel_exchange(self, emission: LiveEmission) -> Tuple[np.ndarray, np.ndarray]:
        """Transmit the kernel's envelopes and apply every arrival
        (:meth:`LiveRound.transmit <repro.sim.vector.LiveRound.transmit>`),
        then drop the flats of the events no row buffers any more.  The
        round's ε drops count as lost (a delayed envelope is not lost;
        injected losses are in the ``faults`` collector)."""
        link, obs = self._link, self._obs
        lost = link.messages_lost
        self._m_sent.inc(len(emission.dest))
        emission, arrivals = self._kernel.transmit(
            emission, link, self._receiving, obs.emit if obs.tracing else None, self._round
        )
        self._kernel.flats.prune(self._rows.live_events(), self._link.has_pending)
        self._m_lost.inc(link.messages_lost - lost)
        self._m_undeliverable.inc(arrivals.undeliverable)
        self._m_receptions.inc(len(arrivals.at))
        if obs.enabled:
            self._m_deliveries.inc(sum(arrivals.delivered))
        receivers = emission.dest[arrivals.at]
        senders = emission.sender[arrivals.at]
        self._active.update(receivers[np.isin(receivers, self._rows.slot)].tolist())
        if self._piggyback_membership:
            # A delayed envelope may come from a process that since left.
            held = self._tokens[senders, 0] != 0
            self._pull_batch(receivers[held], senders[held])
        return receivers, senders

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
        """(Re)build process, replica and detector state for a member.

        A process re-joining after an exclusion keeps its state, its
        interest included; one wired anew starts idle, with the tree's
        interest.  Its view tables are the directory's on its prefix
        path, looked up by prefix id as it gossips."""
        slot = self._contacts.slot(address)
        if slot == len(self._seq_at):  # a first-time member
            self._seq_at.append(0)
            if slot == len(self._receiving):  # the per-slot arrays double
                for name in _PER_SLOT:
                    held = getattr(self, name)
                    fill = -1 if name.startswith("_far") else 0
                    setattr(self, name, _fit(held, (slot + 1, *held.shape[1:]), fill))
                self._rows.fit(len(self._receiving))
            self._prefix_ids[slot] = [
                self._prefix_id.setdefault(prefix, len(self._prefix_id))
                for prefix in address.prefixes()
            ]
        if not self._tokens[slot, 0]:
            # Staleness is per-process, yet the replica shares its
            # tables: it holds the frozen snapshot of each shared path
            # table's current state (one per state, whoever asks), and a
            # pull moves it to another version without writing any.
            # The shared tables carry exactly the rows a fresh
            # per-process build would produce (built or refreshed at
            # the current clock).
            views = self._directory.path(address)
            self._install(slot, [table.snapshot() for table in views.values()])
            self._seq_at[slot] = self._wire_seq
            self._wire_seq += 1
            self._receiving[slot] = True
            self._rows.set_interest(slot, self._tree.interest_of(address))

    def _install(self, slot: int, tables: Sequence[ViewTable]) -> None:
        """Slot ``slot``'s replica holds ``tables`` (frozen, in depth
        order) from now on."""
        self._tables.update(zip(map(_CACHE_TOKENS, tables), tables))
        self._tokens[slot] = list(map(_CACHE_TOKENS, tables))
        self._addr_tokens[slot] = list(map(_ADDR_TOKENS, tables))

    def _replica(self, address: Address) -> Optional[MembershipState]:
        """The replica of ``address`` as a state over the tables it
        holds (None once it left); installing into it changes nothing
        here (see :meth:`_install`)."""
        row = self._tokens[self._contacts.slot_of[address]].tolist()
        if not row[0]:
            return None
        return MembershipState(
            address, {depth: self._tables[t] for depth, t in enumerate(row, 1)}
        )

    def _prune(self) -> None:
        """Drop the tables no row holds, once they outnumber the held."""
        if len(self._tables) > 2 * self._held + 64:
            held = np.unique(self._tokens).tolist()
            self._tables = {t: self._tables[t] for t in held if t}
            self._held = len(self._tables)

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

    def _live(self) -> Tuple[np.ndarray, ...]:
        """(live slots in member order, a per-slot "is a member" flag,
        then the near pools — :meth:`ContactTable.by_leaf` of the live
        slots): a round's pullers, who may be accused, and each live
        member's leaf-mates.  Cached between membership changes; the
        cache slot is *replaced*, never mutated, so a detection round
        that excludes members keeps walking its round-start snapshot."""
        if self._live_cache is None:
            members = np.fromiter(self._member_slots, np.int64, len(self._member_slots))
            slots = members[~self._crashed_flag[members]]
            flags = np.zeros(len(self._crashed_flag), bool)
            flags[members] = True
            self._live_cache = (slots, flags, *self._contacts.by_leaf(slots))
        return self._live_cache

    def _point_listings(self, slots: np.ndarray) -> None:
        """Point each of ``slots`` at the listing of its replica's tables,
        counting whose listing is reused and whose is read again.

        A listing is the first occurrence of every slot the replica's
        tables name (tables in depth order, each in ``addresses()``
        order — the order of ``MembershipState.peers``), the member
        itself included.  It depends on table structure only, so it is
        memoised on the replica's ``_addr_tokens`` row (timestamp churn
        never moves it) and shared by every member holding that row: a
        member reads one again only when its row moves.  A listing no
        slot points at any more is dropped.
        """
        rows = self._addr_tokens[slots]
        moved = np.flatnonzero((self._far_from[slots] != rows).any(axis=1))
        self._m_far_hits.inc(len(slots) - len(moved))
        if not len(moved):
            return
        self._m_far_misses.inc(len(moved))
        slot_of = self._contacts.slot_of.__getitem__
        listings, listing_of = self._listings, self._listing_of
        named_by: Dict[int, List[int]] = {}  # addresses_token -> the table's slots
        stale, rows = slots[moved], rows[moved]
        distinct, group = np.unique(rows, axis=0, return_inverse=True)
        group = group.reshape(-1)
        order = np.argsort(group, kind="stable")
        bounds = np.r_[0, np.cumsum(np.bincount(group))].tolist()
        ids = np.empty(len(distinct), np.int64)
        place = np.empty(len(stale), np.int64)
        for k, row in enumerate(map(tuple, distinct.tolist())):
            at = listing_of.get(row)
            if at is None:
                holder = int(stale[order[bounds[k]]])
                for table in map(self._tables.__getitem__, self._tokens[holder].tolist()):
                    if table.addresses_token not in named_by:
                        named_by[table.addresses_token] = list(map(slot_of, table.addresses()))
                first = dict.fromkeys(chain.from_iterable(map(named_by.__getitem__, row)))
                at = self._free_ids.pop() if self._free_ids else len(listings)
                listing_of[row] = at
                listings[at] = (np.fromiter(first, np.int64, len(first)), row)
            ids[k] = at
            # Each member's own place in the listing (never empty: a
            # replica's tables only gain lines), -1 if not listed.
            listing, members = listings[at][0], order[bounds[k]:bounds[k + 1]]
            sort = np.argsort(listing)
            at_or_past = np.searchsorted(listing, stale[members], sorter=sort)
            found = sort[at_or_past.clip(max=len(sort) - 1)]
            place[members] = np.where(listing[found] == stale[members], found, -1)
        old = self._far_id[stale]
        old = old[old >= 0]
        size = (len(listings) + len(self._free_ids),)
        self._listing_refs = refs = _fit(self._listing_refs, size, 0)
        refs += np.bincount(ids[group], minlength=len(refs))
        refs -= np.bincount(old, minlength=len(refs))
        for at in filter(lambda at: not refs[at], np.unique(old).tolist()):
            del listing_of[listings.pop(at)[1]]
            self._free_ids.append(at)
        self._far_id[stale] = ids[group]
        self._far_self[stale] = place
        self._far_from[stale] = rows

    def _pools(self, slots: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Every pool of the round as a slice of one array.

        Returns ``(pool, start, size, place)``, with a near then a far
        entry per live member of ``slots``, in member order.  Pool ``k``
        is read off ``pool`` from ``start[k]`` on, past the member's own
        entry at offset ``place[k]`` (``place[k] >= size[k]``: the slice
        does not hold it): draw ``d < size[k]`` names
        ``pool[start[k] + d + (d >= place[k])]``.

        * A near pool is the member's leaf in the live snapshot
          (:meth:`_live`).
        * A far pool is the member's listing (:meth:`_point_listings`)
          less every slot that cannot receive (``_receiving``: crashed,
          or departed and not wired again), one mask over the round's
          distinct listings.  The member itself can receive, so it is in
          its far slice iff its tables list it.
        """
        __, __, grouped, base, pos, width = self._live()
        ids, which = np.unique(self._far_id[slots], return_inverse=True)
        listings = [self._listings[at][0] for at in ids.tolist()]
        named = np.concatenate(listings)
        up = self._receiving[named]
        reached = np.concatenate(([0], np.cumsum(up)))  # up entries before each
        lengths = np.fromiter(map(len, listings), np.int64, len(listings))
        ends = np.cumsum(lengths)
        starts = (ends - lengths)[which]
        first, last = reached[starts], reached[ends[which]]
        own = self._far_self[slots]
        listed = own >= 0
        size = last - first - listed
        place = np.where(listed, reached[starts + np.maximum(own, 0)] - first, size)
        pool = np.concatenate((grouped, named[up]))
        return pool, *(
            np.column_stack(pair).ravel()
            for pair in ((base, len(grouped) + first), (width - 1, size), (pos, place))
        )

    def _membership_round(self, heard: Tuple[np.ndarray, np.ndarray]) -> None:
        """Dedicated membership gossips — one near pull, one far pull
        per live member — then every contact of the round.

        Every peer is drawn by one ``sample_positions_each(rng, sizes,
        1)`` (:mod:`repro.core.rate`): ``sizes`` holds each live member's
        near-pool size then its far-pool size, in member order, empty
        pools skipped — the draws, in the order, of a walk drawing
        ``pool[rng._randbelow(len(pool))]`` per pool (``rng.choice``'s
        implementation, minus a Python frame per draw).  A pull draws
        nothing, so drawing every peer first consumes the stream exactly
        as interleaving would.  Near and far pools are slices of one
        array (:meth:`_pools`), so every peer is one gather: the draw
        ``d`` names ``pool[start + d + (d >= place)]``, the member
        itself skipped.

        The pulls are one synchronous batch (:meth:`_pull_batch`): every
        reply carries the peer's round-start tables, and a member applies
        its near reply, then its far one.  Each pull is a contact both
        ways (the peer answered) and each event arrival (``heard``) one
        way; the round's contacts reach the contact table in one batch,
        before detection reads it, and it keeps those between leaf-mates.
        """
        slots = self._live()[0]
        g = p = slots[:0]
        if len(slots):  # else every member has crashed: nobody pulls
            self._point_listings(slots)
            pool, start, size, place = self._pools(slots)
            drawn = np.flatnonzero(size)
            sizes = size[drawn].tolist()
            d = np.array(sample_positions_each(self._membership_rng, sizes, 1), np.int64)
            g = slots[drawn >> 1]
            p = pool[start[drawn] + d + (d >= place[drawn])]
        if len(g):
            values = self._pull_batch(g, p)
            self._m_pulls.inc(len(g))
            if self._obs.tracing:
                emit, addresses = self._obs.emit, self._contacts.addresses
                for gossiper, peer, value in zip(
                    g.tolist(), p.tolist(), np.maximum(values, 0).tolist()
                ):
                    emit(
                        self._round, "pull", addresses[gossiper],
                        peer=addresses[peer], value=value,
                    )
        r, s = heard
        self._contacts.contact(
            np.concatenate((g, p, r)), np.concatenate((p, g, s)), now=self._round
        )

    def _pull_batch(self, g: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Slot ``g[j]`` pulls from slot ``p[j]``'s tables as the batch
        starts (:func:`~repro.membership.gossip_pull.pull_batch`), on the
        replica rows, counted as that many ``exchange`` calls.  Returns
        each pull's value: -1 synced, else the lines installed."""
        values = pull_batch(
            self._tokens, self._addr_tokens, self._prefix_ids, self._tables, g, p
        )
        exchanges, synced, lines = self._x_counters
        exchanges.inc(len(g))
        synced.inc(int(np.count_nonzero(values < 0)))
        lines.inc(int(values[values > 0].sum()))
        self._prune()
        return values

    def _detection_round(self) -> None:
        """Collect suspicions; exclude once the quorum concurs.

        A process watches and accuses only its *immediate neighbors*,
        its leaf-mates (§2.3 monitors "its most immediate neighbor
        processes"); each stale leaf-mate is one suspicion report.  A
        round that convicts nobody and is not traced is settled in
        arrays (:meth:`~repro.membership.failure_detector.ContactTable.
        accuse_all`); any other is played accusation by accusation
        (:meth:`_play_detection`).
        """
        slots, members = self._live()[:2]
        stale = self._contacts.stale(slots, self._round)
        counts = self._contacts.suspect_counts(stale)
        if not self._obs.tracing:
            accused = self._contacts.accuse_all(slots, stale, members)
            if accused is not None:
                self._count_detection(int(counts.sum()), accused, 0)
                return
        self._play_detection(slots, stale, counts)

    def _play_detection(
        self, slots: np.ndarray, stale: np.ndarray, counts: np.ndarray
    ) -> None:
        """The detection round as if played one accusation at a time.

        Monitors take turns in member order; each accuses its suspect
        leaf-mates in component order.  Three behaviours follow, and
        the array form of the round must agree with all of them:

        1. accusations made by monitors that since crashed or left stay
           counted until retracted (the accuser hears from the suspect);
        2. a conviction excludes the suspect at once and ends that
           monitor's turn; later monitors find it out of the tree (and
           no longer watch it, so it leaves their report counts too);
        3. suspects are accused in component order.

        Between two convictions the accusations are one array step
        (:meth:`~repro.membership.failure_detector.ContactTable.play`).
        """
        contacts = self._contacts
        addresses = contacts.addresses
        members = self._live()[1].copy()  # who may be accused: in the tree
        may_concur = np.zeros(len(addresses), bool)
        may_concur[slots] = True
        rows, suspects = contacts.near_suspects(slots, stale)
        n_reports = n_accusations = n_convictions = 0
        turn = start = 0  # the first monitor not reported, pair not played
        while True:
            pairs = start + np.flatnonzero(members[suspects[start:]])
            convicted, new, values = contacts.play(
                slots, rows[pairs], suspects[pairs], may_concur, self._obs.tracing
            )
            n_accusations += int(np.count_nonzero(new))
            if values is not None:
                for monitor, suspect, value in zip(
                    slots[rows[pairs[: len(new)]]].tolist(),
                    suspects[pairs[: len(new)]].tolist(), values.tolist(),
                ):
                    self._obs.emit(
                        self._round, "suspect", addresses[monitor],
                        peer=addresses[suspect], value=value,
                    )
            if convicted < 0:
                n_reports += int(counts[turn:].sum())
                break
            # The conviction ends its monitor's turn.
            row, suspect = int(rows[pairs[convicted]]), int(suspects[pairs[convicted]])
            n_reports += int(counts[turn:row + 1].sum())
            n_convictions += 1
            may_concur[suspect] = members[suspect] = False
            self._exclude(addresses[suspect])
            # Nobody watches the excluded process any more: it leaves
            # the later monitors' report counts.
            counts = contacts.suspect_counts(contacts.stale(slots, self._round))
            turn = row + 1
            start = int(np.searchsorted(rows, row, side="right"))
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

        The table half is the directory's
        :meth:`~repro.membership.lifecycle.GroupDirectory.refresh_path`;
        around it the runtime keeps its own books: the match-cache
        entries of a table a removal emptied.  (A table a join newly
        creates needs no wiring: a process's tables are looked up by
        prefix as it gossips.)

        ``cause`` ("join" / "leave" / "crash" / "interest-update") is
        recorded in the match cache's invalidation-cause breakdown so
        churn-driven hit-rate collapses are attributable.
        """
        self._ctx.note_invalidation(cause)
        self._live_cache = None
        dropped = self._directory.refresh_path(address)[2]
        for table in dropped:
            self._ctx.invalidate_table(table)
            self._kernel.flats.forget(table)
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
        slot = self._contacts.slot_of[address]
        del self._member_slots[slot]
        self._m_exclusions.inc()
        crashed_at = self._crashed_at.get(address)
        if crashed_at is not None:
            self._h_exclusion.observe(self._round - crashed_at)
        if self._obs.tracing:
            self._obs.emit(self._round, "exclude", address)
        self._refresh_path(address, cause="crash")
        self._contacts.unwatch(slot)
