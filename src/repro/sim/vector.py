"""Struct-of-arrays fast paths for the simulation hot loop.

Three kernels live here.  Two run a single-event dissemination, with
different contracts:

**Compat kernel** (:func:`try_run_vectorized`) — a flattened re-
implementation of :func:`repro.sim.engine.run_dissemination`'s round
loop over dense integer indices instead of the per-member object model.
It consumes the *same* ``random.Random`` streams in the *same* order as
the scalar engine (destination draws via the scalar step's own
:func:`~repro.core.rate.sample_positions` over the same flat
:class:`~repro.core.rate.TableMatch`, loss draws via
:meth:`~repro.sim.network.LossyNetwork.transmit_flags`), so its
:class:`~repro.sim.metrics.DisseminationReport` is bit-identical to the
scalar path's for any eligible run — and so is its trace: the kernel
emits the same ``repro.obs.trace/v1`` records in the same order (through
the same :meth:`Observer.emit <repro.obs.probes.Observer.emit>`, so
sampled alike), and a traced run takes it too.  It is the path
:func:`~repro.sim.engine.run_dissemination` takes whenever the run is
eligible; an ineligible one (a node mid-event, ragged address depths,
an unpopulated view — or, decided by the engine, a fault plan, whose
link offers no ``transmit_flags``) takes the scalar reference loop and
is counted by reason.
``SimConfig(vectorized=False)`` forces the reference loop.

**Regular-tree kernel** (:class:`RegularTreeSpec` / :class:`TreeState`)
— a fully vectorized numpy round for the synthetic full regular tree
(n = arity^depth, delegates = the R smallest addresses of each subtree,
exact-union regrouping).  Member state is flat arrays over the whole
tree (``alive``, ``received``, ``buf_depth``, ``buf_round``) plus the
ascending index of alive buffered members; per-(depth, subgroup)
matching masks, rates, round bounds and flood flags are precomputed
tables, valid because every entry of a view shares the view's subgroup
and therefore its rate.  A round is one pass per depth over the
buffered members (:func:`gossip_pass`, in passes of whole depth-1
subtrees — *shards*), then one reception pass.  Destination and loss
draws come from per-(shard, round) ``numpy`` PCG64 streams derived
through the SHA-256 seed contract — identical however a round is cut
into passes, but *not* stream-compatible with the scalar engine; this
kernel is validated statistically against the Eqs 8–18 oracles (the
``scale`` conformance suite) rather than by digest.  The entry point
that plays the rounds (and hands the trace to an Observer) lives in
:mod:`repro.par.subtree`.

The third, :class:`LiveRound`, is :class:`~repro.sim.runtime.GroupRuntime`'s
fan-out and exchange over any number of buffered events, draw for draw
with the runtime's per-node loop, on the compat kernel's flat matches.

Determinism rules (all kernels): no wall clock, no ``hash()`` of
interned objects, no set-iteration order — every draw is derived from
the master seed via :func:`repro.sim.rng.derive_seed`, and every loop
iterates arrays or insertion-ordered lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.addressing import Address
from repro.config import PmcastConfig, SimConfig
from repro.core.context import GossipContext
from repro.core.rate import sample_positions
from repro.core.rounds import depth_round_bound
from repro.errors import ProtocolError, SimulationError
from repro.interests.events import Event
from repro.obs.probes import NULL_OBSERVER, Observer
from repro.obs.sampling import keep, keep_mask
from repro.obs.trace import dissemination_meta
from repro.sim.crashes import CrashSchedule
from repro.sim.group import PmcastGroup, assemble_pmcast_report
from repro.sim.metrics import DisseminationReport
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_seed

__all__ = [
    "VectorUnsupported",
    "try_run_vectorized",
    "RegularTreeSpec",
    "TreeState",
    "gossip_pass",
]


class VectorUnsupported(SimulationError):
    """The requested run cannot be expressed on the vector fast path."""


# ---------------------------------------------------------------------------
# Compat kernel: bit-identical to the scalar engine.
# ---------------------------------------------------------------------------

class _DepthMatch:
    """One (view table, event) match in dense member indices.

    The index-space image of a :class:`repro.core.rate.TableMatch`,
    kept as ``match`` (whose ``mask``, ``rate`` and ``round_bound``
    memo the round loop reads as they are): ``entries`` holds member
    indices in view order, ``pos`` the inverse mapping for
    self-exclusion (int keys: cheaper to probe than the match's
    address-keyed ``positions``), ``flood_targets`` the §6 leaf-flood
    recipients.  The live-round kernel (:class:`LiveRound`) keeps its
    flats over contact slots, with ``entries`` an array holding -1 at
    every entry line 13 skips, so one gather both names and filters a
    round's destinations.
    """

    __slots__ = ("match", "entries", "pos", "flood_targets")

    def __init__(self, match, entries, pos, flood_targets):
        self.match = match
        self.entries = entries
        self.pos = pos
        self.flood_targets = flood_targets


class _CompatSpec:
    """Everything the compat round loop needs, in index space."""

    __slots__ = (
        "addresses", "nodes", "index_of", "components", "tree_depth",
        "node_matches", "own_match", "alive", "received", "delivered",
    )


def _build_compat_spec(
    group: PmcastGroup, event: Event, ctx: GossipContext
) -> Optional[_CompatSpec]:
    """Flatten the group for ``event``, or None if ineligible.

    The probe is read-only (table matching draws no randomness), so a
    None return leaves the run's RNG streams untouched for the
    reference loop — and the common declines (a node mid-event, ragged
    address depths) are settled in one cheap pass before any table is
    flattened, so an ineligible run pays next to nothing for asking.
    """
    addresses = group.addresses()
    tree_depth = group.tree.depth
    nodes = [group.node(address) for address in addresses]
    for address, node in zip(addresses, nodes):
        # A node mid-event lives on the object model, which the
        # single-event arrays cannot represent.
        if not node.is_idle or len(address.components) != tree_depth:
            return None
    index_of = {address: i for i, address in enumerate(addresses)}
    spec = _CompatSpec()
    spec.addresses = addresses
    spec.nodes = nodes
    spec.index_of = index_of
    spec.tree_depth = tree_depth
    components: List[Tuple[int, ...]] = []
    own_match: List[bool] = []
    alive: List[bool] = []
    received: List[bool] = []
    delivered: List[bool] = []
    node_matches: List[Tuple[_DepthMatch, ...]] = []
    matches: Dict[Tuple[int, int], _DepthMatch] = {}
    can_flood = group.config.leaf_flood_threshold <= 1.0
    try:
        for address, node in zip(addresses, nodes):
            components.append(address.components)
            own_match.append(node.interest.matches(event))
            alive.append(node.alive)
            received.append(node.has_received(event))
            delivered.append(node.has_delivered(event))
            per_depth = []
            for depth in range(1, tree_depth + 1):
                table = node.view(depth)
                key = (depth, id(table))
                flat = matches.get(key)
                if flat is None:
                    match = ctx.table_match(table, event)
                    entries = []
                    for entry_address in match.entries:
                        entry_index = index_of.get(entry_address)
                        if entry_index is None:
                            return None
                        entries.append(entry_index)
                    pos = dict(zip(entries, range(len(entries))))
                    if depth == tree_depth and can_flood:
                        flood_targets = [
                            index_of[target]
                            for target in sorted(match.matching)
                            if target in index_of
                        ]
                    else:
                        flood_targets = []
                    flat = _DepthMatch(match, entries, pos, flood_targets)
                    matches[key] = flat
                per_depth.append(flat)
            node_matches.append(tuple(per_depth))
    except ProtocolError:
        # e.g. an unpopulated view: let the reference loop surface it
        # with its native timing and message.
        return None
    spec.components = components
    spec.own_match = own_match
    spec.alive = alive
    spec.received = received
    spec.delivered = delivered
    spec.node_matches = node_matches
    return spec


def try_run_vectorized(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    sim_config: SimConfig,
    ctx: GossipContext,
    network: LossyNetwork,
    crash_schedule: CrashSchedule,
    observer: Observer = NULL_OBSERVER,
) -> Optional[DisseminationReport]:
    """Run one dissemination on the compat kernel, or None if ineligible.

    Stream-compatible with the reference loop: same gossip/loss draws
    in the same order, same report, the same trace records in the same
    order (through ``observer.emit``, so sampled alike), and the object
    model (node liveness, delivery sets, message counters, leftover
    buffers) is written back so post-run inspection cannot tell the
    paths apart.  ``observer.registry`` receives per-round ``vector.*``
    counters; ``observer.timeline`` receives ``engine`` ``match``/
    ``fan_out``/``exchange`` spans under the names the reference loop
    uses — both out of band.
    """
    registry = observer.registry
    timeline = observer.timeline
    with timeline.span("match", "engine"):
        spec = _build_compat_spec(group, event, ctx)
    if spec is None:
        return None

    n = len(spec.addresses)
    index_of = spec.index_of
    components = spec.components
    node_matches = spec.node_matches
    tree_depth = spec.tree_depth
    config = group.config
    fanout = config.fanout
    flood_threshold = config.leaf_flood_threshold
    randbelow = ctx.rng._randbelow

    pub = index_of.get(publisher)
    if pub is None:
        raise SimulationError(f"{publisher} is not in the group")

    # Ground truth before anybody crashes (exactly the scalar order);
    # own_match already holds it, in address order.
    interested = set(compress(spec.addresses, spec.own_match))
    sent_before = sum(node.messages_sent for node in group.nodes())
    receptions_before = sum(node.receptions for node in group.nodes())

    # PMCAST bootstrap (Figure 3 lines 24-25).
    if spec.received[pub]:
        raise ProtocolError(f"event {event.event_id} already published")
    alive = spec.alive
    received = spec.received
    delivered = spec.delivered
    own_match = spec.own_match
    received[pub] = True
    if own_match[pub]:
        delivered[pub] = True
    publish_depth = (
        spec.nodes[pub].shortcut_depth(event)
        if config.local_interest_shortcut
        else 1
    )
    buf_depth = [0] * n
    buf_round = [0] * n
    buf_rate = [0.0] * n
    buf_depth[pub] = publish_depth
    buf_rate[pub] = node_matches[pub][publish_depth - 1].match.rate
    sent_count = [0] * n
    recv_count = [0] * n

    emit = observer.emit if observer.tracing else None
    if emit is not None:
        # Byte-identical metadata to the scalar engine's: offline
        # tooling cannot (and must not) tell the producers apart.
        observer.annotate(
            **dissemination_meta(
                "repro.sim.engine",
                publisher,
                event.event_id,
                group.size,
                interested,
                sim_config.seed,
            )
        )
        emit(0, "publish", publisher, event_id=event.event_id)
        if delivered[pub]:
            emit(0, "deliver", publisher, event_id=event.event_id)

    active_list = [pub]
    in_active = [False] * n
    in_active[pub] = True
    active_count = 1
    infected = [False] * n
    infected[pub] = True
    infected_count = 1
    infection_curve: List[int] = []
    messages_by_distance = [0] * tree_depth
    rounds = 0

    metering = registry.enabled
    if metering:
        meter_rounds = registry.counter("vector", "rounds")
        meter_envelopes = registry.counter("vector", "envelopes")
        meter_losses = registry.counter("vector", "losses")
        meter_infected = registry.gauge("vector", "infected")

    addresses = spec.addresses
    for round_index in range(sim_config.max_rounds):
        for victim in crash_schedule.crashes_at(round_index):
            vi = index_of.get(victim)
            if vi is None:
                raise SimulationError(f"{victim} is not in the group")
            if not alive[vi]:
                continue
            alive[vi] = False
            if in_active[vi]:
                in_active[vi] = False
                active_count -= 1
            if emit is not None:
                emit(round_index + 1, "crash", victim)
        if active_count == 0:
            break
        rounds = round_index + 1

        # GOSSIP firings, in active-set insertion order (the scalar
        # engine's dict order), depths ascending with same-firing
        # demotion cascades.
        envelopes: List[Tuple[int, int, int, float, int]] = []
        with timeline.span("fan_out", "engine", rounds):
            next_active: List[int] = []
            for i in active_list:
                if not in_active[i]:
                    continue
                depth = buf_depth[i]
                entry_round = buf_round[i]
                entry_rate = buf_rate[i]
                matches_i = node_matches[i]
                emitted = 0
                while True:
                    flat = matches_i[depth - 1]
                    match = flat.match
                    if depth == tree_depth and match.rate >= flood_threshold:
                        # §6 leaf flood: round NOT incremented, retire.
                        for target in flat.flood_targets:
                            if target != i:
                                envelopes.append(
                                    (target, depth, entry_round, entry_rate, i)
                                )
                                emitted += 1
                        depth = 0
                        break
                    if entry_round < match.round_bound(entry_rate, config):
                        entry_round += 1
                        entries = flat.entries
                        selfpos = flat.pos.get(i, -1)
                        m = len(entries) - (selfpos >= 0)
                        if m > 0:
                            mask = match.mask
                            count = fanout if fanout < m else m
                            for j in sample_positions(randbelow, m, count):
                                if selfpos >= 0 and j >= selfpos:
                                    j += 1
                                if mask[j]:
                                    envelopes.append(
                                        (
                                            entries[j], depth, entry_round,
                                            entry_rate, i,
                                        )
                                    )
                                    emitted += 1
                        break
                    elif depth < tree_depth:
                        depth += 1
                        entry_round = 0
                        entry_rate = matches_i[depth - 1].match.rate
                    else:
                        depth = 0
                        break
                sent_count[i] += emitted
                buf_depth[i] = depth
                buf_round[i] = entry_round
                buf_rate[i] = entry_rate
                if depth == 0:
                    in_active[i] = False
                    active_count -= 1
                else:
                    next_active.append(i)
            active_list = next_active

            # Distance accounting: every envelope, before loss (§2.2).
            for dest, __, ___, ____, sender in envelopes:
                sc = components[sender]
                dc = components[dest]
                common = 0
                while common < tree_depth and sc[common] == dc[common]:
                    common += 1
                messages_by_distance[tree_depth - 1 - common] += 1

        with timeline.span("exchange", "engine", rounds):
            flags = network.transmit_flags(len(envelopes))
            if emit is not None:
                # The scalar engine records every envelope's disposition
                # (send/loss) before any reception — same order here.
                for position, envelope in enumerate(envelopes):
                    dest, depth, __, ___, sender = envelope
                    kind = (
                        "send"
                        if flags is None or flags[position]
                        else "loss"
                    )
                    emit(
                        rounds,
                        kind,
                        addresses[sender],
                        peer=addresses[dest],
                        event_id=event.event_id,
                        depth=depth,
                    )
            for position, envelope in enumerate(envelopes):
                if flags is not None and not flags[position]:
                    continue
                dest, depth, entry_round, entry_rate, sender = envelope
                if not alive[dest]:
                    continue
                recv_count[dest] += 1
                if emit is not None:
                    emit(
                        rounds,
                        "receive",
                        addresses[dest],
                        peer=addresses[sender],
                        event_id=event.event_id,
                        depth=depth,
                    )
                if received[dest]:
                    if not infected[dest]:
                        infected[dest] = True
                        infected_count += 1
                    continue
                received[dest] = True
                if own_match[dest]:
                    delivered[dest] = True
                    if emit is not None:
                        emit(
                            rounds,
                            "deliver",
                            addresses[dest],
                            event_id=event.event_id,
                        )
                buf_depth[dest] = depth
                buf_round[dest] = entry_round
                buf_rate[dest] = entry_rate
                if not infected[dest]:
                    infected[dest] = True
                    infected_count += 1
                if not in_active[dest]:
                    in_active[dest] = True
                    active_list.append(dest)
                    active_count += 1

        infection_curve.append(infected_count)
        if metering:
            meter_rounds.inc()
            meter_envelopes.inc(len(envelopes))
            if flags is not None:
                meter_losses.inc(sum(1 for flag in flags if not flag))
            meter_infected.set(infected_count)

    timeline.probe_memory(subsystem="engine", round_index=rounds)
    observer.annotate(rounds=rounds)
    if metering:
        registry.counter("vector", "runs").inc()
        registry.counter("vector", "receptions").inc(sum(recv_count))

    # Write the outcome back through the object model so every scalar
    # inspection API stays truthful after a vectorized run.
    for i, node in enumerate(spec.nodes):
        buffered = None
        if buf_depth[i] > 0:
            buffered = (buf_depth[i], buf_rate[i], buf_round[i])
        node.restore_outcome(
            event,
            alive=alive[i],
            received=received[i],
            delivered=delivered[i],
            sent_delta=sent_count[i],
            receptions_delta=recv_count[i],
            buffered=buffered,
        )

    return assemble_pmcast_report(
        group,
        publisher,
        event,
        interested,
        infected_count,
        rounds,
        tuple(infection_curve),
        tuple(messages_by_distance),
        network.messages_lost,
        crash_schedule.victim_count,
        sent_before=sent_before,
        receptions_before=receptions_before,
    )


# ---------------------------------------------------------------------------
# Live-round kernel: GroupRuntime's fan-out and exchange, draw for draw.
# ---------------------------------------------------------------------------

#: What a row's depth pass decided (Figure 3 lines 6-18).
_GOSSIP, _DEMOTE, _REMOVE, _FLOOD = range(4)


class LiveEmission(NamedTuple):
    """One live round's envelopes, in send order, and the rows behind them.

    Per envelope: ``dest`` and ``sender`` (contact slots) and ``row``.
    Per row: the ``entries`` it gossiped (event, rate and round of the
    GOSSIP message it sends), ``depths``, and ``event_index`` (its event
    in the round's ``event_list``).  ``idle`` lists the walk positions
    of the nodes the fan-out emptied, ``live`` the events the walked
    nodes still buffer.
    """

    dest: np.ndarray
    sender: np.ndarray
    row: np.ndarray
    entries: List
    depths: np.ndarray
    event_index: np.ndarray
    event_list: List[Event]
    idle: List[int]
    live: Set[int]


class LiveArrivals(NamedTuple):
    """What the exchange applied: ``at``, the envelopes that reached a
    live receiver, in send order; ``fresh``, the indices into ``at`` of
    the first receptions, and ``delivered`` whether each one was
    HPDELIVERed; ``receivers``, every receiving slot once;
    ``undeliverable``, the survivors addressed to a crashed or departed
    process."""

    at: np.ndarray
    fresh: np.ndarray
    delivered: List[bool]
    receivers: List[int]
    undeliverable: int


class LiveRound:
    """:class:`~repro.sim.runtime.GroupRuntime`'s fan-out and exchange
    on arrays, stream-compatible with the per-node loop it replaces.

    **Rows.**  :meth:`fan_out` reads every buffered entry of the walked
    nodes into a row, in walk order: node (the caller's order), then
    depth, then bucket order.  One pass per depth then settles each row
    of that depth — §6 leaf flood, line 7's bound at the entry's own
    rate, gossip (round + 1), demotion or removal.  A demoted entry
    becomes a row of the next pass, after that node's own rows there:
    the end of the next bucket, where Figure 3's in-place loop finds it
    in the same step.

    **Draws.**  The gossiping rows draw in walk order, one
    :func:`~repro.core.rate.sample_positions` per row over the view
    minus the gossiper — the calls, in the order, of the per-node
    loop.  Destinations are gathered through the rows' flat matches
    (:class:`_DepthMatch` over contact slots, -1 where line 13 skips
    the entry), so one mask keeps the interested ones.

    **Flats.**  Keyed by (table, cache token, event): a flat is
    replaced at its next lookup once its table's token moved, dropped
    when :meth:`forget` names its table, and dropped with its event once
    no walked node buffers it (:meth:`prune`).  A lookup served from a flat counts the
    ``match_cache`` table hit the scalar step's lookup would; any
    other goes through :meth:`GossipContext.table_match
    <repro.core.context.GossipContext.table_match>`, which counts
    itself — so the counters read per round what the loop's read.

    **Write-back.**  Node objects stay the only state between rounds:
    :meth:`fan_out` advances round counters, demotes and removes
    through :class:`~repro.core.buffers.DepthBuffers` and adds the
    messages sent; :meth:`exchange` buffers first receptions through
    :meth:`PmcastNode.restore_outcome
    <repro.core.node.PmcastNode.restore_outcome>` and adds receptions.
    The read takes a node's buckets and view tables straight off its
    internals (``_buffers``, ``_views``), in one pass over the walk.
    The checks the objects make run on the arrays instead:
    ``GossipMessage``'s fields once per emitting row, ``Envelope``'s
    no-self-send per envelope, ``receive``'s depth range per arrival.
    """

    __slots__ = (
        "_ctx", "_config", "_slot_of", "_depth", "_flats", "_wiring", "_bounds", "_stats",
    )

    def __init__(
        self,
        ctx: GossipContext,
        config: PmcastConfig,
        slot_of: Dict[Address, int],
        tree_depth: int,
    ):
        self._ctx = ctx
        self._config = config
        self._slot_of = slot_of
        self._depth = tree_depth
        # event_id -> {id(table): (cache_token, _DepthMatch)}
        self._flats: Dict[int, Dict[int, Tuple[int, _DepthMatch]]] = {}
        # id(table) -> (addresses_token, entry slots, slot -> position):
        # a match's entries depend on the table's structure only.
        self._wiring: Dict[int, Tuple[int, np.ndarray, Dict[int, int]]] = {}
        # entry count -> {rate -> line 7's bound}: the bound depends on
        # the table through its entry count only.
        self._bounds: Dict[int, Dict[float, int]] = {}
        self._stats = ctx.cache_stats

    def forget(self, table) -> None:
        """Drop every flat of ``table`` (its match-cache entries went)."""
        self._wiring.pop(id(table), None)
        for per_event in self._flats.values():
            per_event.pop(id(table), None)

    def prune(self, live: set) -> None:
        """Drop the flats of every event not in ``live``."""
        for event_id in [e for e in self._flats if e not in live]:
            del self._flats[event_id]

    def _cell(self, table, event: Event, depth: int) -> Tuple:
        """(flat, entry count, floods?, {rate: bound}) of (``table``,
        ``event``); the flat is built on first use."""
        per_event = self._flats.get(event.event_id)
        if per_event is None:
            per_event = self._flats[event.event_id] = {}
        token = table.cache_token
        held = per_event.get(id(table))
        if held is not None and held[0] == token:
            self._stats.table_hits += 1
            flat = held[1]
        else:
            match = self._ctx.table_match(table, event)
            size = len(match.entries)
            wiring = self._wiring.get(id(table))
            if wiring is None or wiring[0] != table.addresses_token:
                slots = np.fromiter(
                    map(self._slot_of.__getitem__, match.entries), np.int64, size
                )
                wiring = self._wiring[id(table)] = (
                    table.addresses_token, slots, dict(zip(slots.tolist(), range(size)))
                )
            __, slots, pos = wiring
            if depth == self._depth and self._config.leaf_flood_threshold <= 1.0:
                flood_targets = np.fromiter(
                    map(self._slot_of.__getitem__, sorted(match.matching)), np.int64
                )
            else:
                flood_targets = slots[:0]
            flat = _DepthMatch(
                match, np.where(np.fromiter(match.mask, bool, size), slots, -1),
                pos, flood_targets,
            )
            per_event[id(table)] = (token, flat)
        match = flat.match
        size = len(match.entries)
        floods = depth == self._depth and match.rate >= self._config.leaf_flood_threshold
        return flat, size, floods, self._bounds.setdefault(size, {})

    def fan_out(self, nodes: List, slots: List[int]) -> LiveEmission:
        """GOSSIP for ``nodes`` (live, buffering, in walk order; ``slots``
        their contact slots), written back as it goes."""
        depth_count = self._depth
        config = self._config
        fanout = config.fanout
        hits = 0  # lookups served from this round's cells
        pool: List[np.ndarray] = []  # the entries of the round's flats
        event_index: Dict[int, int] = {}  # event_id -> its place in event_list
        event_list: List[Event] = []

        def cell_of(table, event: Event, depth: int) -> Tuple:
            """The cell plus the round's view of it: its flat's place in
            the pool, and its event's index."""
            flat, size, floods, bound_of = self._cell(table, event, depth)
            pool.append(flat.entries)
            index = event_index.get(event.event_id)
            if index is None:
                index = event_index[event.event_id] = len(event_list)
                event_list.append(event)
            return flat, size, floods, bound_of, len(pool) - 1, index

        # Read: rows per depth, each in walk order.
        walk_by: List[List[int]] = [[] for __ in range(depth_count)]
        entry_by: List[List] = [[] for __ in range(depth_count)]
        for w, node in enumerate(nodes):
            for k, bucket in enumerate(node._buffers._buffers):
                if bucket:
                    entry_by[k] += bucket.values()
                    walk_by[k] += [w] * len(bucket)

        # The depth passes.  Rows are numbered in pass order: a pass's
        # rows read off the buckets, then the entries the previous pass
        # demoted into it (to the end of the next bucket) — so a stable
        # sort by walk position puts each after its node's own rows at
        # that depth, where Figure 3's in-place loop finds it.
        row_walk: List[int] = []
        row_entry: List = []  # the BufferedEvent; its round is the message's
        row_depth: List[int] = []
        row_kind: List[int] = []
        row_index: List[int] = []  # the row's event in event_list
        # The rows that draw, in pass order: own position in the view
        # (-1: not in it), draw size, the view's flat in the pool.
        g_row: List[int] = []
        g_own: List[int] = []
        g_size: List[int] = []
        g_flat: List[int] = []
        flooding: List[Tuple[int, _DepthMatch]] = []
        local: Dict[Tuple[int, int], Tuple] = {}  # the round's cells
        carry: List[Tuple] = []  # (walk position, demoted entry, its cell)
        row = 0
        for depth in range(1, depth_count + 1):
            walk = walk_by[depth - 1]
            entries = entry_by[depth - 1]
            leaf = depth == depth_count
            demoted, carry = carry, []
            row_walk += walk
            row_entry += entries
            row_depth += [depth] * (len(walk) + len(demoted))
            for w, entry, cell in chain(zip(walk, entries, repeat(None)), demoted):
                event = entry.event
                event_id = event.event_id
                if cell is None:
                    table = nodes[w]._views[depth]
                    key = (id(table), event_id)
                    cell = local.get(key)
                    if cell is None:
                        cell = local[key] = cell_of(table, event, depth)
                    else:
                        hits += 1
                else:
                    row_walk.append(w)
                    row_entry.append(entry)
                    hits += 1  # a demoted entry's lookup at its new depth
                flat, size, floods, bound_of, pooled, index = cell
                row_index.append(index)
                if floods:
                    kind = _FLOOD
                    flooding.append((row, flat))
                    nodes[w]._buffers.remove(depth, event)
                else:
                    rate = entry.rate
                    bound = bound_of.get(rate)
                    if bound is None:
                        bound = bound_of[rate] = depth_round_bound(size, rate, config)
                    if entry.round < bound:
                        kind = _GOSSIP
                        entry.round += 1
                        own = flat.pos.get(slots[w], -1)
                        if size - (own >= 0):
                            g_row.append(row)
                            g_own.append(own)
                            g_size.append(size - (own >= 0))
                            g_flat.append(pooled)
                    elif not leaf:
                        kind = _DEMOTE
                        table = nodes[w]._views[depth + 1]
                        key = (id(table), event_id)
                        below = local.get(key)
                        if below is None:
                            below = local[key] = cell_of(table, event, depth + 1)
                        else:
                            hits += 1
                        carry.append((
                            w,
                            nodes[w]._buffers.demote(depth, event, below[0].match.rate),
                            below,
                        ))
                    else:
                        kind = _REMOVE
                        nodes[w]._buffers.remove(depth, event)
                row_kind.append(kind)
                row += 1
        self._stats.table_hits += hits

        # Draws: the drawing rows in walk order, one sample each.
        walk_a = np.array(row_walk, np.int64)
        g_row_a = np.array(g_row, np.int64)
        order = np.argsort(walk_a[g_row_a], kind="stable")
        sizes = np.array(g_size, np.int64)[order]
        counts = np.minimum(sizes, fanout)
        randbelow = self._ctx.rng._randbelow
        draws: List[int] = []
        for size, count in zip(sizes.tolist(), counts.tolist()):
            draws += sample_positions(randbelow, size, count)

        # Gather: destination slots, -1 where line 13 says no.
        j = np.array(draws, np.int64)
        own = np.repeat(np.array(g_own, np.int64)[order], counts)
        j += (own >= 0) & (j >= own)
        offsets = np.cumsum([0] + [len(entries) for entries in pool])
        dest = np.concatenate(pool or [walk_a[:0]])[
            np.repeat(offsets[np.array(g_flat, np.int64)][order], counts) + j
        ]
        keep = dest >= 0
        env_row, env_dest = np.repeat(g_row_a[order], counts)[keep], dest[keep]
        if flooding:
            rows, dests = [env_row], [env_dest]
            for row, flat in flooding:
                targets = flat.flood_targets
                targets = targets[targets != slots[row_walk[row]]]
                rows.append(np.full(len(targets), row, np.int64))
                dests.append(targets)
            env_row = np.concatenate(rows)
            # Walk order of the rows, each row's envelopes in order.
            by_walk = np.argsort(walk_a[env_row] * len(walk_a) + env_row, kind="stable")
            env_row, env_dest = env_row[by_walk], np.concatenate(dests)[by_walk]
        kind_a = np.array(row_kind, np.int8)
        env_sender = np.array(slots, np.int64)[walk_a[env_row]]
        depth_a = np.array(row_depth, np.int64)
        self._check(env_row, env_dest, env_sender, row_entry, depth_a)
        sent = np.bincount(walk_a[env_row], minlength=len(nodes))
        for w in np.flatnonzero(sent).tolist():
            nodes[w].restore_counts(int(sent[w]), 0)

        index_a = np.array(row_index, np.int64)
        gossiped = kind_a == _GOSSIP
        remaining = np.bincount(walk_a[gossiped], minlength=len(nodes))
        return LiveEmission(
            env_dest, env_sender, env_row, row_entry, depth_a, index_a, event_list,
            idle=np.flatnonzero(remaining == 0).tolist(),
            live={event_list[i].event_id for i in np.unique(index_a[gossiped]).tolist()},
        )

    @staticmethod
    def _check(env_row, dest, sender, entries, depths) -> None:
        """What ``GossipMessage`` checks once per emitting row and
        ``Envelope`` once per envelope."""
        if not len(env_row):
            return
        rows = np.unique(env_row)
        emitting = [entries[row] for row in rows.tolist()]
        rate = np.array([entry.rate for entry in emitting], float)
        bad = ~((rate >= 0.0) & (rate <= 1.0))
        if bad.any():
            raise ProtocolError(f"matching rate {rate[bad][0].item()} not in [0, 1]")
        round_ = np.array([entry.round for entry in emitting], np.int64)
        if (round_ < 0).any():
            raise ProtocolError(f"round {round_[round_ < 0][0].item()} must be >= 0")
        depth = depths[rows]
        if (depth < 1).any():
            raise ProtocolError(f"depth {depth[depth < 1][0].item()} must be >= 1")
        if (dest == sender).any():
            raise ProtocolError("a process does not gossip to itself")

    def exchange(
        self,
        emission: LiveEmission,
        flags: Optional[List[bool]],
        node_at: List,
        receiving: np.ndarray,
    ) -> LiveArrivals:
        """RECEIVE for every envelope the link kept (``flags``, None =
        all): ``node_at`` is the node by slot, ``receiving`` whether it
        is there and alive.  First in send order wins a (process,
        event) pair; every arrival counts one reception; HPDELIVER
        reads the receiver's interest now.  Written back, and the flat
        cache pruned to the events still buffered, before it returns."""
        dest = emission.dest
        kept = np.ones(len(dest), bool) if flags is None else np.array(flags, bool)
        at = np.flatnonzero(kept & receiving[dest])
        receiver = dest[at]
        rows = emission.row[at]
        depths = emission.depths[rows]
        foreign = (depths < 1) | (depths > self._depth)
        if foreign.any():
            raise ProtocolError(f"gossip for foreign depth {depths[foreign][0].item()}")
        receivers, counts = np.unique(receiver, return_counts=True)
        receivers = receivers.tolist()
        for slot, count in zip(receivers, counts.tolist()):
            node_at[slot].restore_counts(0, count)
        events = emission.event_list
        n_events = len(events)
        pairs, first = np.unique(
            receiver * n_events + emission.event_index[rows], return_index=True
        )
        fresh = sorted(
            at_pair
            for pair, at_pair in zip(pairs.tolist(), first.tolist())
            if not node_at[pair // n_events].has_received(events[pair % n_events])
        )
        delivered = []
        buffered = set()  # the events first received here
        receiver, rows = receiver.tolist(), rows.tolist()
        for index in fresh:
            node, row = node_at[receiver[index]], rows[index]
            entry = emission.entries[row]
            event = entry.event
            delivers = node.interest.matches(event)
            node.restore_outcome(
                event,
                alive=True,
                received=True,
                delivered=delivers,
                sent_delta=0,
                receptions_delta=0,
                buffered=(int(emission.depths[row]), entry.rate, entry.round),
            )
            delivered.append(delivers)
            buffered.add(event.event_id)
        self.prune(emission.live | buffered)
        return LiveArrivals(
            at, np.array(fresh, np.int64), delivered, receivers,
            undeliverable=int(np.count_nonzero(kept)) - len(at),
        )


# ---------------------------------------------------------------------------
# Regular-tree kernel: whole-tree numpy arrays, per-shard streams.
# ---------------------------------------------------------------------------

@dataclass
class _DepthTables:
    """Precomputed per-depth matching tables for the regular tree.

    ``eff_mask[sub, e]`` answers Figure 3's line-13 interest check for
    entry ``e`` of subgroup ``sub``'s view; ``rate``/``bound``/``flood``
    are GETRATE, the line-7 round bound and the §6 flood verdict for
    that subgroup.  Valid as global constants because every member of a
    subgroup shares the subgroup's converged view, and every buffered
    entry carries that view's rate (sender and receiver of a depth-δ
    gossip share the δ-1 prefix).
    """

    block: int       # subgroup block size at this depth
    child: int       # per-row child block size (block // arity)
    length: int      # entries per view
    template: np.ndarray    # (length,) member offsets within a block
    eff_mask: np.ndarray    # (num_sub, length) effective interest
    rate: np.ndarray        # (num_sub,)
    bound: np.ndarray       # (num_sub,) integer round bounds
    flood: Optional[np.ndarray] = None  # (num_sub,) leaf flood verdict


def _vector_bounds(length: int, rate: np.ndarray, config: PmcastConfig) -> np.ndarray:
    """`repro.core.rounds` (Eqs 3/11 + clamp), elementwise over subgroups."""
    n_eff = length * rate
    f_eff = config.fanout * rate
    c = config.pittel_c
    if config.loss_aware_rounds:
        scale = (1.0 - config.assumed_loss) * (1.0 - config.assumed_crash)
        n_eff = n_eff * scale
        f_eff = f_eff * scale
    estimate = np.full(rate.shape, max(c, 0.0))
    live = n_eff > 1.0
    if live.any():
        # rate > 0 wherever n_eff > 1, so f_eff > 0 there too.
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = (
                np.log(n_eff)
                * (1.0 / f_eff + 1.0 / np.log(f_eff + 1.0))
                + c
            )
        estimate[live] = np.maximum(raw[live], 0.0)
    bounds = np.where(
        np.isinf(estimate),
        config.max_rounds_per_depth,
        np.clip(
            np.ceil(estimate),
            config.min_rounds_per_depth,
            config.max_rounds_per_depth,
        ),
    )
    return bounds.astype(np.int64)


@dataclass
class RegularTreeSpec:
    """A synthetic full regular tree, flattened for the numpy kernel.

    Members are the ``arity ** depth`` addresses of the regular space
    in sorted order, so every subgroup at depth δ is the contiguous
    index block ``[sub * block, (sub+1) * block)`` and the delegates of
    a subtree are its first ``redundancy`` indices (the R smallest
    addresses — the :class:`~repro.membership.tree.MembershipTree`
    election rule).  Interest regrouping is the exact union: a row
    matches iff any member of its subtree does.
    """

    arity: int
    depth: int
    redundancy: int
    config: PmcastConfig
    loss_probability: float
    crash_fraction: float
    seed: int
    event_id: int
    max_rounds: int
    publisher: int
    own_match: np.ndarray
    tables: List[_DepthTables] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.arity ** self.depth

    @property
    def shard_size(self) -> int:
        """One depth-1 subtree per shard."""
        return self.arity ** (self.depth - 1)

    @property
    def num_shards(self) -> int:
        return self.arity

    def address(self, index: int) -> str:
        """The dotted address string of member ``index``.

        The regular space enumerates members in sorted order, so the
        index is the base-``arity`` reading of the address components —
        the inverse of the block arithmetic the kernel runs on.  Trace
        records and sampling decisions are keyed by the same strings
        the object-model engine uses.
        """
        parts = [0] * self.depth
        for position in range(self.depth - 1, -1, -1):
            parts[position] = index % self.arity
            index //= self.arity
        return ".".join(str(part) for part in parts)

    @classmethod
    def build(
        cls,
        arity: int,
        depth: int,
        own_match: np.ndarray,
        config: Optional[PmcastConfig] = None,
        sim_config: Optional[SimConfig] = None,
        publisher: int = 0,
        event_id: int = 0,
    ) -> "RegularTreeSpec":
        config = config or PmcastConfig()
        sim_config = sim_config or SimConfig()
        if depth < 2:
            raise VectorUnsupported(
                "sharded subtree simulation needs tree depth >= 2"
            )
        if arity < 2:
            raise VectorUnsupported("regular tree arity must be >= 2")
        if config.redundancy > arity:
            raise VectorUnsupported(
                f"redundancy R={config.redundancy} exceeds arity {arity}: "
                "the smallest child blocks cannot seat R delegates"
            )
        if config.local_interest_shortcut:
            raise VectorUnsupported(
                "the §3.2 shortcut is publisher-local state the regular-"
                "tree kernel does not model"
            )
        n = arity ** depth
        own_match = np.asarray(own_match, dtype=bool)
        if own_match.shape != (n,):
            raise VectorUnsupported(
                f"own_match must have shape ({n},), got {own_match.shape}"
            )
        if not 0 <= publisher < n:
            raise VectorUnsupported(f"publisher index {publisher} out of range")
        spec = cls(
            arity=arity,
            depth=depth,
            redundancy=config.redundancy,
            config=config,
            loss_probability=sim_config.loss_probability,
            crash_fraction=sim_config.crash_fraction,
            seed=sim_config.seed,
            event_id=event_id,
            max_rounds=sim_config.max_rounds,
            publisher=publisher,
            own_match=own_match,
        )
        spec.tables = spec._build_tables()
        return spec

    def _build_tables(self) -> List[_DepthTables]:
        a, d, r = self.arity, self.depth, self.redundancy
        config = self.config
        tables: List[_DepthTables] = []
        for depth in range(1, d + 1):
            block = a ** (d - depth + 1)
            child = a ** (d - depth)
            num_sub = self.size // block
            if depth < d:
                child_any = self.own_match.reshape(num_sub * a, child).any(
                    axis=1
                )
                rows = child_any.reshape(num_sub, a)
                ent = np.repeat(rows, r, axis=1)
                length = a * r
                template = (
                    np.arange(a)[:, None] * child + np.arange(r)
                ).ravel()
            else:
                ent = self.own_match.reshape(num_sub, a).copy()
                length = a
                template = np.arange(a)
            if config.threshold_h > 0:
                need = ent.sum(axis=1) < config.threshold_h
                if need.any():
                    # §5.3: conscript the first h view entries.
                    ent[need] |= np.arange(length) < config.threshold_h
            rate = ent.sum(axis=1) / length
            tables.append(
                _DepthTables(
                    block=block,
                    child=child,
                    length=length,
                    template=template,
                    eff_mask=ent,
                    rate=rate,
                    bound=_vector_bounds(length, rate, config),
                    flood=(
                        rate >= config.leaf_flood_threshold
                        if depth == d
                        else None
                    ),
                )
            )
        return tables


#: Most buffered members one gossip pass covers: a pass takes whole
#: shards while they fit (a bigger shard is a pass of its own), which
#: bounds its draw and envelope arrays — the busiest round at 100³
#: buffers ≈ 265 k members.
_PASS_BUDGET = 1 << 14


@dataclass
class TreeState:
    """The struct-of-arrays state of one sharded run, whole tree.

    Per-member arrays over the dense indices plus ``active``, the
    ascending indices of alive buffered members — all a round reads.
    A shard (one depth-1 subtree) is a seed unit, not a state unit: it
    keys the per-round gossip streams and the crash plan, so a run is
    identical however its rounds are cut into passes.
    """

    spec: RegularTreeSpec
    alive: np.ndarray       # bool (n,)
    received: np.ndarray    # bool (n,)
    buf_depth: np.ndarray   # int8 (n,), 0 = not buffered
    buf_round: np.ndarray   # int16 (n,)
    doomed: np.ndarray      # bool (n,)
    doom_round: np.ndarray  # int32 (n,)
    active: np.ndarray      # int64, ascending
    #: Doomed members by (doom round, index); round r's victims are
    #: ``victims[victim_bounds[r]:victim_bounds[r + 1]]``.
    victims: np.ndarray
    victim_bounds: np.ndarray
    #: Shards the last round's cross-shard envelopes reached: they have
    #: work this round even with nobody buffered.
    inbound: np.ndarray
    dist: np.ndarray        # (depth,) int64 distance buckets
    curve: List[int] = field(default_factory=list)
    infected: int = 1
    waves: int = 0  # shard-rounds with work
    sent: int = 0
    lost: int = 0
    crossed: int = 0
    recv: int = 0
    #: Trace plumbing of a traced run: per-kind keep masks (bool (n,)),
    #: the members' dotted addresses and the records, as ``(round,
    #: kind, process, peer, event_id, depth)`` with member indices.
    trace: Optional[Dict[str, object]] = None

    @classmethod
    def create(
        cls,
        spec: RegularTreeSpec,
        publisher_immune: bool = True,
        trace_rate: Optional[float] = None,
    ) -> "TreeState":
        """Initial state: the publisher buffered, crash plan pre-drawn.

        Each shard's plan comes from its own ``"vcrash"`` stream.
        ``publisher_immune`` mirrors the conformance harness's
        convention of never crashing the publisher (a dead publisher
        measures nothing).  ``trace_rate`` (None = untraced, 1.0 =
        every record) is the coordinator's
        :class:`~repro.obs.probes.Observer` sampling rate; sampling keys
        are the dotted address strings, so the kept subset is the one
        any other producer tracing the same processes keeps.
        """
        size, block = spec.size, spec.shard_size
        doomed = np.zeros(size, dtype=bool)
        doom_round = np.zeros(size, dtype=np.int32)
        if spec.crash_fraction > 0.0:
            for shard in range(spec.num_shards):
                rng = np.random.default_rng(
                    derive_seed(spec.seed, "vcrash", spec.event_id, shard)
                )
                span = slice(shard * block, (shard + 1) * block)
                doomed[span] = rng.random(block) < spec.crash_fraction
                doom_round[span] = rng.integers(
                    0, spec.max_rounds, block, dtype=np.int32
                )
        publisher = spec.publisher
        if publisher_immune:
            doomed[publisher] = False
        victims = np.flatnonzero(doomed)
        victims = victims[np.argsort(doom_round[victims], kind="stable")]
        state = cls(
            spec=spec,
            alive=np.ones(size, dtype=bool),
            received=np.zeros(size, dtype=bool),
            buf_depth=np.zeros(size, dtype=np.int8),
            buf_round=np.zeros(size, dtype=np.int16),
            doomed=doomed,
            doom_round=doom_round,
            active=np.array([publisher], dtype=np.int64),
            victims=victims,
            victim_bounds=np.searchsorted(
                doom_round[victims], np.arange(spec.max_rounds + 1)
            ),
            inbound=np.empty(0, dtype=np.int64),
            dist=np.zeros(spec.depth, dtype=np.int64),
        )
        # PMCAST bootstrap: buffer at depth 1, round 0.
        state.received[publisher] = True
        state.buf_depth[publisher] = 1
        if trace_rate is not None:
            addresses = [spec.address(i) for i in range(size)]
            event_id = spec.event_id
            state.trace = {
                "addresses": addresses,
                "records": [],
                **{
                    kind: np.asarray(
                        keep_mask(kind, addresses, event_id, trace_rate)
                    )
                    for kind in ("send", "loss", "receive", "deliver")
                },
                # Crash is a membership-plane record: the engine emits
                # it with event_id 0, so the sampling key matches.
                "crash": np.asarray(
                    keep_mask("crash", addresses, 0, trace_rate)
                ),
            }
            records = state.trace["records"]
            if keep("publish", addresses[publisher], event_id, trace_rate):
                records.append((0, "publish", publisher, None, event_id, 0))
            if spec.own_match[publisher] and state.trace["deliver"][publisher]:
                records.append((0, "deliver", publisher, None, event_id, 0))
        return state

    def step(
        self,
        round_index: int,
        executor=None,
        observer: Observer = NULL_OBSERVER,
    ) -> bool:
        """Play one synchronous round; False, with nothing played, when
        no shard has work (a live buffered member or inbound envelopes).

        The round is the unsharded engine's: crashes, then GOSSIP in
        passes of whole shards (:func:`gossip_pass`, handed to
        ``executor.run`` when given), each pass's intra-shard envelopes
        received at once, first in batch order wins.  Envelopes that
        crossed a shard boundary are received last, first-wins in
        (source shard, envelope) order — the start of the next round,
        before its crashes, so a round-``r`` reception is acted on in
        round ``r + 1`` as in a monolithic loop — and not at all when
        the round cap cuts the run.  ``observer.timeline`` receives the
        round's ``subtree`` ``fan_out``/``exchange`` spans.
        """
        spec = self.spec
        timeline = observer.timeline
        block = spec.shard_size
        starts = np.arange(spec.num_shards + 1) * block
        busy = np.diff(np.searchsorted(self.active, starts)) > 0
        busy[self.inbound] = True
        work = int(busy.sum())
        if not work:
            return False
        self.waves += work
        trace_round = round_index + 1
        victims = self.victims[
            self.victim_bounds[round_index]:self.victim_bounds[trace_round]
        ]
        if victims.size:
            self.alive[victims] = False
            self.active = self.active[self.alive[self.active]]
            if self.trace is not None:
                self.trace["records"].extend(
                    (trace_round, "crash", int(victim), None, 0, 0)
                    for victim in victims[self.trace["crash"][victims]]
                )
        active = self.active
        cuts = _pass_cuts(np.searchsorted(active, starts), _PASS_BUDGET)
        spans = list(zip(cuts, cuts[1:]))
        tasks = (
            (
                spec,
                active[start:stop],
                self.buf_depth[active[start:stop]],
                self.buf_round[active[start:stop]],
                round_index,
            )
            for start, stop in spans
        )
        next_active: List[np.ndarray] = [active[:0]]
        cross_dest: List[np.ndarray] = [active[:0]]
        cross_round: List[np.ndarray] = [self.buf_round[:0]]
        with timeline.span("fan_out", "subtree", trace_round):
            if executor is None:
                results = map(gossip_pass, tasks)
            else:
                results = executor.run(gossip_pass, list(tasks))
            for (start, stop), result in zip(spans, results):
                members = active[start:stop]
                new_depth, new_round, dest, depths, env_rounds, senders, kept, dist = (
                    result
                )
                self.buf_depth[members] = new_depth
                self.buf_round[members] = new_round
                next_active.append(members[new_depth > 0])
                self.dist += dist
                self.sent += int(dest.size)
                if self.trace is not None:
                    self._trace_sends(trace_round, dest, depths, senders, kept)
                if kept is not None:
                    self.lost += int(dest.size - kept.sum())
                    dest, depths, env_rounds, senders = (
                        dest[kept], depths[kept], env_rounds[kept], senders[kept]
                    )
                local = dest // block == senders // block
                next_active.append(
                    self._receive(
                        dest[local], depths[local], env_rounds[local], trace_round
                    )
                )
                cross_dest.append(dest[~local])
                cross_round.append(env_rounds[~local])
        with timeline.span("exchange", "subtree", trace_round):
            dest = np.concatenate(cross_dest)
            self.crossed += int(dest.size)
            self.inbound = np.unique(dest // block)
            if trace_round < spec.max_rounds:
                # Cross-shard gossip is depth-1 gossip.
                next_active.append(
                    self._receive(
                        dest,
                        np.ones(dest.size, dtype=np.int8),
                        np.concatenate(cross_round),
                        trace_round,
                    )
                )
            self.active = np.sort(np.concatenate(next_active), kind="stable")
        self.curve.append(self.infected)
        return True

    def _receive(
        self,
        dest: np.ndarray,
        depths: np.ndarray,
        rounds: np.ndarray,
        trace_round: int,
    ) -> np.ndarray:
        """RECEIVE for a batch of envelopes, first in batch order wins;
        returns the fresh receivers, ascending.

        ``rounds`` are the entries' round counters; ``trace_round`` is
        the simulation round the receive/deliver records carry.
        Cross-shard envelopes lose their sender in the exchange, so
        every sharded receive record carries ``peer: null``.
        """
        ok = self.alive[dest]
        if not ok.all():
            dest, depths, rounds = dest[ok], depths[ok], rounds[ok]
        self.recv += int(dest.size)
        trace = self.trace
        event_id = self.spec.event_id
        if trace is not None:
            trace["records"].extend(
                (trace_round, "receive", int(dest[at]), None, event_id,
                 int(depths[at]))
                for at in np.flatnonzero(trace["receive"][dest])
            )
        fresh = ~self.received[dest]
        dest, depths, rounds = dest[fresh], depths[fresh], rounds[fresh]
        uniq, first = np.unique(dest, return_index=True)
        self.received[uniq] = True
        self.buf_depth[uniq] = depths[first]
        self.buf_round[uniq] = rounds[first]
        self.infected += int(uniq.size)
        if trace is not None:
            delivering = trace["deliver"][uniq] & self.spec.own_match[uniq]
            trace["records"].extend(
                (trace_round, "deliver", int(member), None, event_id, 0)
                for member in uniq[delivering]
            )
        return uniq

    def _trace_sends(self, trace_round, dest, depths, senders, kept) -> None:
        """Send/loss disposition per envelope, pre-filter (the loss
        records need the dropped envelopes), keyed by the sender."""
        trace = self.trace
        if kept is None:
            emitting = trace["send"][senders]
        else:
            emitting = np.where(
                kept, trace["send"][senders], trace["loss"][senders]
            )
        event_id = self.spec.event_id
        trace["records"].extend(
            (
                trace_round,
                "send" if kept is None or kept[at] else "loss",
                int(senders[at]),
                int(dest[at]),
                event_id,
                int(depths[at]),
            )
            for at in np.flatnonzero(emitting)
        )


def _pass_cuts(bounds: np.ndarray, budget: int) -> List[int]:
    """Cut points of ``active`` into passes of whole shards.

    ``bounds[s]`` is where shard ``s`` starts in ``active``; a pass
    takes shards while it stays within ``budget`` members.
    """
    cuts = [0]
    last = 0
    for stop in bounds[1:].tolist():
        if stop - cuts[-1] > budget and last > cuts[-1]:
            cuts.append(last)
        last = stop
    if last > cuts[-1]:
        cuts.append(last)
    return cuts


def _segments(keys: np.ndarray):
    """``(key, start, stop)`` of each run of equal values in ``keys``."""
    if not keys.size:
        return []
    starts = np.flatnonzero(np.diff(keys)) + 1
    bounds = [0, *starts.tolist(), int(keys.size)]
    return [
        (int(keys[start]), start, stop)
        for start, stop in zip(bounds, bounds[1:])
    ]


def _repeats(draws: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``draws`` that hold a repeated value."""
    ordered = np.sort(draws, axis=1)
    return np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))


def _redraw(gen, draws: np.ndarray, rows: np.ndarray, n: int) -> None:
    """Redraw ``rows`` of ``draws`` (values below ``n``) until each is
    distinct.

    Rejection sampling per row conditions the uniform i.i.d. row on
    distinctness — an ordered sample without replacement.  Only the
    redrawn rows are checked again: the others cannot change.
    """
    while rows.size:
        fresh = gen.integers(0, n, size=(rows.size, draws.shape[1]))
        draws[rows] = fresh
        rows = rows[_repeats(fresh)]


def gossip_pass(task: Tuple) -> Tuple:
    """GOSSIP for the buffered members of a run of whole shards.

    ``task`` is ``(spec, members, buf_depth, buf_round, round_index)``:
    ascending alive buffered members and their buffer entries, which
    the pass advances in place.  Depth by depth, ascending, a member
    floods (§6), demotes past its round bound — picked up at the next
    depth in this same pass, the scalar cascade — or draws its fan-out.
    Shard ``s`` draws from its own ``(s, round)`` stream: per depth one
    ``integers`` matrix over its no-self rows, then one over the rows
    whose view holds the gossiper, each followed by the redraw of its
    repeating rows; last one ``random`` loss flag per envelope of its
    slice.  Plain picklable data in and out (a module-level function),
    so ``TrialExecutor.run`` can carry passes.

    Returns ``(buf_depth, buf_round, dest, depths, rounds, senders,
    kept, dist)``: the envelopes shard-major, each shard's in the
    order it drew them (depth-major, flood then no-self then self
    rows), ``kept`` their loss verdicts (None when lossless) and
    ``dist`` their §2.2 distance buckets, pre-loss.
    """
    spec, members, buf_depth, buf_round, round_index = task
    depth_count = spec.depth
    fanout = spec.config.fanout
    redundancy = spec.redundancy
    block = spec.shard_size
    gens: Dict[int, np.random.Generator] = {}

    def stream(shard: int) -> np.random.Generator:
        gen = gens.get(shard)
        if gen is None:
            gen = gens[shard] = np.random.default_rng(
                derive_seed(spec.seed, "subtree", spec.event_id, shard, round_index)
            )
        return gen

    parts: List[Tuple[np.ndarray, ...]] = []
    for depth in range(1, depth_count + 1):
        table = spec.tables[depth - 1]
        at = np.flatnonzero(buf_depth == depth)
        if at.size == 0:
            continue
        sel = members[at]
        sub = sel // table.block
        if table.flood is not None:
            flooding = table.flood[sub]
            if flooding.any():
                flooders = sel[flooding]
                sub_f = sub[flooding]
                mask = table.eff_mask[sub_f]
                mask[np.arange(flooders.size), flooders % table.block] = False
                row, col = np.nonzero(mask)
                parts.append(
                    (
                        sub_f[row] * table.block + col,
                        np.full(row.size, depth, dtype=np.int8),
                        buf_round[at[flooding]][row],
                        flooders[row],
                    )
                )
                buf_depth[at[flooding]] = 0
                at, sel, sub = at[~flooding], sel[~flooding], sub[~flooding]
                if at.size == 0:
                    continue
        live = buf_round[at] < table.bound[sub]
        expired = at[~live]
        if depth < depth_count:
            # Demotion: picked up again at depth+1 in this same pass.
            buf_depth[expired] = depth + 1
            buf_round[expired] = 0
        else:
            buf_depth[expired] = 0
        at, gossipers, sub = at[live], sel[live], sub[live]
        if at.size == 0:
            continue
        buf_round[at] += 1
        rounds = buf_round[at]
        selfrel = gossipers % table.block
        if depth < depth_count:
            child = selfrel // table.child
            remainder = selfrel % table.child
            selfpos = np.where(
                remainder < redundancy, child * redundancy + remainder, -1
            )
        else:
            selfpos = selfrel
        for has_self in (False, True):
            pick = (selfpos >= 0) == has_self
            candidates = table.length - has_self
            if candidates <= 0 or not pick.any():
                continue
            rows = int(pick.sum())
            count = min(fanout, candidates)
            if count == candidates:
                draws = np.tile(np.arange(candidates), (rows, 1))
            else:
                shards = gossipers[pick] // block
                draws = np.concatenate(
                    [
                        stream(shard).integers(
                            0, candidates, size=(stop - start, count)
                        )
                        for shard, start, stop in _segments(shards)
                    ]
                )
                bad = _repeats(draws)
                for shard, start, stop in _segments(shards[bad]):
                    _redraw(stream(shard), draws, bad[start:stop], candidates)
            if has_self:
                draws = draws + (draws >= selfpos[pick][:, None])
            sub_p = sub[pick]
            keep_env = table.eff_mask[sub_p[:, None], draws]
            shape = (rows, count)
            parts.append(
                (
                    (sub_p[:, None] * table.block + table.template[draws])[
                        keep_env
                    ],
                    np.full(int(keep_env.sum()), depth, dtype=np.int8),
                    np.broadcast_to(rounds[pick][:, None], shape)[keep_env],
                    np.broadcast_to(gossipers[pick][:, None], shape)[keep_env],
                )
            )

    if parts:
        dest, depths, rounds, senders = (
            np.concatenate(column) for column in zip(*parts)
        )
    else:
        dest = senders = members[:0]
        depths = buf_depth[:0]
        rounds = buf_round[:0]
    if members.size and members[0] // block != members[-1] // block:
        order = np.argsort(senders // block, kind="stable")
        dest, depths, rounds, senders = (
            dest[order], depths[order], rounds[order], senders[order]
        )
    # §2.2 distance accounting, pre-loss: the common prefix is the
    # number of levels whose blocks sender and receiver share (never
    # the leaf level — nobody gossips to itself).
    common = np.zeros(dest.size, dtype=np.int64)
    for level in range(1, depth_count):
        span = spec.arity ** (depth_count - level)
        common += senders // span == dest // span
    dist = np.bincount(depth_count - 1 - common, minlength=depth_count)
    kept = None
    if spec.loss_probability > 0.0 and dest.size:
        kept = np.concatenate(
            [
                stream(shard).random(stop - start) >= spec.loss_probability
                for shard, start, stop in _segments(senders // block)
            ]
        )
    return buf_depth, buf_round, dest, depths, rounds, senders, kept, dist
