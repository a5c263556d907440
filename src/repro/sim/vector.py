"""Struct-of-arrays fast paths for the simulation hot loop.

Two kernels live here, with different contracts:

**Draw-for-draw kernel** (:class:`LiveRound`) — Figure 3's round as
array passes over a :class:`RowTable`, one row per buffered (process,
event), stream-compatible with the per-node loop (one ``gossip_step``
per fire, one ``receive`` per surviving envelope).  It consumes the
*same* ``random.Random`` streams in the *same* order (a round's
destinations via one :func:`~repro.core.rate.sample_positions_each`
over flats equal to the step's :class:`~repro.core.rate.TableMatch`
objects, built in batches off per-event verdict columns, loss draws
via :meth:`~repro.sim.network.LossyNetwork.transmit_flags`, a fault
plan's through its link, which gets the round's envelopes as objects)
and writes the same ``repro.obs.trace/v1`` records in the same order
(through the same :meth:`Observer.emit <repro.obs.probes.Observer.emit>`,
so sampled alike).  Two drivers play it:
:class:`~repro.sim.runtime.GroupRuntime` (any number of events, any
schedule, any fault plan) and :func:`try_run_vectorized`, the static
run :func:`~repro.sim.engine.run_dissemination` takes by default — one
event over a :class:`~repro.sim.group.PmcastGroup`'s static columns,
whose :class:`~repro.sim.metrics.DisseminationReport`, trace and
:class:`~repro.sim.group.RunOutcome` equal the scalar reference loop's
(``SimConfig(vectorized=False)``), faulted or not.

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

Determinism rules (both kernels): no wall clock, no ``hash()`` of
interned objects, no set-iteration order — every draw is derived from
the master seed via :func:`repro.sim.rng.derive_seed`, and every loop
iterates arrays or insertion-ordered lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.addressing import Address, component_key
from repro.config import PmcastConfig, SimConfig
from repro.core.buffers import BufferedEvent
from repro.core.context import GossipContext
from repro.core.messages import Envelope, GossipMessage
from repro.core.node import shortcut_depth
from repro.core.rate import sample_positions_each
from repro.core.rounds import depth_round_bound
from repro.errors import ProtocolError, SimulationError
from repro.interests.columns import VerdictColumns
from repro.interests.events import Event
from repro.membership.failure_detector import _fit
from repro.obs.probes import NULL_OBSERVER, Observer
from repro.obs.sampling import keep, keep_mask
from repro.obs.trace import dissemination_meta
from repro.sim.crashes import CrashSchedule
from repro.sim.group import PmcastGroup, RunOutcome, assemble_pmcast_report
from repro.sim.metrics import DisseminationReport
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_seed
from repro.variants.base import crash_step, emit_dispositions

__all__ = [
    "VectorUnsupported",
    "try_run_vectorized",
    "RegularTreeSpec",
    "TreeState",
    "gossip_pass",
    "trace_sends",
    "trace_arrivals",
]


class VectorUnsupported(SimulationError):
    """The requested run cannot be expressed on the vector fast path."""


# ---------------------------------------------------------------------------
# The draw-for-draw kernel's parts: flats, passes, gather, records.
# ---------------------------------------------------------------------------

class _Wiring:
    """One view table state in dense indices, shared by every event's
    flat: ``key``, what its flats are kept under, and ``token``, the
    state they hold for; per row its interest's position in the flats'
    compiled interests (``rows``); per entry, in view order, its row's
    interest position (``interest``) and its slot (``slots``); ``pos``,
    the inverse of ``slots`` for self-exclusion (None where the run
    knows every slot's place: :meth:`of_group`); ``leaf``, whether §6's
    flood applies.

    Two producers: :meth:`of_table` reads a :class:`ViewTable`'s rows
    (the runtime's tables change under it), :meth:`of_group` slices a
    :class:`~repro.sim.group.PmcastGroup`'s columns (a static run)."""

    __slots__ = ("key", "token", "rows", "interest", "slots", "pos", "leaf", "_addresses", "_order")

    def __init__(self, key, token, rows, interest, slots, pos, leaf, addresses=None):
        self.key, self.token, self.leaf = key, token, leaf
        self.rows, self.interest, self.slots, self.pos = rows, interest, slots, pos
        # None: the slots ascend in address order.
        self._addresses = addresses
        self._order: Optional[np.ndarray] = None

    @classmethod
    def of_table(cls, table, interests: VerdictColumns, slot_of: Dict[Address, int]) -> "_Wiring":
        """``table`` as it is now, its interests compiled into ``interests``."""
        rows = table.rows()
        positions = np.array(interests.positions([row.interest for row in rows]), np.int64)
        addresses = [a for row in rows for a in row.delegates]
        if not addresses:
            raise ProtocolError(f"view of {table.prefix} has no entries")
        slots = list(map(slot_of.__getitem__, addresses))
        return cls(
            id(table), table.cache_token, positions,
            np.repeat(positions, [len(row.delegates) for row in rows]),
            np.array(slots, np.int64), dict(zip(slots, range(len(slots)))),
            table.is_leaf_level, addresses,
        )

    @classmethod
    def of_group(cls, group: PmcastGroup, table_id: int, bounds) -> "_Wiring":
        """Table ``table_id`` of ``group``, off its columns; ``bounds``
        are its ``entry_bounds`` and ``row_bounds`` as lists."""
        entries, rows = bounds
        at = slice(entries[table_id], entries[table_id + 1])
        return cls(
            table_id, 0, group.row_interest[rows[table_id]:rows[table_id + 1]],
            group.entry_interest[at], group.entries[at], None,
            group.table_depth[table_id] == group.tree.depth,
        )

    def targets(self, entries: np.ndarray) -> np.ndarray:
        """§6's flood recipients in address order: the slots of
        ``entries`` (one flat's, -1 where line 13 skips) that are kept."""
        if self._addresses is None:
            return entries[entries >= 0]
        if self._order is None:
            key = self._addresses.__getitem__
            self._order = np.array(
                sorted(range(len(self._addresses)), key=lambda i: component_key(key(i))), np.int64
            )
        order = self._order
        return self.slots[order][entries[order] >= 0]


class _Flat(NamedTuple):
    """One (view table state, event) match in dense indices — the index
    image of a :class:`repro.core.rate.TableMatch`: its ``rate``;
    ``entries``, the entries' slots in view order, -1 at every entry
    line 13 skips, so one read both names and filters a destination;
    ``floods`` whether §6's leaf flood applies, and ``targets`` its
    recipients in address order; ``pos``, its table's slot -> entry
    position; ``token``, the table state it holds for."""

    token: int
    rate: float
    floods: bool
    entries: np.ndarray
    targets: np.ndarray
    pos: Dict[int, int]


class _Flats:
    """The flat matches of one run or runtime, built a batch at a time
    off one verdict column per event.

    ``slot_of`` gives an address its dense index: a member index in a
    static run, a contact slot in the runtime.  ``interests`` compiles
    every interest a table row holds, once (its *position*) — a static
    run's are its group's, compiled with the group; an event's
    **verdict column** holds its verdict per compiled position and is
    extended, at its next read, over the positions compiled since
    (:meth:`verdicts`).  A table's :class:`_Wiring` off its rows is kept
    per table while its cache token holds (:meth:`wired`).

    :meth:`lookup` serves the flats of many (wiring, event) pairs at
    once.  A flat is kept under (wiring key, event) with the token it
    holds for: a pair whose table moved on is built again.  Every flat the
    batch builds is a set of gathers over wirings and verdict columns —
    the entry mask, the rate, §5.3's first ``h`` entries and §6's flood
    targets — none of which runs a Python frame per entry.

    The batch counts ``match_cache`` as the scalar step's
    :meth:`GossipContext.table_match
    <repro.core.context.GossipContext.table_match>` would, without
    filling its memos: a pair served from a kept flat is a table hit,
    any other a miss, whose rows count one verdict each — a miss the
    first time the event's verdict at that row's position is asked
    (``asked``, kept beside the column), a hit after.

    A flat is dropped when :meth:`forget` names its table, and with its
    event by :meth:`prune`: the event's flats and column go, unless the
    link may still carry it back (then they wait, *dormant*, until it
    lands or the link empties).  An event id published again after every
    copy of it retired and left the link is matched afresh and counted
    so.
    """

    __slots__ = (
        "_ctx", "_config", "_slot_of", "interests", "_flats", "_columns", "_dormant",
        "_wiring", "_bounds",
    )

    def __init__(
        self, ctx: GossipContext, config: PmcastConfig, slot_of: Dict[Address, int],
        interests: Optional[VerdictColumns] = None,
    ):
        self._ctx = ctx
        self._config = config
        self._slot_of = slot_of
        self.interests = VerdictColumns() if interests is None else interests
        # event_id -> {wiring key: _Flat}
        self._flats: Dict[int, Dict[int, _Flat]] = {}
        # event_id -> (verdicts, asked) over the compiled positions
        self._columns: Dict[int, List[np.ndarray]] = {}
        # event_id -> (flats, column) of an event no row buffers
        self._dormant: Dict[int, tuple] = {}
        self._wiring: Dict[int, _Wiring] = {}
        # entry count -> {rate -> line 7's bound}: the bound depends on
        # the table through its entry count only.
        self._bounds: Dict[int, Dict[float, int]] = {}

    def forget(self, table) -> None:
        """Drop every flat of ``table`` (its match-cache entries went)."""
        self._wiring.pop(id(table), None)
        for per_event in chain(self._flats.values(), (d[0] for d in self._dormant.values())):
            per_event.pop(id(table), None)

    def prune(self, live: set, carried: bool) -> None:
        """Drop the flats and verdict column of every event not in
        ``live``; ``carried``: the link may still deliver one of them,
        so they wait dormant instead."""
        for event_id in [e for e in self._dormant if e in live]:
            self._flats[event_id], column = self._dormant.pop(event_id)
            if column is not None:
                self._columns[event_id] = column
        if not carried:
            self._dormant.clear()
        for event_id in [e for e in set(self._flats).union(self._columns) if e not in live]:
            flats, column = self._flats.pop(event_id, {}), self._columns.pop(event_id, None)
            if carried:
                self._dormant[event_id] = flats, column

    def round_bound(self, size: int, rate: float) -> int:
        """Line 7's bound for an entry buffered at ``rate`` in a view of
        ``size`` entries."""
        bounds = self._bounds.setdefault(size, {})
        bound = bounds.get(rate)
        if bound is None:
            bound = bounds[rate] = depth_round_bound(size, rate, self._config)
        return bound

    def verdicts(self, event: Event) -> np.ndarray:
        """``event``'s verdict per compiled interest position."""
        return self._column(event)[0]

    def _column(self, event: Event) -> List[np.ndarray]:
        column = self._columns.get(event.event_id)
        if column is None:
            column = self._columns[event.event_id] = [np.zeros(0, bool), np.zeros(0, bool)]
        done = len(column[0])
        if done < len(self.interests):
            fresh = self.interests.evaluate(event, done)
            column[0] = np.concatenate((column[0], fresh))
            column[1] = np.concatenate((column[1], np.zeros(len(fresh), bool)))
        return column

    def wired(self, table) -> _Wiring:
        """``table``'s wiring, kept while its cache token holds."""
        wiring = self._wiring.get(id(table))
        if wiring is None or wiring.token != table.cache_token:
            wiring = _Wiring.of_table(table, self.interests, self._slot_of)
            self._wiring[id(table)] = wiring
        return wiring

    def lookup(self, wirings: Sequence[_Wiring], events: Sequence[Event]) -> List[_Flat]:
        """The flat of each (``wirings[k]``, ``events[k]``) pair, the
        missing ones built in one batch."""
        flats: List[Optional[_Flat]] = []
        todo: List[int] = []
        for k, (wiring, event) in enumerate(zip(wirings, events)):
            per_event = self._flats.get(event.event_id)
            if per_event is None:
                per_event = self._flats[event.event_id] = {}
            flat = per_event.get(wiring.key)
            if flat is None or flat.token != wiring.token:
                todo.append(k)
                flat = None
            flats.append(flat)
        stats = self._ctx.cache_stats
        stats.table_hits += len(flats) - len(todo)
        stats.table_misses += len(todo)
        if todo:
            todo.sort(key=lambda k: events[k].event_id)
            built = self._build([wirings[k] for k in todo], [events[k] for k in todo])
            for k, flat in zip(todo, built):
                flats[k] = self._flats[events[k].event_id][wirings[k].key] = flat
        return flats

    def _build(self, wirings: List[_Wiring], events: List[Event]) -> List[_Flat]:
        """The flats of (``wirings[k]``, ``events[k]``), events adjacent."""
        stats = self._ctx.cache_stats
        sizes = np.array([len(w.slots) for w in wirings], np.int64)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        interest = np.concatenate([w.interest for w in wirings])
        natural = np.empty(len(interest), bool)
        first = 0
        for last in range(1, len(events) + 1):
            if last < len(events) and events[last].event_id == events[first].event_id:
                continue
            verdicts, asked = self._column(events[first])
            rows = np.concatenate([w.rows for w in wirings[first:last]])
            fresh = np.unique(rows[~asked[rows]])
            asked[fresh] = True
            stats.verdict_misses += len(fresh)
            stats.verdict_hits += len(rows) - len(fresh)
            span = slice(starts[first], ends[last - 1])
            natural[span] = verdicts[interest[span]]
            first = last
        key = np.repeat(np.arange(len(wirings)), sizes)
        effective = natural
        h = self._config.threshold_h
        if h > 0:
            # §5.3: where fewer than h entries match, the first h do too.
            short = np.bincount(key, natural, len(wirings)) < h
            effective = natural | (short[key] & (np.arange(len(key)) - starts[key] < h))
        rate = (np.bincount(key, effective, len(wirings)) / sizes).tolist()
        entries = np.where(effective, np.concatenate([w.slots for w in wirings]), -1)
        threshold = self._config.leaf_flood_threshold
        out = []
        for k, wiring in enumerate(wirings):
            mine = entries[starts[k]:ends[k]]
            floods = wiring.leaf and rate[k] >= threshold
            targets = wiring.targets(mine) if floods else _NONE
            out.append(_Flat(wiring.token, rate[k], floods, mine, targets, wiring.pos))
        return out


#: No flood targets.
_NONE = np.zeros(0, np.int64)


class _LiveColumns:
    """The flats one kernel run reads, as columns over dense flat ids,
    for :func:`_settle` and :func:`_destinations`.

    A row's flat is the (table, event) flat of its slot's table at its
    depth: ``table_ids`` names each slot's table per depth and
    ``wiring_of`` gives a table id's :class:`_Wiring`.  The (table id,
    event) pairs a call of :meth:`at` meets for the first time are asked
    of :meth:`_Flats.lookup` together; ``pool`` holds every flat's
    entries (slots, -1 where line 13 skips) then its flood targets.  Per
    flat id: ``start``, ``size``, ``flood_count``, ``floods``, ``rate``
    and ``bound`` (line 7's at its rate; -1 where it floods); ``pos``,
    its table's slot -> entry position.  ``own``, where given, is every
    slot's entry position in its table per depth (-1: none).

    The caller owns the columns' lifetime: the tables ``wiring_of`` names
    must not change while they are read — a static run keeps one for the
    run, the runtime takes one per round.
    """

    def __init__(self, flats: _Flats, rows: "RowTable", table_ids, wiring_of, own=None):
        self._flats, self._rows = flats, rows
        self._table_ids, self._wiring_of = table_ids, wiring_of
        # The event columns some row buffers, ascending; per key table id
        # * len(events) + place among them: its flat id, -1 until asked.
        self._events = np.flatnonzero(np.bincount(rows.event))
        self._flat = np.full((int(table_ids.max()) + 1) * len(self._events), -1, np.int64)
        # Per (slot, depth): the slot's entry position in its table (-1:
        # not an entry), -2 until asked.
        self._own = np.full(table_ids.shape, -2, np.int64) if own is None else own
        self.pos: List[Dict[int, int]] = []
        self.pool = self.start = self.size = self.flood_count = self.bound = np.empty(0, np.int64)
        self.floods, self.rate = np.empty(0, bool), np.empty(0)

    def __len__(self) -> int:
        return len(self.pos)

    def at(self, rows: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """The flat ids of ``rows`` at ``depths``."""
        table, n = self._rows, len(self._events)
        place = np.searchsorted(self._events, table.event[rows])
        keys = self._table_ids[table.slot[rows], depths - 1] * n + place
        ids = self._flat[keys]
        missing = ids < 0
        if missing.any():
            new = np.unique(keys[missing])
            cols, events = self._events[new % n].tolist(), table.events
            flats = self._flats.lookup(
                list(map(self._wiring_of, (new // n).tolist())), [events[col] for col in cols]
            )
            self._flat[new] = np.arange(len(self), len(self) + len(new))
            self._add(flats)
            ids = self._flat[keys]
        return ids

    def bound_at(self, ids: np.ndarray, rate: np.ndarray) -> np.ndarray:
        """Line 7's bound of rows at flats ``ids`` buffered at ``rate``:
        the flat's own, unless a refresh moved the flat's rate off the
        row's (a ``(entry count, rate)`` memo)."""
        bound = self.bound[ids]
        odd = np.flatnonzero(rate != self.rate[ids])
        sizes = self.size[ids[odd]].tolist()
        for at, size, row_rate in zip(odd.tolist(), sizes, rate[odd].tolist()):
            bound[at] = self._flats.round_bound(size, row_rate)
        return bound

    def own(self, slots: np.ndarray, depths: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Where each of ``slots`` is an entry of its flat ``ids`` at
        ``depths`` (-1: it is not), read once per (slot, depth)."""
        held = self._own[slots, depths - 1]
        asked = np.flatnonzero(held == -2)
        if len(asked):
            pos = self.pos
            held[asked] = [
                pos[flat].get(slot, -1)
                for flat, slot in zip(ids[asked].tolist(), slots[asked].tolist())
            ]
            self._own[slots[asked], depths[asked] - 1] = held[asked]
        return held

    def _add(self, flats: List[_Flat]) -> None:
        """Columns and pool slots for the next flat ids, ``flats``."""
        size = np.array([len(flat.entries) for flat in flats], np.int64)
        flood_count = np.array([len(flat.targets) for flat in flats], np.int64)
        bound = [
            -1 if flat.floods else self._flats.round_bound(len(flat.entries), flat.rate)
            for flat in flats
        ]
        tails = {
            "pool": np.concatenate([part for f in flats for part in (f.entries, f.targets)]),
            "start": len(self.pool) + np.cumsum(size + flood_count) - size - flood_count,
            "size": size, "flood_count": flood_count, "bound": np.array(bound, np.int64),
            "floods": np.array([flat.floods for flat in flats], bool),
            "rate": np.array([flat.rate for flat in flats], float),
        }
        for name, tail in tails.items():
            setattr(self, name, np.concatenate((getattr(self, name), tail)))
        self.pos += [flat.pos for flat in flats]


def _settle(flats: _LiveColumns, active, depth, round_, rate, leaf: int) -> Tuple[np.ndarray, ...]:
    """Figure 3's GOSSIP task for all of ``active`` at once, settling
    their buffered ``depth``, ``round_`` and ``rate`` in place in at most
    ``leaf`` masked passes (§6 flood, gossip, demotion or retirement).
    ``flats`` looks rows up by (``active`` row, depth).  Returns per row
    whether it gossips, whether it floods, its last flat.
    """
    gossips, floods = np.zeros((2, len(active)), bool)
    flat = np.empty(len(active), np.int64)
    todo = np.arange(len(active))
    ids = flats.at(active, depth)
    while len(todo):
        flat[todo] = ids
        flooding = flats.floods[ids]
        floods[todo[flooding]] = True
        todo, ids = todo[~flooding], ids[~flooding]
        going = round_[todo] < flats.bound_at(ids, rate[todo])
        gossips[todo[going]] = True
        round_[todo[going]] += 1
        todo = todo[~going]
        todo = todo[depth[todo] < leaf]
        depth[todo] += 1
        round_[todo] = 0
        ids = flats.at(active[todo], depth[todo])
        rate[todo] = flats.rate[ids]
    return gossips, floods, flat


def _destinations(flats: _LiveColumns, rng, fanout: int, gossips, floods, flat, own, senders):
    """Per envelope of rows that gossip or flood at flats ``flat``, in
    row order: destination, row and sender (``senders[row]``, at entry
    position ``own[row]``, -1 if none).  One ``sample_positions_each``
    draws every gossip; entries line 13 skips and sends to oneself drop."""
    size = flats.size[flat] - (own >= 0)
    count = np.where(gossips, np.minimum(size, fanout), floods * flats.flood_count[flat])
    # One candidate per draw or flood target: its row and its place in the row.
    row = np.repeat(np.arange(len(flat)), count)
    place = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    drawn = np.flatnonzero(gossips[row])
    sizes = size[gossips & (size > 0)].tolist()
    j = np.array(sample_positions_each(rng, sizes, fanout), int)
    skip = own[row[drawn]]
    place[drawn] = j + ((skip >= 0) & (j >= skip))
    base = flats.start[flat] + np.where(floods, flats.size[flat], 0)
    dest = flats.pool[base[row] + place]
    sender = senders[row]
    kept = (dest >= 0) & (dest != sender)
    return dest[kept], row[kept], sender[kept]


def trace_sends(emit, now, addresses, dest, sender, depth, event_id, flags) -> None:
    """The kernel's send/loss records on the ε network: one per
    envelope, in send order, before any reception.  Per envelope:
    ``dest`` and ``sender`` (indices into ``addresses``), its message's
    ``depth`` and ``event_id``; ``flags`` is the link's verdict mask
    (None: all sent)."""
    verdicts = repeat(True) if flags is None else flags.tolist()
    for to, by, at_depth, eid, kept in zip(dest, sender, depth, event_id, verdicts):
        emit(
            now, "send" if kept else "loss", addresses[by],
            peer=addresses[to], event_id=eid, depth=at_depth,
        )


def trace_arrivals(emit, now, addresses, dest, sender, depth, event_id, at, delivering) -> None:
    """Per arrival, in send order, a receive and, at a first reception
    that delivers, a deliver: ``at`` are the positions of the envelopes
    (the columns of :func:`trace_sends`) that reached a live receiver,
    ``delivering`` the indices into ``at`` of those that delivered."""
    for n, i in enumerate(at):
        eid, receiver = event_id[i], addresses[dest[i]]
        emit(
            now, "receive", receiver, peer=addresses[sender[i]],
            event_id=eid, depth=depth[i],
        )
        if n in delivering:
            emit(now, "deliver", receiver, event_id=eid)


# ---------------------------------------------------------------------------
# The draw-for-draw kernel's round: LiveRound over a RowTable.
# ---------------------------------------------------------------------------

#: A :class:`RowTable`'s columns with one entry per row.
_ROW_COLUMNS = ("slot", "event", "depth", "rate", "round", "seq")


class Buffered(tuple):
    """``(depth, BufferedEvent)`` pairs in ``DepthBuffers`` order."""

    __slots__ = ()

    def holds(self, event: Event) -> bool:
        """Figure 3 line 20: is ``event`` buffered at any depth?"""
        return any(entry.event.event_id == event.event_id for __, entry in self)


class RowTable:
    """:class:`~repro.sim.runtime.GroupRuntime`'s event state over
    contact slots: every process's ``gossips[1..d]`` at once.

    One row per buffered (slot, event): ``slot``, ``event`` (a column
    of :attr:`events`, by id), ``depth``, ``rate``, ``round`` and
    ``seq``, a stamp taken at each add or demotion, so a bucket in
    ``DepthBuffers`` order is its rows in ``seq`` order.  Per slot:
    ``sent``, ``receptions``, the process's own ``interests`` (written
    through :meth:`set_interest`) with ``interest_at``, each one's
    position among a :class:`_Flats`' compiled interests once read (-1
    before), and slot × event flags ``received`` (line 20's seen-set) and
    ``delivered``; ``wanted``, slot × event interest verdicts a static
    run knows before it starts (None: HPDELIVER reads each process's
    interest).
    """

    def __init__(self) -> None:
        for name in _ROW_COLUMNS:
            setattr(self, name, np.zeros(0, float if name == "rate" else np.int64))
        self._stamps = 0
        # Grown by fit, which gives each its own array.
        self.sent = self.receptions = self.interest_at = np.zeros(0, np.int64)
        self.received = self.delivered = np.zeros((0, 0), bool)
        self.interests: List = []
        self.wanted: Optional[np.ndarray] = None
        self.events: List[Event] = []
        self.event_col: Dict[int, int] = {}
        # The rows in bucket order, and each slot's range of them; None
        # once the rows changed.
        self._order: Optional[Tuple[np.ndarray, List[int]]] = None

    def fit(self, slots: int, events: int = 0) -> None:
        """Columns for slots ``0 .. slots - 1`` and events ``0 .. events - 1``."""
        if slots > len(self.sent):
            self._order = None  # its slot ranges end at the old count
        self.sent = _fit(self.sent, (slots,), 0)
        self.receptions = _fit(self.receptions, (slots,), 0)
        self.interest_at = _fit(self.interest_at, (slots,), -1)
        self.received = _fit(self.received, (slots, events), False)
        self.delivered = _fit(self.delivered, (slots, events), False)
        self.interests += [None] * (len(self.sent) - len(self.interests))

    def column(self, event: Event) -> int:
        """``event``'s column, added on its first ask."""
        col = self.event_col.get(event.event_id)
        if col is None:
            col = self.event_col[event.event_id] = len(self.events)
            self.events.append(event)
            self.fit(len(self.sent), col + 1)
        return col

    def stamp(self, count: int) -> np.ndarray:
        """The next ``count`` stamps, ascending."""
        self._stamps += count
        return np.arange(self._stamps - count, self._stamps)

    def add(self, slots, cols, depths, rates, rounds) -> None:
        """Buffer event ``cols[i]`` at slot ``slots[i]`` (each at the end
        of its bucket, in the order given)."""
        tails = (slots, cols, depths, rates, rounds, self.stamp(len(slots)))
        for name, tail in zip(_ROW_COLUMNS, tails):
            held = getattr(self, name)
            setattr(self, name, np.concatenate((held, np.asarray(tail, held.dtype))))
        self._order = None

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows where ``mask`` is False."""
        for name in _ROW_COLUMNS:
            setattr(self, name, getattr(self, name)[mask])
        self._order = None

    def clear(self, slot: int) -> None:
        """Forget what slot ``slot`` buffers, saw and counted."""
        self.keep(self.slot != slot)
        self.sent[slot] = self.receptions[slot] = 0
        self.received[slot] = self.delivered[slot] = False

    def set_interest(self, slot: int, interest) -> None:
        """Slot ``slot``'s process matches events against ``interest``
        from now on."""
        self.interests[slot] = interest
        self.interest_at[slot] = -1

    def wants(self, slots: np.ndarray, cols: np.ndarray, flats: "_Flats") -> List[bool]:
        """HPDELIVER's verdict per (slot, event) pair: ``wanted`` where
        given, else the process's own interest as it is now, read off
        the event's verdict column in ``flats``."""
        if self.wanted is not None:
            return self.wanted[slots, cols].tolist()
        unread = np.unique(slots[self.interest_at[slots] < 0]).tolist()
        self.interest_at[unread] = flats.interests.positions([self.interests[s] for s in unread])
        at = self.interest_at[slots]
        verdicts = np.zeros(len(slots), bool)
        for col in np.unique(cols).tolist():
            mine = cols == col
            verdicts[mine] = flats.verdicts(self.events[col])[at[mine]]
        return verdicts.tolist()

    def live_events(self) -> Set[int]:
        """The ids of the events some row buffers."""
        events = self.events
        return {events[col].event_id for col in np.unique(self.event).tolist()}

    def buffered(self, slot: int) -> Buffered:
        """Slot ``slot``'s rows in bucket order: depth, then ``seq``."""
        if self._order is None:
            order = np.lexsort((self.seq, self.depth, self.slot))
            bounds = np.searchsorted(self.slot[order], np.arange(len(self.sent) + 1))
            self._order = order, bounds.tolist()
        order, bounds = self._order
        at = order[bounds[slot]:bounds[slot + 1]]
        events = self.events
        return Buffered(
            (depth, BufferedEvent(events[col], rate, round_))
            for depth, col, rate, round_ in zip(
                self.depth[at].tolist(), self.event[at].tolist(),
                self.rate[at].tolist(), self.round[at].tolist(),
            )
        )


class LiveEmission(NamedTuple):
    """One live round's envelopes, in send order, and the messages
    behind them.

    Per envelope: ``dest`` and ``sender`` (contact slots) and ``row``,
    its message.  Per message, one GOSSIP message as it was sent:
    ``event`` (its column in ``events``, a :class:`RowTable`'s),
    ``depths``, ``rates`` and ``rounds``.
    """

    dest: np.ndarray
    sender: np.ndarray
    row: np.ndarray
    event: np.ndarray
    depths: np.ndarray
    rates: np.ndarray
    rounds: np.ndarray
    events: List[Event]

    def columns(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Per envelope, as lists: ``dest``, ``sender``, its message's
        depth and event id — the columns :func:`trace_sends` and
        :func:`trace_arrivals` take."""
        ids = [self.events[col].event_id for col in self.event.tolist()]
        return (
            self.dest.tolist(),
            self.sender.tolist(),
            self.depths[self.row].tolist(),
            [ids[k] for k in self.row.tolist()],
        )


class LiveArrivals(NamedTuple):
    """What the exchange applied: ``at``, the envelopes that reached a
    live receiver, in send order; ``fresh``, the indices into ``at`` of
    the first receptions, and ``delivered`` whether each one was
    HPDELIVERed; ``undeliverable``, the survivors addressed to a crashed
    or departed process."""

    at: np.ndarray
    fresh: np.ndarray
    delivered: List[bool]
    undeliverable: int


class LiveRound:
    """Figure 3's round over a :class:`RowTable`, stream-compatible with
    the per-node loop (one ``gossip_step`` per fire, one ``receive`` per
    surviving envelope): :class:`~repro.sim.runtime.GroupRuntime`'s
    rounds and :func:`try_run_vectorized`'s.

    **Passes.**  :meth:`fan_out` settles the rows of the walked slots in
    :func:`_settle`'s passes (§6 flood, gossip with round + 1, demotion
    or retirement), once per fire.  A demoted row is stamped anew, in
    the order the loop appends it to the next bucket: by walk position,
    then the depth it started the fire at, deepest first, then its old
    ``seq``.  The rows that send are then ordered by (walk position,
    fire, depth, ``seq``): a visit's buckets depth-ascending, each in
    bucket order, a demoted entry met again at its new depth — the order
    of the loop's walk.  A destination is kept where its flat holds a
    slot (-1 where line 13 skips the entry).

    **The link.**  :meth:`transmit` is the round's one fork.  The ε
    network draws one verdict per envelope (``transmit_flags``), which
    :meth:`exchange` applies.  A link that decides envelope by envelope
    gets the emission as objects (:meth:`envelopes`), and what it
    returns, releases from earlier rounds included, is applied as an
    emission of its own (:meth:`carried`).

    **Flats.**  ``flats``, one :class:`_Flats` over slots, is kept
    across rounds; the runtime has it forget a table it refreshes and
    prunes it to the events some row still buffers.  A round reads them
    through the :class:`_LiveColumns` its driver passes (:meth:`columns`),
    whose every :meth:`_LiveColumns.at` call builds the flats it first
    meets in one batch; :meth:`publish` takes its rate through the same
    cache, and HPDELIVER's verdicts (:meth:`RowTable.wants`) are read off
    its verdict columns.  A lookup served from the columns counts the
    ``match_cache`` table hit the scalar step's lookup would, as one
    served from a flat does, so the counters read per round what the
    loop's read; neither of the context's memos is filled.

    ``slot_of`` and ``addresses`` map addresses to slots and back.  The
    checks the objects make run on the arrays: ``GossipMessage``'s
    fields once per message, ``receive``'s depth range per arrival.
    """

    __slots__ = ("_ctx", "_config", "_depth", "_slot_of", "_addresses", "flats", "rows")

    def __init__(
        self, ctx: GossipContext, config: PmcastConfig, slot_of: Dict[Address, int],
        addresses: List[Address], tree_depth: int, rows: RowTable,
        interests: Optional[VerdictColumns] = None,
    ):
        self._ctx = ctx
        self._config = config
        self._depth = tree_depth
        self._slot_of = slot_of
        self._addresses = addresses
        self.flats = _Flats(ctx, config, slot_of, interests)
        self.rows = rows

    def columns(self, table_ids: np.ndarray, wiring_of, own=None) -> _LiveColumns:
        """Flat columns over the events some row buffers now and the tables
        ``table_ids`` names per (slot, depth), ``wiring_of`` giving a
        table id's :class:`_Wiring` (``own``: see :class:`_LiveColumns`)."""
        return _LiveColumns(self.flats, self.rows, table_ids, wiring_of, own)

    def publish(self, slot: int, address: Address, views, event: Event, wire=None) -> bool:
        """PMCAST (Figure 3 lines 24–25) at live slot ``slot``, whose
        tables by depth are ``views``: ``event`` is received, delivered
        if the process's interest matches, and buffered at the root, or
        the §3.2 shortcut's depth, at that table's rate — read off
        ``wire(depth)``, its :class:`_Wiring` (None: wired off
        ``views``).  Returns whether it delivered."""
        rows = self.rows
        col = rows.column(event)
        if rows.received[slot, col]:
            raise ProtocolError(f"event {event.event_id} already published")
        depth = 1
        if self._config.local_interest_shortcut:
            depth = shortcut_depth(address, views, event)
        wiring = self.flats.wired(views[depth]) if wire is None else wire(depth)
        rate = self.flats.lookup([wiring], [event])[0].rate
        delivers = rows.wants(np.array([slot]), np.array([col]), self.flats)[0]
        rows.received[slot, col] = True
        rows.delivered[slot, col] = delivers
        rows.add([slot], [col], [depth], [rate], [0])
        return delivers

    def fan_out(
        self, walk: np.ndarray, fires: Optional[np.ndarray], columns: _LiveColumns
    ) -> LiveEmission:
        """GOSSIP for the slots of ``walk`` (live, in walk order), each
        ``fires[k]`` times (None: once), their flats read off
        ``columns``.  One ``sample_positions_each`` after the passes
        draws, in send order, what one ``sample_positions`` per gossip
        would: no draw feeds the passes."""
        rows, leaf = self.rows, self._depth
        matched = len(columns)
        place = np.full(len(rows.sent), -1, np.int64)
        place[walk] = np.arange(len(walk))
        visit = place[rows.slot]
        todo = np.flatnonzero(visit >= 0)
        if fires is not None:
            todo = todo[fires[visit[todo]] > 0]
        kept = np.ones(len(visit), bool)
        lookups = fire = 0
        # Per pass, the rows that sent: row, fire, floods, flat, depth,
        # rate, round and seq as sent.
        parts = []
        while True:
            depth, round_, rate = rows.depth[todo], rows.round[todo], rows.rate[todo]
            start, seq = depth.copy(), rows.seq[todo]
            gossips, floods, flat = _settle(columns, todo, depth, round_, rate, leaf)
            moved = np.flatnonzero(depth > start)
            moved = moved[np.lexsort((seq[moved], -start[moved], visit[todo[moved]]))]
            seq[moved] = rows.stamp(len(moved))
            rows.depth[todo], rows.round[todo] = depth, round_
            rows.rate[todo], rows.seq[todo] = rate, seq
            # The loop looks up once per entry it meets, and a demoted
            # entry twice more: as it moves, and as it is met below.
            lookups += len(todo) + 2 * int((depth - start).sum())
            sends = gossips | floods
            parts.append((todo[sends], np.full(np.count_nonzero(sends), fire), *(
                column[sends] for column in (floods, flat, depth, rate, round_, seq)
            )))
            kept[todo[~gossips]] = False
            fire += 1
            todo = todo[gossips]
            todo = todo[fires[visit[todo]] > fire] if fires is not None else todo[:0]
            if not len(todo):
                break
        self._ctx.cache_stats.table_hits += lookups - (len(columns) - matched)

        if len(parts) > 1:
            parts = [tuple(map(np.concatenate, zip(*parts)))]
        at, fired, flood, flat, depth, rate, round_, seq = parts[0]
        key = visit[at]
        if np.any(key[1:] <= key[:-1]):  # not one sending row per slot in walk order
            order = np.lexsort((seq, depth, fired, key))
            at, flood, flat, depth, rate, round_ = (
                column[order] for column in (at, flood, flat, depth, rate, round_)
            )
        slot, event = rows.slot[at], rows.event[at]
        gossip = ~flood
        own = np.full(len(at), -1, np.int64)
        own[gossip] = columns.own(slot[gossip], depth[gossip], flat[gossip])
        dest, row, sender = _destinations(
            columns, self._ctx.rng, self._config.fanout, gossip, flood, flat, own, slot
        )
        per_row = np.bincount(row, minlength=len(at))
        messages = np.flatnonzero(per_row)
        rows.sent += np.bincount(sender, minlength=len(rows.sent))
        rows.keep(kept)
        emission = LiveEmission(
            dest, sender, (np.cumsum(per_row > 0) - 1)[row], event[messages],
            depth[messages], rate[messages], round_[messages], rows.events,
        )
        self._check(emission)
        return emission

    @staticmethod
    def _check(emission: LiveEmission) -> None:
        """What ``GossipMessage`` checks once per message (the gather
        drops what ``Envelope`` would refuse: a send to oneself)."""
        rate = emission.rates
        bad = ~((rate >= 0.0) & (rate <= 1.0))
        if bad.any():
            raise ProtocolError(f"matching rate {rate[bad][0].item()} not in [0, 1]")
        round_ = emission.rounds
        if (round_ < 0).any():
            raise ProtocolError(f"round {round_[round_ < 0][0].item()} must be >= 0")
        depth = emission.depths
        if (depth < 1).any():
            raise ProtocolError(f"depth {depth[depth < 1][0].item()} must be >= 1")

    def envelopes(self, emission: LiveEmission) -> List[Envelope]:
        """The emission as the per-node loop sends it, for a link that
        decides envelope by envelope: one ``Envelope`` per entry, in send
        order, its message's ``GossipMessage`` as sent.  Both validate
        themselves."""
        addresses, events, event = self._addresses, emission.events, emission.event.tolist()
        depths, rates, rounds = (
            column.tolist() for column in (emission.depths, emission.rates, emission.rounds)
        )
        out: List[Envelope] = []
        last = -1  # messages are in send order, so a message's envelopes are adjacent
        for to, by, row in zip(
            emission.dest.tolist(), emission.sender.tolist(), emission.row.tolist()
        ):
            if row != last:
                last = row
                message = GossipMessage(
                    events[event[row]], rates[row], rounds[row], depths[row], addresses[by],
                )
            out.append(Envelope(addresses[to], message))
        return out

    def carried(self, survivors: List[Envelope]) -> LiveEmission:
        """What a link returned, as the emission :meth:`exchange` applies:
        one message per survivor, in the order given — this round's
        envelopes, then any the link released from an earlier round."""
        messages = [envelope.message for envelope in survivors]
        slot_of, column = self._slot_of, self.rows.event_col.__getitem__
        return LiveEmission(
            np.array([slot_of[envelope.destination] for envelope in survivors], np.int64),
            np.array([slot_of[message.sender] for message in messages], np.int64),
            np.arange(len(messages)),
            np.array([column(message.event.event_id) for message in messages], np.int64),
            np.array([message.depth for message in messages], np.int64),
            np.array([message.rate for message in messages], float),
            np.array([message.round for message in messages], np.int64),
            self.rows.events,
        )

    def transmit(
        self, emission: LiveEmission, link, receiving: np.ndarray, emit, now: int
    ) -> Tuple[LiveEmission, LiveArrivals]:
        """Send ``emission`` over ``link`` and :meth:`exchange` what it
        lets through at the slots ``receiving``; returns the emission
        applied and its arrivals.

        The link is the round's one fork.  The ε network draws a verdict
        per envelope (``transmit_flags``).  A fault plan decides envelope
        by envelope: the emission crosses it as objects
        (:meth:`envelopes`), and what it returns — this round's
        survivors, then whatever it released from an earlier round — is
        the emission applied (:meth:`carried`).  ``emit`` (None:
        untraced) gets, stamped ``now``, each envelope's send or loss
        record (none for one the plan diverted: it wrote a ``fault_*``),
        then each arrival's receive and deliver."""
        faulted = not hasattr(link, "transmit_flags")
        if faulted:
            envelopes = self.envelopes(emission)
            survivors = link.transmit(envelopes)
            if emit is not None:
                emit_dispositions(
                    envelopes, {id(envelope) for envelope in survivors},
                    link.last_diverted, emit, now,
                )
            emission, flags = self.carried(survivors), None
        else:
            flags = link.transmit_flags(len(emission.dest))
        arrivals = self.exchange(emission, flags, receiving)
        if emit is not None:
            columns = (emit, now, self._addresses, *emission.columns())
            if not faulted:
                trace_sends(*columns, flags)
            trace_arrivals(
                *columns, arrivals.at.tolist(),
                set(compress(arrivals.fresh.tolist(), arrivals.delivered)),
            )
        return emission, arrivals

    def exchange(
        self, emission: LiveEmission, flags: Optional[np.ndarray], receiving: np.ndarray
    ) -> LiveArrivals:
        """RECEIVE for every envelope the link kept (``flags``, None =
        all) that reaches a slot ``receiving`` (there and alive).  Every
        arrival counts one reception; the first in send order to a
        (slot, event) pair not yet received buffers the event at the end
        of its bucket, and HPDELIVER takes its verdict (:meth:`RowTable.wants`)."""
        rows = self.rows
        dest = emission.dest
        kept = np.ones(len(dest), bool) if flags is None else flags
        at = np.flatnonzero(kept & receiving[dest])
        receiver = dest[at]
        message = emission.row[at]
        depths = emission.depths[message]
        foreign = (depths < 1) | (depths > self._depth)
        if foreign.any():
            raise ProtocolError(f"gossip for foreign depth {depths[foreign][0].item()}")
        rows.receptions += np.bincount(receiver, minlength=len(rows.receptions))
        cols = emission.event[message]
        unseen = np.flatnonzero(~rows.received[receiver, cols])
        __, first = np.unique(receiver[unseen] * len(rows.events) + cols[unseen], return_index=True)
        fresh = np.sort(unseen[first])
        slots, cols, message = receiver[fresh], cols[fresh], message[fresh]
        delivered = rows.wants(slots, cols, self.flats)
        rows.received[slots, cols] = True
        rows.delivered[slots, cols] = delivered
        rows.add(
            slots, cols, emission.depths[message], emission.rates[message],
            emission.rounds[message],
        )
        return LiveArrivals(at, fresh, delivered, int(np.count_nonzero(kept)) - len(at))


# ---------------------------------------------------------------------------
# The static run: one event over a group's columns, on the live round.
# ---------------------------------------------------------------------------

def try_run_vectorized(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    sim_config: SimConfig,
    ctx: GossipContext,
    link: LossyNetwork,
    crash_schedule: CrashSchedule,
    observer: Observer = NULL_OBSERVER,
) -> Tuple[DisseminationReport, RunOutcome]:
    """Run one dissemination on :class:`LiveRound`, stream-compatible
    with the reference loop, fault plan or not: its report and outcome.

    A slot is a member index; the event is one row per process that
    buffers it, the publisher's, then each receiver's in the order of
    its first arrival.  :class:`RowTable` keeps rows in add order, so
    the walk — the rows of live members — is the reference loop's
    insertion-ordered active set.  One :class:`_LiveColumns` serves the
    run, wired off the group's columns (:meth:`_Wiring.of_group`): the
    group never changes, and no table object is read but the
    publisher's path, for the §3.2 shortcut.  ``observer.registry`` gets
    the run's ``vector.*`` counters, ``observer.timeline`` the
    reference loop's ``engine`` spans — both out of band.
    """
    registry, timeline = observer.registry, observer.timeline
    addresses = group.addresses()
    n, tree_depth = len(addresses), group.tree.depth
    index_of, components = group.index_of, group.components
    alive = group.alive.copy()
    rows = RowTable()
    rows.fit(n)
    kernel = LiveRound(ctx, group.config, index_of, addresses, tree_depth, rows, group.verdicts)
    # Ground truth off the group's compiled interests: the event's
    # verdict column, which its flats read too.
    own_match = kernel.flats.verdicts(event)[group.interest_at]
    rows.wanted = own_match[:, None]
    bounds = group.entry_bounds.tolist(), group.row_bounds.tolist()

    def wiring_of(table_id: int) -> _Wiring:
        return _Wiring.of_group(group, table_id, bounds)

    pub = index_of[publisher]
    kernel.publish(
        pub, publisher, group.views(pub), event,
        lambda depth: wiring_of(int(group.table_ids[pub, depth - 1])),
    )
    columns = kernel.columns(group.table_ids, wiring_of, group.own)

    emit = observer.emit if observer.tracing else None
    if emit is not None:
        # Byte-identical metadata to the scalar engine's: offline
        # tooling cannot (and must not) tell the producers apart.
        observer.annotate(**dissemination_meta(
            "repro.sim.engine", publisher, event.event_id, group.size,
            set(compress(addresses, own_match)), sim_config.seed,
        ))
        emit(0, "publish", publisher, event_id=event.event_id)
        if own_match[pub]:
            emit(0, "deliver", publisher, event_id=event.event_id)

    def crash(victim: Address) -> bool:
        vi = index_of.get(victim)
        if vi is None:
            raise SimulationError(f"{victim} is not in the group")
        was, alive[vi] = alive[vi], False
        return bool(was)

    infection_curve: List[int] = []
    messages_by_distance = np.zeros(tree_depth, np.int64)
    rounds = 0
    for round_index in range(sim_config.max_rounds):
        crash_step(crash, crash_schedule, link, round_index, emit)
        walk = rows.slot[alive[rows.slot]]
        if not len(walk) and not link.has_pending:
            break
        rounds = round_index + 1

        with timeline.span("fan_out", "engine", rounds):
            emission = kernel.fan_out(walk, None, columns)
            # Distance accounting: every envelope, before loss (§2.2).
            same = components[emission.sender] == components[emission.dest]
            common = np.logical_and.accumulate(same, axis=1).sum(axis=1)
            messages_by_distance += np.bincount(tree_depth - 1 - common, minlength=tree_depth)

        with timeline.span("exchange", "engine", rounds):
            kernel.transmit(emission, link, alive, emit, rounds)
        infection_curve.append(int(np.count_nonzero(rows.received)))

    timeline.probe_memory(subsystem="engine", round_index=rounds)
    observer.annotate(rounds=rounds, **link.trace_meta())
    if registry.enabled:
        for name, value in (
            ("runs", 1), ("rounds", rounds), ("envelopes", rows.sent.sum()),
            ("losses", link.messages_lost), ("receptions", rows.receptions.sum()),
        ):
            registry.counter("vector", name).inc(int(value))
        registry.gauge("vector", "infected").set(int(np.count_nonzero(rows.received)))

    # What is still buffered when the run ends: a crashed member's row
    # stays, as its node keeps its buffers.
    left = np.zeros((3, n))
    left[:, rows.slot] = rows.depth, rows.rate, rows.round
    outcome = RunOutcome(
        alive, rows.received[:, 0], rows.delivered[:, 0], rows.sent, rows.receptions,
        left[0].astype(np.int64), left[1], left[2].astype(np.int64),
    )
    report = assemble_pmcast_report(
        group, publisher, outcome, own_match, rounds,
        tuple(infection_curve), tuple(messages_by_distance.tolist()),
        link.messages_lost, crash_schedule.victim_count + link.scripted_crashes,
    )
    return report, outcome


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
            # Line 7's bound, once per distinct rate (at most length + 1).
            rates, which = np.unique(rate, return_inverse=True)
            bound = np.array(
                [depth_round_bound(length, float(x), config) for x in rates],
                np.int64,
            )[which]
            tables.append(
                _DepthTables(
                    block=block,
                    child=child,
                    length=length,
                    template=template,
                    eff_mask=ent,
                    rate=rate,
                    bound=bound,
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
        trace_rate: Optional[float] = None,
    ) -> "TreeState":
        """Initial state: the publisher buffered, crash plan pre-drawn.

        Each shard's plan comes from its own ``"vcrash"`` stream, and
        the publisher is never doomed: the conformance harness's
        convention (a dead publisher measures nothing).  ``trace_rate`` (None = untraced, 1.0 =
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
                    self._record_dispositions(trace_round, dest, depths, senders, kept)
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

    def _record_dispositions(self, trace_round, dest, depths, senders, kept) -> None:
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
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    bounds = [0, *starts.tolist(), int(keys.size)]
    return list(zip(keys[bounds[:-1]].tolist(), bounds, bounds[1:]))


def _repeats(draws: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``draws`` that hold a repeated value.

    A row repeats iff two of its k columns are equal: k(k-1)/2 column
    compares, no sort.
    """
    equal = np.zeros(draws.shape[0], dtype=bool)
    for right in range(1, draws.shape[1]):
        for left in range(right):
            equal |= draws[:, left] == draws[:, right]
    return np.flatnonzero(equal)


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
            # Flat row-major gathers: envelope (row, j) is element
            # row * count + j of every column.
            sub_p = sub[pick]
            wanted = table.eff_mask.ravel()[
                (sub_p * table.length)[:, None] + draws
            ].ravel()
            parts.append(
                (
                    (
                        (sub_p * table.block)[:, None] + table.template[draws]
                    ).ravel()[wanted],
                    np.full(int(np.count_nonzero(wanted)), depth, dtype=np.int8),
                    np.repeat(rounds[pick], count)[wanted],
                    np.repeat(gossipers[pick], count)[wanted],
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
