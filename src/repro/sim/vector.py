"""Struct-of-arrays fast paths for the simulation hot loop.

Two kernels live here, with different contracts:

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

**Regular-tree kernel** (:class:`RegularTreeSpec` /
:func:`run_shard_wave`) — a fully vectorized numpy round step for the
synthetic full regular tree (n = arity^depth, delegates = the R
smallest addresses of each subtree, exact-union regrouping).  Member
state is four flat arrays (``alive``, ``received``, ``buf_depth``,
``buf_round``); per-(depth, subgroup) matching masks, rates, round
bounds and flood flags are precomputed tables, valid because every
entry of a view shares the view's subgroup and therefore its rate.
Destination draws come from per-(shard, round) ``numpy`` PCG64 streams
derived through the SHA-256 seed contract — deterministic at any
worker count, but *not* stream-compatible with the scalar engine; this
kernel is validated statistically against the Eqs 8–18 oracles (the
``scale`` conformance suite) rather than by digest.  The sharding
coordinator that drives :func:`run_shard_wave` round by round (and
hands the trace to an Observer) lives in :mod:`repro.par.subtree`.

Determinism rules (both kernels): no wall clock, no ``hash()`` of
interned objects, no set-iteration order — every draw is derived from
the master seed via :func:`repro.sim.rng.derive_seed`, and every loop
iterates arrays or insertion-ordered lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.addressing import Address
from repro.config import PmcastConfig, SimConfig
from repro.core.context import GossipContext
from repro.core.rate import sample_positions
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
    "ShardState",
    "advance_crashes",
    "run_shard_wave",
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
    recipients.
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
# Regular-tree kernel: numpy arrays + sharded subtree waves.
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


def _shard_record(
    round_index: int,
    kind: str,
    process: str,
    event_id: int,
    peer: Optional[str] = None,
    depth: int = 0,
) -> Tuple[int, str, str, Optional[str], int, int]:
    """One trace record in ``Observer.emit``'s argument order, addresses
    still dotted strings (plain picklable data; the coordinator parses
    them when it emits)."""
    return (round_index, kind, process, peer, event_id, depth)


@dataclass
class ShardState:
    """The mutable struct-of-arrays state of one depth-1 subtree.

    Can round-trip through a :class:`~repro.par.TrialExecutor` between
    waves: it carries its spec so a wave task is one self-contained
    picklable object.
    """

    spec: RegularTreeSpec
    shard: int
    base: int
    alive: np.ndarray       # bool (B,)
    received: np.ndarray    # bool (B,)
    buf_depth: np.ndarray   # int8 (B,), 0 = not buffered
    buf_round: np.ndarray   # int16 (B,)
    doomed: np.ndarray      # bool (B,)
    doom_round: np.ndarray  # int32 (B,)
    crash_cursor: int = 0
    sent: int = 0
    recv: int = 0
    lost: int = 0
    dist: np.ndarray = None  # (depth,) int64 distance buckets
    #: Trace plumbing of a traced run: per-kind keep masks (bool (B,)),
    #: the members' dotted-address strings, and the accumulated records
    #: (:func:`_shard_record` tuples, round-monotone).  Plain
    #: dicts/lists/arrays so the state round-trips through the
    #: executor's pickle unchanged.
    trace: Optional[Dict[str, object]] = None

    @classmethod
    def create(
        cls,
        spec: RegularTreeSpec,
        shard: int,
        publisher_immune: bool = True,
        trace_rate: Optional[float] = None,
    ) -> "ShardState":
        """Initial state: everyone clean, crash plan pre-drawn.

        The crash stream is per shard (label ``"vcrash"``), so the plan
        is identical at any worker count.  ``publisher_immune`` mirrors
        the conformance harness's convention of never crashing the
        publisher (a dead publisher measures nothing).  ``trace_rate``
        (None = untraced, 1.0 = every record) is the coordinator's
        :class:`~repro.obs.probes.Observer` sampling rate; sampling keys
        are the dotted address strings, so the kept subset is identical
        at any worker count and to any other producer tracing the same
        processes at the same rate.
        """
        size = spec.shard_size
        base = shard * size
        rng = np.random.default_rng(
            derive_seed(spec.seed, "vcrash", spec.event_id, shard)
        )
        tau = spec.crash_fraction
        if tau > 0.0:
            doomed = rng.random(size) < tau
            doom_round = rng.integers(
                0, spec.max_rounds, size, dtype=np.int32
            )
        else:
            doomed = np.zeros(size, dtype=bool)
            doom_round = np.zeros(size, dtype=np.int32)
        state = cls(
            spec=spec,
            shard=shard,
            base=base,
            alive=np.ones(size, dtype=bool),
            received=np.zeros(size, dtype=bool),
            buf_depth=np.zeros(size, dtype=np.int8),
            buf_round=np.zeros(size, dtype=np.int16),
            doomed=doomed,
            doom_round=doom_round,
            dist=np.zeros(spec.depth, dtype=np.int64),
        )
        if trace_rate is not None:
            addresses = [spec.address(base + i) for i in range(size)]
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
        publisher = spec.publisher
        if base <= publisher < base + size:
            local = publisher - base
            if publisher_immune:
                state.doomed[local] = False
            # PMCAST bootstrap: buffer at depth 1, round 0.
            state.received[local] = True
            state.buf_depth[local] = 1
            if state.trace is not None:
                address = state.trace["addresses"][local]
                records = state.trace["records"]
                if keep("publish", address, spec.event_id, trace_rate):
                    records.append(
                        _shard_record(0, "publish", address, spec.event_id)
                    )
                if spec.own_match[publisher] and state.trace["deliver"][local]:
                    records.append(
                        _shard_record(0, "deliver", address, spec.event_id)
                    )
        return state

    @property
    def busy(self) -> bool:
        """True while a live member is still gossiping."""
        return bool((self.alive & (self.buf_depth > 0)).any())

    @property
    def infected(self) -> int:
        return int(self.received.sum())


def advance_crashes(state: ShardState, upto: int) -> None:
    """Apply every crash scheduled in rounds [cursor, upto).

    A wave advances its own shard; the coordinator of a traced run
    advances every shard to the run's last round before it reads the
    records, so a shard that went idle (or never woke) still emits one
    ``crash`` per victim per round reached, as the engine does.
    """
    if state.crash_cursor >= upto:
        return
    sel = (
        state.doomed
        & (state.doom_round >= state.crash_cursor)
        & (state.doom_round < upto)
    )
    if sel.any():
        state.alive[sel] = False
        trace = state.trace
        if trace is not None:
            kept = np.nonzero(sel & trace["crash"])[0]
            if kept.size:
                # Record at doom_round + 1 (the scalar convention),
                # ordered by round so the shard's records stay monotone.
                order = np.argsort(state.doom_round[kept], kind="stable")
                addresses = trace["addresses"]
                records = trace["records"]
                for local in kept[order]:
                    records.append(
                        _shard_record(
                            int(state.doom_round[local]) + 1,
                            "crash",
                            addresses[local],
                            0,
                        )
                    )
    state.crash_cursor = upto


def _draw_distinct(gen, rows: int, n: int, k: int) -> np.ndarray:
    """``rows`` independent draws of ``k`` distinct values below ``n``.

    Rejection sampling over whole rows: a row with a repeated value is
    redrawn until clean, which conditions the uniform i.i.d. matrix on
    per-row distinctness — the distribution of an ordered sample
    without replacement.
    """
    draws = gen.integers(0, n, size=(rows, k))
    while True:
        ordered = np.sort(draws, axis=1)
        bad = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if not bad.any():
            return draws
        draws[bad] = gen.integers(0, n, size=(int(bad.sum()), k))


def _apply_receptions(
    state: ShardState,
    local: np.ndarray,
    depths: np.ndarray,
    rounds: np.ndarray,
    trace_round: int = 0,
) -> None:
    """RECEIVE for a batch of envelopes, first-in-batch-order wins.

    ``trace_round`` is the *simulation* round the receptions happen in
    (the ``rounds`` array is buffer entry-round counters, not rounds);
    sampled receive/deliver records are stamped with it.  Cross-shard
    envelopes lose their sender in the exchange, so sharded receive
    records uniformly carry ``peer: null``.
    """
    ok = state.alive[local]
    if not ok.all():
        local, depths, rounds = local[ok], depths[ok], rounds[ok]
    state.recv += int(local.size)
    if not local.size:
        return
    trace = state.trace
    if trace is not None:
        kept = np.nonzero(trace["receive"][local])[0]
        if kept.size:
            addresses = trace["addresses"]
            records = trace["records"]
            event_id = state.spec.event_id
            for position in kept:
                records.append(
                    _shard_record(
                        trace_round,
                        "receive",
                        addresses[local[position]],
                        event_id,
                        depth=int(depths[position]),
                    )
                )
    fresh = ~state.received[local]
    if not fresh.any():
        return
    local, depths, rounds = local[fresh], depths[fresh], rounds[fresh]
    uniq, first = np.unique(local, return_index=True)
    state.received[uniq] = True
    state.buf_depth[uniq] = depths[first]
    state.buf_round[uniq] = rounds[first]
    if trace is not None:
        spec = state.spec
        delivering = np.nonzero(
            trace["deliver"][uniq] & spec.own_match[uniq + state.base]
        )[0]
        if delivering.size:
            addresses = trace["addresses"]
            records = trace["records"]
            event_id = spec.event_id
            for position in delivering:
                records.append(
                    _shard_record(
                        trace_round,
                        "deliver",
                        addresses[uniq[position]],
                        event_id,
                    )
                )


def run_shard_wave(
    state: ShardState,
    inbound_dest: Optional[np.ndarray],
    inbound_round: Optional[np.ndarray],
    round_index: int,
) -> Tuple[ShardState, np.ndarray, np.ndarray, bool, int]:
    """One synchronous round for one shard.

    Wave order reproduces the unsharded engine's timing exactly:
    envelopes that crossed a shard boundary in round ``r`` are applied
    at the start of wave ``r+1``, *before* round ``r+1``'s crashes —
    the same protocol state a monolithic round loop reaches, because a
    round-``r`` reception is only ever acted on in round ``r+1``.
    (Only the infection curve sees cross-shard receptions one round
    late; final counts are unaffected.)

    Returns ``(state, out_dest, out_round, busy, infected)`` where the
    out arrays are the surviving cross-shard envelopes (always depth 1
    — deeper gossip stays inside the sender's depth-1 block).
    """
    spec = state.spec
    base = state.base
    depth_count = spec.depth
    fanout = spec.config.fanout
    redundancy = spec.redundancy

    advance_crashes(state, round_index)
    if inbound_dest is not None and inbound_dest.size:
        # Cross-shard envelopes were sent during the previous wave
        # (simulation round ``round_index``), so their receive records
        # carry the same round as their send records.
        _apply_receptions(
            state,
            inbound_dest - base,
            np.ones(inbound_dest.size, dtype=np.int8),
            inbound_round,
            trace_round=round_index,
        )
    advance_crashes(state, round_index + 1)

    gen = np.random.default_rng(
        derive_seed(spec.seed, "subtree", spec.event_id, state.shard, round_index)
    )

    env_dest: List[np.ndarray] = []
    env_depth: List[np.ndarray] = []
    env_round: List[np.ndarray] = []
    env_sender: List[np.ndarray] = []

    for depth in range(1, depth_count + 1):
        table = spec.tables[depth - 1]
        sel = np.nonzero(state.alive & (state.buf_depth == depth))[0]
        if sel.size == 0:
            continue
        sub = (sel + base) // table.block

        if table.flood is not None:
            flooding = table.flood[sub]
            if flooding.any():
                flooders = sel[flooding]
                sub_f = sub[flooding]
                mask = table.eff_mask[sub_f].copy()
                selfrel = (flooders + base) % table.block
                mask[np.arange(flooders.size), selfrel] = False
                row_idx, col = np.nonzero(mask)
                env_dest.append(sub_f[row_idx] * table.block + col)
                env_depth.append(
                    np.full(row_idx.size, depth, dtype=np.int8)
                )
                env_round.append(
                    state.buf_round[flooders][row_idx].astype(np.int16)
                )
                env_sender.append(flooders[row_idx] + base)
                state.buf_depth[flooders] = 0
                sel = sel[~flooding]
                sub = sub[~flooding]
                if sel.size == 0:
                    continue

        bound = table.bound[sub]
        live = state.buf_round[sel] < bound
        expired = sel[~live]
        if expired.size:
            if depth < depth_count:
                # Demotion: picked up again at depth+1 in this same
                # wave, exactly the scalar cascade.
                state.buf_depth[expired] = depth + 1
                state.buf_round[expired] = 0
            else:
                state.buf_depth[expired] = 0
        gossipers = sel[live]
        if gossipers.size == 0:
            continue
        state.buf_round[gossipers] += 1
        sub_g = sub[live]
        rounds_g = state.buf_round[gossipers].astype(np.int16)
        selfrel = (gossipers + base) % table.block
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
            if not pick.any():
                continue
            candidates = table.length - (1 if has_self else 0)
            if candidates <= 0:
                continue
            rows = int(pick.sum())
            count = min(fanout, candidates)
            if count == candidates:
                draws = np.tile(np.arange(candidates), (rows, 1))
            else:
                draws = _draw_distinct(gen, rows, candidates, count)
            if has_self:
                draws = draws + (draws >= selfpos[pick][:, None])
            sub_p = sub_g[pick]
            keep = table.eff_mask[sub_p[:, None], draws]
            dest = sub_p[:, None] * table.block + table.template[draws]
            shape = (rows, count)
            env_dest.append(dest[keep])
            env_depth.append(
                np.full(int(keep.sum()), depth, dtype=np.int8)
            )
            env_round.append(
                np.broadcast_to(rounds_g[pick][:, None], shape)[keep]
            )
            env_sender.append(
                np.broadcast_to(
                    (gossipers[pick] + base)[:, None], shape
                )[keep]
            )

    if env_dest:
        dest = np.concatenate(env_dest)
        depths = np.concatenate(env_depth)
        rounds = np.concatenate(env_round)
        senders = np.concatenate(env_sender)
    else:
        dest = np.empty(0, dtype=np.int64)
        depths = np.empty(0, dtype=np.int8)
        rounds = np.empty(0, dtype=np.int16)
        senders = np.empty(0, dtype=np.int64)

    total = int(dest.size)
    state.sent += total
    if total:
        # §2.2 distance accounting, pre-loss.
        common = np.zeros(total, dtype=np.int64)
        for level in range(1, depth_count + 1):
            block = spec.arity ** (depth_count - level)
            common += senders // block == dest // block
        np.add.at(state.dist, depth_count - 1 - common, 1)
        kept = None
        if spec.loss_probability > 0.0:
            kept = gen.random(total) >= spec.loss_probability
            state.lost += total - int(kept.sum())
        trace = state.trace
        if trace is not None:
            # Send/loss disposition per envelope, pre-filter (the loss
            # records need the dropped envelopes), keyed by the sender.
            sender_local = senders - base
            if kept is None:
                emitting = trace["send"][sender_local]
            else:
                emitting = np.where(
                    kept,
                    trace["send"][sender_local],
                    trace["loss"][sender_local],
                )
            chosen = np.nonzero(emitting)[0]
            if chosen.size:
                addresses = trace["addresses"]
                records = trace["records"]
                event_id = spec.event_id
                trace_round = round_index + 1
                for position in chosen:
                    records.append(
                        _shard_record(
                            trace_round,
                            "send"
                            if kept is None or kept[position]
                            else "loss",
                            addresses[sender_local[position]],
                            event_id,
                            peer=spec.address(int(dest[position])),
                            depth=int(depths[position]),
                        )
                    )
        if kept is not None:
            dest, depths, rounds = dest[kept], depths[kept], rounds[kept]

    shard_size = spec.shard_size
    cross = dest // shard_size != state.shard
    out_dest = dest[cross]
    out_round = rounds[cross]
    if (~cross).any():
        _apply_receptions(
            state,
            dest[~cross] - base,
            depths[~cross],
            rounds[~cross],
            trace_round=round_index + 1,
        )

    return state, out_dest, out_round, state.busy, state.infected
