"""Sharded subtree simulation: one state, one pass per depth a round.

The regular-tree kernel of :mod:`repro.sim.vector` keeps the whole
tree in one :class:`~repro.sim.vector.TreeState` and plays a round as
one pass per depth over every alive buffered member, cut into passes of
whole depth-1 subtrees (*shards*) of at most ``_PASS_BUDGET`` members.
Only depth-1 gossip crosses a shard boundary; those envelopes are
received after every shard's own, at the round barrier.  Passes run in
the calling process unless a :class:`~repro.par.executor.TrialExecutor`
is handed in; ``src/`` hands none — shipping passes to workers pickles
their members out and their envelopes back each round, and at 10⁶ a
two-worker pool measures about the one-process time, so parallelism is
bought one level up, across trials.

The run is observed like every other plane: records reach the caller's
:class:`~repro.obs.probes.Observer` trace destination as **one** globally
round-monotone ``repro.obs.trace/v1`` trace, sampled at the observer's
rate, under the shared dissemination header (interest *counts*, not the
list).

Determinism at any worker count and pass budget is inherited from the
SHA-256 seed contract: every draw comes from a per-``(shard, round)``
stream derived from the master seed, consumed in the shard's own order
whatever pass holds it; crash plans come from per-shard streams; and
pass results are applied in shard order (``TrialExecutor.run`` returns
results in task order regardless of scheduling), so the aggregate
:class:`~repro.sim.metrics.DisseminationReport` and the trace are
identical at any worker count.

Timing note: cross-shard envelopes land at the round barrier — the
start of the next round, *before* its crashes — exactly the protocol
state a monolithic round loop reaches, because a round-``r`` reception
is only acted on in round ``r+1``.  The infection curve counts them in
the round that sent them, as the trace stamps them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional

import numpy as np

from repro.addressing import Address
from repro.config import PmcastConfig, SimConfig
from repro.errors import SimulationError
from repro.obs.probes import Observer, fold_shorthands
from repro.obs.timeline import TimelineRecorder
from repro.obs.trace import dissemination_counts
from repro.par.executor import TrialExecutor
from repro.sim.metrics import DisseminationReport
from repro.sim.rng import derive_seed
from repro.sim.vector import RegularTreeSpec, TreeState

__all__ = ["build_regular_spec", "run_sharded_dissemination"]


def build_regular_spec(
    arity: int,
    depth: int,
    interest_rate: float,
    config: Optional[PmcastConfig] = None,
    sim_config: Optional[SimConfig] = None,
    event_id: int = 0,
    publisher: Optional[int] = None,
) -> RegularTreeSpec:
    """A regular-tree spec with Bernoulli(``interest_rate``) interests.

    Interests are drawn from the derived ``"interests"`` stream of the
    master seed (one PCG64 draw per member, index order), mirroring
    :func:`repro.sim.workload.bernoulli_interests`'s address-order
    convention on dense indices.  The publisher defaults to the first
    interested member — the conformance harness's convention — or
    member 0 when nobody is interested.
    """
    if not 0.0 <= interest_rate <= 1.0:
        raise SimulationError(
            f"interest rate {interest_rate} not in [0, 1]"
        )
    sim_config = sim_config or SimConfig()
    size = arity ** depth
    rng = np.random.default_rng(
        derive_seed(sim_config.seed, "interests", event_id)
    )
    own_match = rng.random(size) < interest_rate
    if publisher is None:
        hits = np.nonzero(own_match)[0]
        publisher = int(hits[0]) if hits.size else 0
    return RegularTreeSpec.build(
        arity,
        depth,
        own_match,
        config=config,
        sim_config=sim_config,
        publisher=publisher,
        event_id=event_id,
    )


def _emit_trace(
    spec: RegularTreeSpec,
    state: TreeState,
    rounds: int,
    interested: int,
    observer: Observer,
) -> None:
    """Hand the run's records to ``observer`` as one trace.

    The round loop appends each shard's records of a round in its
    sequence order, so a stable sort by ``(round, shard)`` gives the
    ``(round, shard, sequence)`` order: globally round-monotone,
    identical at any worker count and pass budget.
    """
    observer.annotate(
        **dissemination_counts(
            "repro.par.subtree",
            spec.address(spec.publisher),
            spec.event_id,
            spec.size,
            interested,
            bool(spec.own_match[spec.publisher]),
            spec.seed,
        ),
        rounds=rounds,
        shards=spec.num_shards,
    )
    records: List[tuple] = state.trace["records"]
    block = spec.shard_size
    records.sort(key=lambda record: (record[0], record[2] // block))
    addresses = state.trace["addresses"]
    parse = lru_cache(maxsize=None)(Address.parse)  # processes recur
    for round_index, kind, process, peer, event_id, depth in records:
        observer.emit(
            round_index,
            kind,
            parse(addresses[process]),
            None if peer is None else parse(addresses[peer]),
            event_id,
            depth,
        )


def run_sharded_dissemination(
    spec: RegularTreeSpec,
    executor: Optional[TrialExecutor] = None,
    observer: Optional[Observer] = None,
    timeline: Optional[TimelineRecorder] = None,
) -> DisseminationReport:
    """Disseminate one event over the sharded regular-tree kernel.

    The publisher is exempt from the crash plan (the conformance
    harness's sampling convention: a dead publisher measures nothing).

    Args:
        spec: the flattened tree (see
            :meth:`~repro.sim.vector.RegularTreeSpec.build` /
            :func:`build_regular_spec`).
        executor: carries each round's gossip passes
            (:func:`~repro.sim.vector.gossip_pass`); they run in the
            calling process when omitted.  Report, trace and counters
            are identical at any job count.
        observer: optional :class:`~repro.obs.probes.Observer`.  Its
            trace destination receives the run as one globally
            round-monotone trace — every record, or the subset its
            ``sampler`` keeps — its registry the run's ``subtree.*``
            counters, and its timeline per-round ``fan_out``/``exchange``
            spans.
        timeline: shorthand for ``observer=Observer(timeline=...)``
            (:func:`~repro.obs.probes.fold_shorthands`).

    Returns:
        the aggregate :class:`~repro.sim.metrics.DisseminationReport`.
    """
    observer = fold_shorthands(observer, timeline=timeline)
    trace_rate = None
    if observer.tracing:
        sampler = observer.sampler
        trace_rate = 1.0 if sampler is None else sampler.rate
    state = TreeState.create(spec, trace_rate)
    rounds = 0
    for round_index in range(spec.max_rounds):
        if not state.step(round_index, executor, observer):
            break
        rounds = round_index + 1
    observer.timeline.probe_memory(subsystem="subtree", round_index=rounds)

    own_match = spec.own_match
    publisher = spec.publisher
    interested = int(own_match.sum())
    if trace_rate is not None:
        _emit_trace(spec, state, rounds, interested, observer)
    uninterested = spec.size - interested - (0 if own_match[publisher] else 1)
    received = state.received
    received_total = int(received.sum())
    delivered = int((received & own_match).sum())
    received_uninterested = received_total - delivered
    if not own_match[publisher]:
        # The publisher trivially "received" its own event; the false-
        # reception denominator and numerator both exclude it.
        received_uninterested -= 1
    for name, value in (
        ("waves", state.waves),
        ("envelopes_sent", state.sent),
        ("envelopes_lost", state.lost),
        ("cross_shard_envelopes", state.crossed),
        ("receptions", state.recv),
    ):
        observer.registry.counter("subtree", name).inc(value)
    return DisseminationReport(
        group_size=spec.size,
        interested=interested,
        uninterested=uninterested,
        delivered_interested=delivered,
        received_uninterested=received_uninterested,
        received_total=received_total,
        crashed=int(state.doomed.sum()),
        rounds=rounds,
        messages_sent=state.sent,
        messages_lost=state.lost,
        duplicate_receptions=max(state.recv - (received_total - 1), 0),
        infection_curve=tuple(state.curve),
        messages_by_distance=tuple(int(value) for value in state.dist),
    )
