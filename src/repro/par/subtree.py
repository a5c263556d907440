"""Sharded subtree simulation: one depth-1 subtree per shard.

The regular-tree kernel of :mod:`repro.sim.vector` turns a round of
pmcast into a handful of array operations per depth-1 subtree.  This
module coordinates those subtrees with **envelope exchange at round
barriers**: each wave, every busy shard runs one synchronous round
(:func:`~repro.sim.vector.run_shard_wave`), returns the gossip
envelopes that crossed its boundary (only depth-1 gossip can — deeper
gossip stays inside the sender's subtree), and the coordinator routes
them to their destination shards for the next wave.  Waves run in the
calling process unless a :class:`~repro.par.executor.TrialExecutor` is
handed in; ``src/`` hands none — fanning waves over workers pickles
every busy shard out and back each round and measures slower than one
process, so parallelism is bought one level up, across trials.

The run is observed like every other plane: records reach the caller's
:class:`~repro.obs.probes.Observer` trace/sink as **one** globally
round-monotone ``repro.obs.trace/v1`` trace, sampled at the observer's
rate, under the shared dissemination header (interest *counts*, not the
list).

Determinism at any worker count is inherited from the SHA-256 seed
contract: every draw comes from a per-``(shard, round)`` stream derived
from the master seed, crash plans from per-shard streams, and the
coordinator merges wave results in shard order (``TrialExecutor.run``
returns results in task order regardless of scheduling), so the
aggregate :class:`~repro.sim.metrics.DisseminationReport` and the trace
are identical at any worker count.

Timing note: cross-shard envelopes are applied at the start of the next
wave, *before* that round's crashes — exactly the protocol state a
monolithic round loop reaches, because a round-``r`` reception is only
acted on in round ``r+1``.  Only the infection curve registers
cross-shard receptions one round late; every final count is unaffected.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

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
from repro.sim.vector import (
    RegularTreeSpec,
    ShardState,
    advance_crashes,
    run_shard_wave,
)

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


def _wave_worker(
    task: Tuple[ShardState, Optional[np.ndarray], Optional[np.ndarray], int],
) -> Tuple[ShardState, np.ndarray, np.ndarray, bool, int]:
    """Module-level wave step (picklable for the process pool)."""
    return run_shard_wave(*task)


def _emit_trace(
    spec: RegularTreeSpec,
    states: Dict[int, ShardState],
    rounds: int,
    interested: int,
    observer: Observer,
) -> None:
    """Hand the run's records to ``observer`` as one trace.

    Each shard's records are round-monotone, so a stable sort of their
    shard-order concatenation by round is the ``(round, shard,
    sequence)`` order: globally round-monotone, identical at any worker
    count.
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
    records: List[tuple] = []
    for shard in sorted(states):
        advance_crashes(states[shard], rounds)
        records.extend(states[shard].trace["records"])
    records.sort(key=lambda record: record[0])
    parse = lru_cache(maxsize=None)(Address.parse)  # processes recur
    for round_index, kind, process, peer, event_id, depth in records:
        observer.emit(
            round_index,
            kind,
            parse(process),
            None if peer is None else parse(peer),
            event_id,
            depth,
        )


def run_sharded_dissemination(
    spec: RegularTreeSpec,
    executor: Optional[TrialExecutor] = None,
    publisher_immune: bool = True,
    observer: Optional[Observer] = None,
    timeline: Optional[TimelineRecorder] = None,
) -> DisseminationReport:
    """Disseminate one event over the sharded regular-tree kernel.

    Args:
        spec: the flattened tree (see
            :meth:`~repro.sim.vector.RegularTreeSpec.build` /
            :func:`build_regular_spec`).
        executor: the wave transport; waves run in the calling process
            when omitted.  Report, trace and counters are identical at
            any job count.
        publisher_immune: exempt the publisher from the crash plan (the
            conformance harness's sampling convention).
        observer: optional :class:`~repro.obs.probes.Observer`.  Its
            trace/sink destinations receive the run as one globally
            round-monotone trace — every record, or the subset its
            ``sampler`` keeps — its registry the run's ``subtree.*``
            counters, and its timeline per-wave ``fan_out``/``exchange``
            spans.
        timeline: shorthand for ``observer=Observer(timeline=...)``
            (:func:`~repro.obs.probes.fold_shorthands`).

    Returns:
        the aggregate :class:`~repro.sim.metrics.DisseminationReport`.
    """
    observer = fold_shorthands(observer, timeline=timeline)
    timeline = observer.timeline
    trace_rate = None
    if observer.tracing:
        sampler = observer.sampler
        trace_rate = 1.0 if sampler is None else sampler.rate
    states: Dict[int, ShardState] = {
        shard: ShardState.create(spec, shard, publisher_immune, trace_rate)
        for shard in range(spec.num_shards)
    }
    busy = {shard: states[shard].busy for shard in states}
    infected = {shard: states[shard].infected for shard in states}
    pending: Dict[int, Tuple[List[np.ndarray], List[np.ndarray]]] = {}
    shard_size = spec.shard_size
    infection_curve: List[int] = []
    rounds = waves = crossed = 0
    for round_index in range(spec.max_rounds):
        work = sorted(
            shard for shard in states if busy[shard] or shard in pending
        )
        if not work:
            break
        rounds = round_index + 1
        waves += len(work)
        tasks = []
        for shard in work:
            if shard in pending:
                dest_parts, round_parts = pending[shard]
                inbound_dest = np.concatenate(dest_parts)
                inbound_round = np.concatenate(round_parts)
            else:
                inbound_dest = None
                inbound_round = None
            tasks.append(
                (states[shard], inbound_dest, inbound_round, round_index)
            )
        with timeline.span("fan_out", "subtree", rounds):
            if executor is None:
                results = [run_shard_wave(*task) for task in tasks]
            else:
                results = executor.run(_wave_worker, tasks)
        with timeline.span("exchange", "subtree", rounds):
            pending = {}
            for shard, outcome in zip(work, results):
                state, out_dest, out_round, is_busy, now_infected = outcome
                states[shard] = state
                busy[shard] = is_busy
                infected[shard] = now_infected
                if out_dest.size:
                    crossed += int(out_dest.size)
                    targets = out_dest // shard_size
                    for target in np.unique(targets):
                        mask = targets == target
                        parts = pending.setdefault(int(target), ([], []))
                        parts[0].append(out_dest[mask])
                        parts[1].append(out_round[mask])
        infection_curve.append(sum(infected.values()))
    timeline.probe_memory(subsystem="subtree", round_index=rounds)

    own_match = spec.own_match
    publisher = spec.publisher
    interested = int(own_match.sum())
    if trace_rate is not None:
        _emit_trace(spec, states, rounds, interested, observer)
    uninterested = spec.size - interested - (0 if own_match[publisher] else 1)
    delivered = 0
    received_uninterested = 0
    received_total = 0
    sent = lost = recv = crashed = 0
    distance = np.zeros(spec.depth, dtype=np.int64)
    for shard, state in states.items():
        block_match = own_match[state.base:state.base + shard_size]
        delivered += int((state.received & block_match).sum())
        received_uninterested += int((state.received & ~block_match).sum())
        received_total += int(state.received.sum())
        sent += state.sent
        lost += state.lost
        recv += state.recv
        crashed += int(state.doomed.sum())
        distance += state.dist
    if not own_match[publisher]:
        # The publisher trivially "received" its own event; the false-
        # reception denominator and numerator both exclude it.
        received_uninterested -= 1
    for name, value in (
        ("waves", waves),
        ("envelopes_sent", sent),
        ("envelopes_lost", lost),
        ("cross_shard_envelopes", crossed),
        ("receptions", recv),
    ):
        observer.registry.counter("subtree", name).inc(value)
    return DisseminationReport(
        group_size=spec.size,
        interested=interested,
        uninterested=uninterested,
        delivered_interested=delivered,
        received_uninterested=received_uninterested,
        received_total=received_total,
        crashed=crashed,
        rounds=rounds,
        messages_sent=sent,
        messages_lost=lost,
        duplicate_receptions=max(recv - (received_total - 1), 0),
        infection_curve=tuple(infection_curve),
        messages_by_distance=tuple(int(value) for value in distance),
    )
