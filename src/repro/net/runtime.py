"""The event-driven dissemination runtime over a virtual clock.

This is the paper's *actual* execution model: every process runs its
own gossip timer; messages travel with a latency bounded below the
gossip period; nothing is globally synchronized.  The round-synchronous
engine is the special case where every timer fires exactly on the
period boundary — and this module's test harness value rests on making
that special case **bit-identical** to the engine:

* same RNG streams, derived with the engine's own labels
  (``gossip``/``network``/``crash``/``faults``);
* timers pop in the engine's active-set insertion order (the clock's
  FIFO tie-break over re-armed and newly armed timers reproduces
  insertion-ordered dict semantics — docs/NETWORK.md walks the proof);
* everything sent at one instant flushes as one ordered batch through
  the same link (:func:`~repro.variants.pmcast.prepare_pmcast_run`'s:
  the ε network, or the fault plan wrapping it) with the engine's
  ``begin_round`` → ``transmit`` calls, so loss draws happen in the
  engine's order;
* the protocol logic itself is the untouched
  :class:`~repro.variants.pmcast.PmcastVariant` hooks — ``begin`` /
  ``crash`` / ``fan_out_one`` / ``receive`` / ``finalize``.

``run_sim_dissemination(...)`` with the default zero-jitter
:class:`~repro.net.scheduler.RoundSchedule` therefore returns the same
:class:`~repro.sim.metrics.DisseminationReport` and writes the same
``repro.obs.trace/v1`` stream, byte for byte, as
:func:`repro.sim.engine.run_dissemination` — pinned by the golden
equivalence suite.  Jittered and straggler schedules then explore
genuinely asynchronous executions the engine cannot express; traced
(through the run's :class:`~repro.obs.probes.Observer`), such a run
also writes round-less ``timer_fire`` records keyed by ``time_us``
under a ``net`` header block — exactly when the schedule is not
:attr:`~repro.net.scheduler.Schedule.round_synchronous`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.addressing import Address, distance
from repro.config import SimConfig
from repro.errors import NetError
from repro.faults.plan import FaultPlan
from repro.interests.events import Event
from repro.net.clock import PRIORITY_BOUNDARY, PRIORITY_TIMER, VirtualClock
from repro.net.scheduler import RoundSchedule, Schedule
from repro.net.transport import SimTransport
from repro.obs.probes import NULL_OBSERVER, Observer
from repro.sim.crashes import CrashSchedule
from repro.sim.group import PmcastGroup
from repro.sim.metrics import DisseminationReport
from repro.variants.base import crash_step
from repro.variants.pmcast import PmcastVariant, prepare_pmcast_run

__all__ = ["run_sim_dissemination"]


def run_sim_dissemination(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    sim_config: Optional[SimConfig] = None,
    schedule: Optional[Schedule] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    faults: Optional[FaultPlan] = None,
    latency_us: Optional[int] = None,
    observer: Observer = NULL_OBSERVER,
) -> DisseminationReport:
    """Multicast one event through the group, event by event.

    The mirror of :func:`repro.sim.engine.run_dissemination` with the
    round loop replaced by a discrete-event loop: round boundaries,
    timer fires and transport flushes are events on a
    :class:`~repro.net.clock.VirtualClock`, ordered ``(time, priority,
    seq)``.

    Args:
        schedule: when each process's timer fires; default is the
            zero-jitter :class:`~repro.net.scheduler.RoundSchedule` at
            the group's configured period — the engine-equivalent mode.
        latency_us: virtual wire latency, strictly below the schedule
            period (the paper's latency bound); default half a period.
        observer: receives the engine's records and header; when the
            schedule is not round-synchronous, also one round-less
            ``timer_fire`` record per fire (ordered by ``time_us``)
            and a ``net`` header block — a zero-jitter trace stays
            byte-identical to the engine's.
        (remaining arguments exactly as in ``run_dissemination``.)

    Returns:
        the run's :class:`~repro.sim.metrics.DisseminationReport`.
    """
    sim_config = sim_config or SimConfig()
    if schedule is None:
        schedule = RoundSchedule(period_us=group.config.period_ms * 1000)
    period_us = schedule.period_us
    if latency_us is None:
        latency_us = period_us // 2
    if not 0 < latency_us < period_us:
        raise NetError(
            f"latency_us {latency_us} must lie in (0, {period_us}): the "
            "model requires network latency below the gossip period"
        )

    emit = observer.emit if observer.tracing else None
    link, crash_schedule, ctx = prepare_pmcast_run(
        group, publisher, event, sim_config, crash_schedule, emit, faults,
    )
    variant = PmcastVariant(group, publisher, event, ctx, sim_config)

    emit_events = emit is not None and not schedule.round_synchronous
    if emit is not None:
        observer.annotate(**variant.trace_meta())
    if emit_events:
        observer.annotate(
            net={
                "schedule": repr(schedule),
                "period_us": period_us,
                "latency_us": latency_us,
            }
        )

    variant.begin(emit)

    clock = VirtualClock()
    transport = SimTransport(clock, link, latency_us)
    #: Processes with an armed timer on the clock (lazy cancellation:
    #: a popped timer for an inactive process is skipped).
    scheduled: Set[Address] = set()
    keys: Dict[Address, str] = {}

    def arm_timer(address: Address) -> None:
        key = keys.get(address)
        if key is None:
            key = keys[address] = str(address)
        __, fire_us = schedule.next_fire(key, clock.now_us)
        clock.schedule(fire_us, PRIORITY_TIMER, ("timer", address))
        scheduled.add(address)

    # Round boundaries pace the crash plan, the infection curve and
    # termination even when no timer lands in a round.  Boundary r
    # (at time (r+1)·P, before that instant's timers) corresponds to
    # the top of engine iteration round_index = r.
    clock.schedule(period_us, PRIORITY_BOUNDARY, ("boundary", 0))
    arm_timer(publisher)

    infection_curve: List[int] = []
    messages_by_distance = [0] * variant.depth
    rounds = 0

    while clock:
        when_us, __, __, payload = clock.pop()
        kind = payload[0]

        if kind == "boundary":
            round_index = payload[1]
            if round_index > 0:
                # The sample for the round that just completed —
                # the engine appends it after that round's exchange.
                infection_curve.append(variant.infected_count())
            if round_index >= sim_config.max_rounds:
                break
            crash_step(variant.crash, crash_schedule, link, round_index, emit)
            if (
                not variant.is_active()
                and not transport.in_flight
                and not link.has_pending
            ):
                break
            rounds = round_index + 1
            if link.has_pending:
                # The engine calls the link's transmit every round,
                # empty fan-out or not, and that is what releases a
                # delayed envelope; an empty flush batch reproduces it.
                transport.ensure_flush(when_us + latency_us)
            clock.schedule(
                when_us + period_us, PRIORITY_BOUNDARY,
                ("boundary", round_index + 1),
            )

        elif kind == "timer":
            address = payload[1]
            scheduled.discard(address)
            if not variant.is_process_active(address):
                continue  # crashed or idled since arming: no RNG touched
            if emit_events:
                emit(
                    None, "timer_fire", address,
                    event_id=event.event_id, time_us=when_us,
                )
            for envelope in variant.fan_out_one(address, rounds):
                hops = distance(
                    envelope.message.sender, envelope.destination
                )
                messages_by_distance[max(hops, 1) - 1] += 1
                transport.send(envelope)
            if variant.is_process_active(address):
                arm_timer(address)

        else:  # flush
            batch = transport.take(payload[1])
            delivered = link.transmit(batch)
            if emit is not None:
                arrived = frozenset(id(envelope) for envelope in delivered)
                variant.emit_dispositions(
                    batch, arrived, link.last_diverted, emit, rounds
                )
            for envelope in delivered:
                variant.receive(envelope, emit, rounds)
                receiver = envelope.destination
                if (
                    variant.is_process_active(receiver)
                    and receiver not in scheduled
                ):
                    arm_timer(receiver)

    observer.annotate(rounds=rounds, **link.trace_meta())
    return variant.finalize(
        rounds,
        tuple(infection_curve),
        tuple(messages_by_distance),
        link,
        crash_schedule,
    )
