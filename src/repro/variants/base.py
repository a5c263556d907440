"""The dissemination-variant strategy seam and its shared round driver.

The scalar engine loop (:func:`repro.sim.engine.run_dissemination`),
the flat baselines (:mod:`repro.baselines.flat`) and the new
dissemination variants (:mod:`repro.variants.lazy_pull`,
:mod:`repro.variants.bounded_view`) all share one round skeleton:

1. crash the processes scheduled for this round,
2. **fan out**: each of the round's ``senders`` emits its envelopes
   (``fan_out_one``), acting on its own state alone (§4.1),
3. **exchange**: the link — the lossy network, or the fault plan
   wrapping it — drops each envelope independently, survivors are
   received.

What differs between algorithms is *only* who sends to whom and what a
reception does — the :class:`DisseminationVariant` interface.  The
driver below (:func:`run_variant`) owns everything else: the round
loop, crash application, the hand-off to the link, distance
accounting, the ``repro.obs.trace/v1`` disposition records, timeline
spans and the infection curve — everything observable goes through the
one :class:`~repro.obs.probes.Observer` the driver is handed
(``observer.emit`` when tracing, ``observer.annotate``,
``observer.timeline``).  The engine's historical behavior is a
*contract*, not a casualty, of this extraction: running the pmcast
strategy (:class:`repro.variants.pmcast.PmcastVariant`) through this
driver is bit-identical — same RNG draws, same trace records, same
report — to the pre-extraction loop, and the golden-seed suites pin
that.

Determinism rules every strategy must follow (docs/VARIANTS.md):

* iterate insertion-ordered dicts or sorted lists, never sets — set
  order depends on ``PYTHONHASHSEED`` through ``Address.__hash__``;
* all randomness comes from RNG streams derived with
  :func:`repro.sim.rng.derive_rng` labels owned by the variant;
* randomness is consumed in a schedule-independent order (fan-out in
  ``senders`` order, receptions in envelope order).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro.addressing import Address, distance
from repro.config import SimConfig
from repro.obs.probes import NULL_OBSERVER, Observer
from repro.sim.crashes import CrashSchedule
from repro.sim.metrics import DisseminationReport
from repro.sim.network import LossyNetwork

__all__ = [
    "CONTROL_KINDS",
    "DisseminationVariant",
    "VariantEnvelope",
    "VariantMessage",
    "crash_step",
    "emit_dispositions",
    "run_variant",
]

Emit = Callable[..., None]

#: The control-plane trace kinds variants may emit (one disposition
#: record per control envelope; ``value`` is 1 when it arrived, 0 when
#: the network dropped it).  Payload envelopes use the engine's
#: ``send``/``loss`` + ``receive``/``deliver`` vocabulary instead.
CONTROL_KINDS = ("pull_request", "pull_reply", "view_shuffle")

#: The payload marker of :class:`VariantMessage.kind`.
PAYLOAD = "payload"


class VariantMessage:
    """A gossip message of a non-tree variant.

    Mirrors the duck type :meth:`LossyNetwork.transmit` relies on
    (``message.sender``) and the trace emission relies on
    (``message.event.event_id`` / ``message.depth``), so variant
    envelopes travel through the exact same network and fault plane as
    pmcast envelopes.

    Attributes:
        sender: the emitting process.
        kind: ``"payload"`` or one of :data:`CONTROL_KINDS`.
        event: the event being disseminated (control messages carry it
            too: a ``pull_reply`` *is* the event in flight).
        depth: tree depth for pmcast-style accounting; ``None`` for the
            flat variants (their traffic has no subtree scope).
        view: an optional membership sample piggybacked on the message
            (the bounded-view shuffle payload).
    """

    __slots__ = ("sender", "kind", "event", "depth", "view")

    def __init__(self, sender, kind, event, depth=None, view=None):
        self.sender = sender
        self.kind = kind
        self.event = event
        self.depth = depth
        self.view = view


class VariantEnvelope:
    """One addressed :class:`VariantMessage` (network transfer unit)."""

    __slots__ = ("destination", "message")

    def __init__(self, destination, message):
        self.destination = destination
        self.message = message


class DisseminationVariant(ABC):
    """One dissemination strategy, pluggable into :func:`run_variant`.

    A variant owns the *who-talks-to-whom* state of a single run (it is
    single-use): the infected set, per-process send budgets, partial
    views, pending pulls.  The driver owns the round structure and
    everything observable around it.  Subclasses fill in the abstract
    hooks; the three class attributes label the run's observability:

    * ``name`` — short identifier (bench tables, docs);
    * ``producer`` — the trace's ``meta["producer"]``;
    * ``subsystem`` — the timeline span subsystem.
    """

    name: str = "variant"
    producer: str = "repro.variants"
    subsystem: str = "variants"

    @property
    @abstractmethod
    def depth(self) -> int:
        """Length of the report's ``messages_by_distance`` histogram."""

    @abstractmethod
    def trace_meta(self) -> Dict[str, Any]:
        """The run metadata annotated onto the trace before round 0.

        Must carry whatever ``python -m repro.obs summarize`` needs to
        reproduce the report's ratios (publisher, interested ground
        truth, seed) — see the engine's annotation for the contract.
        """

    @abstractmethod
    def begin(self, emit: Optional[Emit]) -> None:
        """Seed the publisher (round 0) and emit its publish/deliver."""

    @abstractmethod
    def crash(self, victim: Address) -> bool:
        """Apply one crash; True when the victim was alive (emit it)."""

    @abstractmethod
    def is_active(self) -> bool:
        """True while some process still has protocol work pending."""

    @abstractmethod
    def senders(self, rounds: int) -> List[Address]:
        """The processes that fire in round ``rounds``, in the order
        their draws are taken (the order feeds the shared streams)."""

    @abstractmethod
    def fan_out_one(self, address: Address, rounds: int) -> List[Any]:
        """One process's envelopes for round ``rounds``, from its own
        state only: :func:`run_variant` fires each :meth:`senders`
        entry once a round, the event-driven runtime
        (:mod:`repro.net.runtime`) each process from its own timer."""

    @abstractmethod
    def is_process_active(self, address: Address) -> bool:
        """Whether ``address`` still has protocol work pending.

        Every :meth:`senders` entry is active when it fires.  Event
        runtimes use this for lazy timer cancellation: a popped timer
        whose process went idle or crashed is skipped without
        consuming any randomness.
        """

    @abstractmethod
    def receive(
        self, envelope: Any, emit: Optional[Emit], rounds: int
    ) -> None:
        """Apply one delivered envelope (and emit receive/deliver)."""

    @abstractmethod
    def infected_count(self) -> int:
        """Processes holding the event (the infection-curve sample)."""

    @abstractmethod
    def finalize(
        self,
        rounds: int,
        infection_curve: Tuple[int, ...],
        messages_by_distance: Tuple[int, ...],
        link: LossyNetwork,
        crash_schedule: CrashSchedule,
    ) -> DisseminationReport:
        """Assemble the run's :class:`DisseminationReport`.

        ``link`` is the run's network, or the fault plan wrapping it.
        """

    def emit_dispositions(
        self,
        envelopes: Sequence[Any],
        arrived: frozenset,
        diverted: frozenset,
        emit: Emit,
        rounds: int,
    ) -> None:
        """One transport-disposition record per envelope per round.

        The default is the engine's convention
        (:func:`emit_dispositions`).  Variants with control traffic
        override this to emit the :data:`CONTROL_KINDS`.
        """
        emit_dispositions(envelopes, arrived, diverted, emit, rounds)


def emit_dispositions(
    envelopes: Sequence[Any],
    arrived: Collection[int],
    diverted: Collection[int],
    emit: Emit,
    rounds: int,
) -> None:
    """The engine's disposition records for one round's envelopes:
    ``send`` when the network delivered the envelope (its ``id`` is in
    ``arrived``), ``loss`` when it dropped it, nothing when the link
    diverted it (a fault plan emitted its own ``fault_*`` record)."""
    for envelope in envelopes:
        if id(envelope) in diverted:
            continue
        kind = "send" if id(envelope) in arrived else "loss"
        emit(
            rounds,
            kind,
            envelope.message.sender,
            peer=envelope.destination,
            event_id=envelope.message.event.event_id,
            depth=envelope.message.depth,
        )


def crash_step(
    variant: DisseminationVariant,
    crash_schedule: CrashSchedule,
    link: LossyNetwork,
    round_index: int,
    emit: Optional[Emit],
) -> None:
    """Open ``round_index`` on the link and crash the round's victims:
    the τ-model schedule's, then whoever the link scripted."""
    victims = crash_schedule.crashes_at(round_index)
    victims = victims + [
        victim
        for victim in link.begin_round(round_index)
        if victim not in victims
    ]
    for victim in victims:
        if variant.crash(victim) and emit is not None:
            emit(round_index + 1, "crash", victim)


def run_variant(
    variant: DisseminationVariant,
    sim_config: SimConfig,
    link: LossyNetwork,
    crash_schedule: CrashSchedule,
    observer: Observer = NULL_OBSERVER,
) -> DisseminationReport:
    """Drive one dissemination strategy through the shared round loop.

    The round skeleton — crash step, ``fan_out`` span (one
    ``fan_out_one`` per ``senders`` entry), ``exchange`` span,
    infection curve, trace dispositions — is the engine's, verbatim;
    the strategy hooks plug into it.  The caller prepares the
    RNG-bearing collaborators (link, crash schedule) so each variant
    keeps its own stream labels.

    Args:
        variant: the single-use strategy instance.
        sim_config: supplies ``max_rounds`` (the safety cap).
        link: the ε-loss network, or the fault plan's link wrapping
            it (:mod:`repro.faults`; its RNG streams belong to the
            caller's labeling scheme).
            Per round the driver calls ``begin_round`` then
            ``transmit``.
        crash_schedule: the τ-model crash plan.
        observer: what the run is observed through — its trace
            destination gets the ``repro.obs.trace/v1`` records
            (sampled by its sampler; ``fault_*`` records are kept at
            any rate: :func:`repro.obs.sampling.is_exact`), its timeline the
            per-round ``fan_out``/``exchange`` spans under
            ``variant.subsystem``.

    Returns:
        the variant's :class:`~repro.sim.metrics.DisseminationReport`.
    """
    timeline = observer.timeline
    emit = observer.emit if observer.tracing else None
    if emit is not None:
        observer.annotate(**variant.trace_meta())
    variant.begin(emit)

    infection_curve: List[int] = []
    messages_by_distance = [0] * variant.depth
    rounds = 0
    for round_index in range(sim_config.max_rounds):
        crash_step(variant, crash_schedule, link, round_index, emit)
        if not variant.is_active() and not link.has_pending:
            break
        rounds = round_index + 1

        with timeline.span("fan_out", variant.subsystem, rounds):
            envelopes = [
                envelope
                for address in variant.senders(rounds)
                for envelope in variant.fan_out_one(address, rounds)
            ]
            for envelope in envelopes:
                hops = distance(envelope.message.sender, envelope.destination)
                messages_by_distance[max(hops, 1) - 1] += 1

        with timeline.span("exchange", variant.subsystem, rounds):
            delivered_envelopes = link.transmit(envelopes)
            if emit is not None:
                arrived = frozenset(
                    id(envelope) for envelope in delivered_envelopes
                )
                variant.emit_dispositions(
                    envelopes, arrived, link.last_diverted, emit, rounds
                )
            for envelope in delivered_envelopes:
                variant.receive(envelope, emit, rounds)

        infection_curve.append(variant.infected_count())

    timeline.probe_memory(subsystem=variant.subsystem, round_index=rounds)
    observer.annotate(rounds=rounds, **link.trace_meta())
    return variant.finalize(
        rounds,
        tuple(infection_curve),
        tuple(messages_by_distance),
        link,
        crash_schedule,
    )
