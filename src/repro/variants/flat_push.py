"""Flat push gossip as a :class:`DisseminationVariant`.

This is the historical :mod:`repro.baselines.flat` inner loop — every
infected process gossips the event to ``fanout`` uniformly random
members for a Pittel-bound number of rounds — restated against the
strategy seam, with two consequences:

* :func:`repro.baselines.flat.flat_gossip_broadcast` and
  :func:`~repro.baselines.flat.flat_genuine_multicast` now run through
  :func:`repro.variants.base.run_variant` and gained trace/fault
  support for free, while keeping the *exact* RNG draw order of the
  pre-extraction loop (same ``flat-gossip``/``flat-network`` streams,
  same ``sample(targets, fanout+1)`` self-discard trick, same
  dead-destination-counts-as-loss accounting) — reports are
  bit-identical;
* the lazy-pull and bounded-view variants subclass this class, so
  their push phases are the flat baseline *by construction* (the
  threshold-1.0 degeneration test in ``tests/variants`` pins it).

Loss accounting nuance: the network's ε draw happens first (in
:meth:`LossyNetwork.transmit`, consuming the ``flat-network`` stream
exactly as the inline loop did), and an envelope that survives ε but
addresses a crashed process is counted as lost by the variant
(``extra_lost``) — the flat baselines always scored dead-letter
envelopes as losses, unlike the engine, which bills them to the
sender-side ``send`` record.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import random

from repro.addressing import Address
from repro.core.rounds import pittel_rounds, round_bound
from repro.errors import SimulationError
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.obs.probes import NULL_OBSERVER, Observer
from repro.obs.trace import dissemination_meta
from repro.sim.crashes import CrashSchedule
from repro.sim.metrics import DisseminationReport
from repro.sim.network import LossyNetwork
from repro.variants.base import (
    PAYLOAD,
    DisseminationVariant,
    Emit,
    VariantEnvelope,
    VariantMessage,
)

__all__ = ["FlatPushVariant", "FLAT_MAX_ROUND_BOUND", "run_flat_style"]

# Flat groups are large (the whole n), so allow the Pittel bound room.
FLAT_MAX_ROUND_BOUND = 128


class FlatPushVariant(DisseminationVariant):
    """Budgeted flat push over the full (or interested-only) population.

    Args:
        members: the full member -> interest mapping.
        publisher: the multicasting process (must be a member).
        event: the event to disseminate.
        fanout: gossip targets per process per round (>= 1).
        gossip_rng: the target-draw stream (label ``"flat-gossip"``).
        seed: the run's master seed (trace metadata only).
        restrict_to_interested: genuine-multicast mode — gossip targets
            only interested processes (plus the publisher).
    """

    name = "flat_push"
    producer = "repro.baselines.flat"

    def __init__(
        self,
        members: Mapping[Address, Interest],
        publisher: Address,
        event: Event,
        fanout: int,
        gossip_rng: random.Random,
        seed: int,
        restrict_to_interested: bool = False,
    ) -> None:
        if publisher not in members:
            raise SimulationError(f"publisher {publisher} is not a member")
        if fanout < 1:
            raise SimulationError(f"fanout {fanout} must be >= 1")
        self.members = members
        self.publisher = publisher
        self.event = event
        self.fanout = fanout
        self.gossip_rng = gossip_rng
        self.seed = seed
        self.restrict_to_interested = restrict_to_interested

        self.addresses = sorted(members)
        self.interested = {
            address
            for address in self.addresses
            if members[address].matches(event)
        }
        if restrict_to_interested:
            # Genuine multicast: the run involves only interested
            # processes (plus the publisher, who always knows what it
            # published).
            population = sorted(self.interested | {publisher})
            self.bound = round_bound(
                pittel_rounds(len(self.interested), fanout),
                maximum=FLAT_MAX_ROUND_BOUND,
            )
            self.targets = [
                address for address in population if address != publisher
            ]
        else:
            self.bound = round_bound(
                pittel_rounds(len(self.addresses), fanout),
                maximum=FLAT_MAX_ROUND_BOUND,
            )
            self.targets = list(self.addresses)

        # rounds_left[address] = gossip budget; present only once
        # infected, popped at a crash.  Insertion-ordered on purpose:
        # sender order feeds the shared gossip stream.
        self.rounds_left: Dict[Address, int] = {publisher: self.bound}
        self.infected: Set[Address] = {publisher}
        self.dead: Set[Address] = set()
        self.messages_sent = 0
        self.control_messages = 0
        self.duplicate_receptions = 0
        self.extra_lost = 0  # ε survivors addressed to crashed processes

    # -- driver hooks ----------------------------------------------------

    @property
    def depth(self) -> int:
        return self.publisher.depth

    def trace_meta(self) -> Dict[str, Any]:
        meta = dissemination_meta(
            self.producer,
            self.publisher,
            self.event.event_id,
            len(self.addresses),
            self.interested,
            self.seed,
        )
        meta["variant"] = self.name
        return meta

    def begin(self, emit: Optional[Emit]) -> None:
        if emit is not None:
            emit(0, "publish", self.publisher, event_id=self.event.event_id)
            if self.publisher in self.interested:
                emit(
                    0, "deliver", self.publisher,
                    event_id=self.event.event_id,
                )

    def crash(self, victim: Address) -> bool:
        if victim in self.dead:
            return False
        self.dead.add(victim)
        self.rounds_left.pop(victim, None)
        return True

    def is_active(self) -> bool:
        return any(budget > 0 for budget in self.rounds_left.values())

    def senders(self, rounds: int) -> List[Address]:
        return [
            address
            for address, budget in self.rounds_left.items()
            if budget > 0
        ]

    def is_process_active(self, address: Address) -> bool:
        return self.rounds_left.get(address, 0) > 0

    def fan_out_one(
        self, address: Address, rounds: int
    ) -> List[VariantEnvelope]:
        """One budgeted push: spend a round of budget, then gossip."""
        self.rounds_left[address] -= 1
        envelopes = self.push(address)
        self.messages_sent += len(envelopes)
        return envelopes

    def push(self, sender: Address) -> List[VariantEnvelope]:
        """The payload envelopes of one push by ``sender``."""
        message = VariantMessage(sender, PAYLOAD, self.event)
        return [
            VariantEnvelope(destination, message)
            for destination in self.draw_peers(sender, self.fanout)
        ]

    def draw_peers(self, sender: Address, count: int) -> List[Address]:
        """``count`` uniform picks from the targets, never ``sender``.

        One extra candidate is drawn so a self-hit can be discarded
        without copying the whole target list per sender.
        """
        if self.targets == [sender]:
            return []
        drawn = self.gossip_rng.sample(
            self.targets, min(count + 1, len(self.targets))
        )
        return [t for t in drawn if t != sender][:count]

    def emit_dispositions(
        self, envelopes, arrived, diverted, emit, rounds
    ) -> None:
        """Payloads use ``send``/``loss``; control kinds carry their
        own record with ``value`` 1 (arrived) or 0 (dropped)."""
        for envelope in envelopes:
            if id(envelope) in diverted:
                continue
            message = envelope.message
            delivered = id(envelope) in arrived
            if message.kind == PAYLOAD:
                emit(
                    rounds,
                    "send" if delivered else "loss",
                    message.sender,
                    peer=envelope.destination,
                    event_id=message.event.event_id,
                )
            else:
                emit(
                    rounds,
                    message.kind,
                    message.sender,
                    peer=envelope.destination,
                    event_id=message.event.event_id,
                    value=1 if delivered else 0,
                )

    def receive(
        self,
        envelope: VariantEnvelope,
        emit: Optional[Emit],
        rounds: int,
    ) -> None:
        destination = envelope.destination
        if destination in self.dead:
            # The flat baselines score dead-letter envelopes as losses.
            self.extra_lost += 1
            return
        self.receive_payload(destination, envelope.message, emit, rounds)

    def receive_payload(
        self,
        destination: Address,
        message: VariantMessage,
        emit: Optional[Emit],
        rounds: int,
    ) -> None:
        """Apply one payload arrival at a live process."""
        if emit is not None:
            emit(
                rounds,
                "receive",
                destination,
                peer=message.sender,
                event_id=message.event.event_id,
            )
        if destination in self.infected:
            self.duplicate_receptions += 1
            return
        self.infected.add(destination)
        # A freshly infected process starts gossiping next round.
        self.rounds_left[destination] = self.bound
        if emit is not None and destination in self.interested:
            emit(
                rounds,
                "deliver",
                destination,
                event_id=message.event.event_id,
            )
        self.on_first_infection(destination, rounds)

    def on_first_infection(self, destination: Address, rounds: int) -> None:
        """Subclass hook: called once per process, at infection time."""

    def infected_count(self) -> int:
        return len(self.infected)

    def finalize(
        self,
        rounds: int,
        infection_curve: Tuple[int, ...],
        messages_by_distance: Tuple[int, ...],
        link: LossyNetwork,
        crash_schedule: CrashSchedule,
    ) -> DisseminationReport:
        uninterested = [
            address
            for address in self.addresses
            if address not in self.interested and address != self.publisher
        ]
        return DisseminationReport(
            group_size=len(self.addresses),
            interested=len(self.interested),
            uninterested=len(uninterested),
            delivered_interested=sum(
                1 for address in self.interested if address in self.infected
            ),
            received_uninterested=sum(
                1 for address in uninterested if address in self.infected
            ),
            received_total=len(self.infected),
            crashed=crash_schedule.victim_count + link.scripted_crashes,
            rounds=rounds,
            messages_sent=self.messages_sent,
            messages_lost=link.messages_lost + self.extra_lost,
            duplicate_receptions=self.duplicate_receptions,
            control_messages=self.control_messages,
            infection_curve=infection_curve,
            messages_by_distance=messages_by_distance,
        )


def run_flat_style(
    variant: FlatPushVariant,
    sim_config,
    crash_schedule: Optional[CrashSchedule] = None,
    faults=None,
    observer: Observer = NULL_OBSERVER,
) -> DisseminationReport:
    """Drive a flat-style variant with the flat baselines' RNG scheme.

    The network stream is ``("flat-network", event_id)``, crash
    sampling is ``("flat-crash", event_id)`` over ``max(bound, 1)``
    rounds, and the fault injector (when a plan is given) gets its own
    ``("flat-faults", event_id)`` stream over a
    :class:`~repro.membership.tree.MembershipTree` built from the
    member mapping — so a faulted run with the same seed leaves the
    gossip/network/crash draws untouched, exactly like the engine.
    """
    from repro.sim.rng import derive_rng
    from repro.variants.base import run_variant

    event_id = variant.event.event_id
    link = LossyNetwork(
        sim_config.loss_probability,
        derive_rng(sim_config.seed, "flat-network", event_id),
    )
    if crash_schedule is None:
        crash_schedule = CrashSchedule.sample(
            variant.addresses,
            sim_config.crash_fraction,
            horizon=max(variant.bound, 1),
            rng=derive_rng(sim_config.seed, "flat-crash", event_id),
        )
    if faults is not None:
        from repro.faults.injector import FaultInjector
        from repro.membership.tree import MembershipTree

        link = FaultInjector(
            faults,
            MembershipTree.build(variant.members, redundancy=1),
            derive_rng(sim_config.seed, "flat-faults", event_id),
            link,
            observer.emit if observer.tracing else None,
        )
    return run_variant(variant, sim_config, link, crash_schedule, observer)
