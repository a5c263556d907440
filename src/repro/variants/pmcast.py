"""The paper's pmcast dissemination as a :class:`DisseminationVariant`.

This is the engine's historical scalar loop, re-expressed against the
strategy seam of :mod:`repro.variants.base`.  It is an *exact* port:
the active set stays an insertion-ordered dict (gossip order feeds the
shared RNG; set order would leak ``PYTHONHASHSEED``), receptions apply
in envelope order, and the trace vocabulary (``publish``/``send``/
``loss``/``receive``/``deliver``/``crash``) is unchanged — so a run
through :func:`repro.variants.base.run_variant` is bit-identical to
the pre-extraction engine, which the golden-seed suites pin.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Dict, List, Optional, Tuple

from repro.addressing import Address
from repro.config import SimConfig
from repro.core.context import GossipContext
from repro.core.messages import Envelope
from repro.core.node import PmcastNode
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.interests.events import Event
from repro.obs.trace import dissemination_meta
from repro.sim.crashes import CrashSchedule
from repro.sim.group import PmcastGroup, RunOutcome, assemble_pmcast_report
from repro.sim.metrics import DisseminationReport
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_rng
from repro.variants.base import DisseminationVariant, Emit

__all__ = ["PmcastVariant", "prepare_pmcast_run"]


def prepare_pmcast_run(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    sim_config: SimConfig,
    crash_schedule: Optional[CrashSchedule],
    emit: Optional[Emit],
    faults: Optional[FaultPlan],
) -> Tuple[LossyNetwork, CrashSchedule, GossipContext]:
    """The seeded ``(link, crash_schedule, ctx)`` of a run.

    One RNG stream per concern, labelled ``gossip`` / ``network`` /
    ``crash`` / ``faults`` and keyed by the event id, so a fault plan
    or an explicit ``crash_schedule`` leaves the other streams' draws
    untouched.  The round engine and the event-driven runtime both
    start here, which is what lets the zero-jitter event run be
    bit-identical to the round run.  A missing schedule is sampled at
    ``sim_config.crash_fraction`` over ``max_rounds``; the link is the
    ε-lossy network at ``sim_config.loss_probability``, wrapped — here,
    once — by the injector replaying ``faults`` when a plan is given,
    which writes its ``fault_*`` records through the run's ``emit``.
    """
    seed, event_id = sim_config.seed, event.event_id
    gossip_rng = derive_rng(seed, "gossip", event_id)
    link = LossyNetwork(
        sim_config.loss_probability,
        derive_rng(seed, "network", event_id),
    )
    if crash_schedule is None:
        crash_schedule = CrashSchedule.sample(
            group.addresses(),
            sim_config.crash_fraction,
            horizon=sim_config.max_rounds,
            rng=derive_rng(seed, "crash", event_id),
        )
    if faults is not None:
        link = FaultInjector(
            faults,
            group.tree,
            derive_rng(seed, "faults", event_id),
            link,
            emit,
        )
    ctx = GossipContext(gossip_rng, threshold_h=group.config.threshold_h)
    group.check_publisher(publisher)
    return link, crash_schedule, ctx


class PmcastVariant(DisseminationVariant):
    """Tree-structured gossip over a wired :class:`PmcastGroup`.

    The variant wires a node from the group the first time the run
    touches a member (publish, crash or reception) and steps only
    those; ``finalize`` reads them into the run's
    :class:`~repro.sim.group.RunOutcome`, kept as ``outcome``, and
    scores it.
    """

    name = "pmcast"
    producer = "repro.sim.engine"
    subsystem = "engine"

    def __init__(
        self,
        group: PmcastGroup,
        publisher: Address,
        event: Event,
        ctx: GossipContext,
        sim_config: SimConfig,
    ) -> None:
        self.group = group
        self.publisher = publisher
        self.event = event
        self.ctx = ctx
        self.seed = sim_config.seed
        # The nodes the run touched, by address.
        self.nodes: Dict[Address, PmcastNode] = {}
        self.origin = self._node(publisher)
        # Ground truth for the metrics, before anybody crashes.
        self.wanted = group.interest_mask(event)
        # Insertion-ordered on purpose (see module docstring).
        self.active: Dict[Address, PmcastNode] = {publisher: self.origin}
        self.infected = {publisher}
        self.outcome: Optional[RunOutcome] = None

    def _node(self, address: Address) -> PmcastNode:
        """The run's node at ``address``, wired on first touch."""
        node = self.nodes.get(address)
        if node is None:
            node = self.nodes[address] = self.group.node(address)
        return node

    @property
    def depth(self) -> int:
        return self.group.tree.depth

    def trace_meta(self) -> Dict[str, Any]:
        return dissemination_meta(
            self.producer,
            self.publisher,
            self.event.event_id,
            self.group.size,
            set(compress(self.group.addresses(), self.wanted)),
            self.seed,
        )

    def begin(self, emit: Optional[Emit]) -> None:
        self.origin.pmcast(self.event, self.ctx)
        if emit is not None:
            emit(0, "publish", self.publisher, event_id=self.event.event_id)
            if self.origin.has_delivered(self.event):
                emit(
                    0, "deliver", self.publisher,
                    event_id=self.event.event_id,
                )

    def crash(self, victim: Address) -> bool:
        node = self._node(victim)
        if not node.alive:
            return False
        node.alive = False
        self.active.pop(victim, None)
        return True

    def is_active(self) -> bool:
        return bool(self.active)

    def senders(self, rounds: int) -> List[Address]:
        return list(self.active)

    def fan_out_one(self, address: Address, rounds: int) -> List[Envelope]:
        # One gossip_step on the shared RNG; an idle node leaves the
        # active set at once (gossip_step never reads the active set,
        # so the round's later senders draw the same either way).
        node = self.active[address]
        envelopes = node.gossip_step(self.ctx)
        if node.is_idle:
            del self.active[address]
        return envelopes

    def is_process_active(self, address: Address) -> bool:
        return address in self.active

    def receive(
        self, envelope: Envelope, emit: Optional[Emit], rounds: int
    ) -> None:
        receiver = self._node(envelope.destination)
        freshly_delivered = (
            emit is not None
            and not receiver.has_delivered(envelope.message.event)
        )
        receiver.receive(envelope.message, self.ctx)
        # A crashed process performs no protocol action, so it gets no
        # receive record — the sender-side send record already
        # documents the dead-letter envelope.
        if emit is not None and receiver.alive:
            emit(
                rounds,
                "receive",
                envelope.destination,
                peer=envelope.message.sender,
                event_id=envelope.message.event.event_id,
                depth=envelope.message.depth,
            )
            if freshly_delivered and receiver.has_delivered(
                envelope.message.event
            ):
                emit(
                    rounds,
                    "deliver",
                    envelope.destination,
                    event_id=envelope.message.event.event_id,
                )
        if receiver.alive:
            self.infected.add(envelope.destination)
            if not receiver.is_idle:
                self.active[envelope.destination] = receiver

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
        self.outcome = RunOutcome.from_nodes(self.group, self.nodes.values(), self.event)
        return assemble_pmcast_report(
            self.group,
            self.publisher,
            self.outcome,
            self.wanted,
            rounds,
            infection_curve,
            messages_by_distance,
            link.messages_lost,
            crash_schedule.victim_count + link.scripted_crashes,
        )
