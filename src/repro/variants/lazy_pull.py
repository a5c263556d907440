"""Lazy probabilistic broadcast: epidemic push, then pull recovery.

The push-then-pull design of ``LazyProbabilisticBroadcast`` (Algo
3.10): gossip eagerly only until an infection-fraction threshold is
crossed — "gossiping until, say, half of the processes are infected is
efficient" — then stop pushing and let the *uninfected* processes
recover the event by **pulling**: each round, every uninfected live
process asks ``pull_fanout`` uniformly random peers for the missing
event (a ``pull_request``); an infected peer still storing the event
answers next round with a ``pull_reply`` carrying it.  Requests and
replies travel through the same ε-lossy network as payload gossip, and
every control message is billed to the run's message cost, so the
bench comparison against pure push and pmcast is apples to apples.

No process can count the infected, so the threshold is met in
expectation: every process switches at the horizon round
:func:`pull_horizon` computes from (n, F, threshold) alone, and from
it on nobody pushes.  The run stays active until then, so a push phase
that stalled early (every envelope lost) still reaches the pull phase.

Three knobs bound the recovery phase:

* ``pull_fanout`` — peers asked per uninfected process per round;
* ``retry_budget`` — pull rounds each uninfected process may attempt
  before giving up (the phase's termination guarantee);
* ``store_horizon`` — rounds an infected process keeps the event
  available for replies after its own infection (``None`` = forever);
  an expired peer simply stays silent, modelling the lazy garbage
  collection that gives the algorithm its name.

Degenerations (pinned by ``tests/variants``):

* ``infection_threshold=1.0`` is the pure-push flat baseline,
  **bit-identically**: the pull phase never starts, so push runs to
  budget exhaustion on exactly the flat baseline's RNG streams
  (:class:`FlatPushVariant` is the superclass *and* the labels match);
* ``infection_threshold=0.0`` is pure pull: the horizon is round 1.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional

from repro.addressing import Address
from repro.analysis.markov import reach_probability
from repro.config import SimConfig
from repro.errors import SimulationError
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.obs.probes import NULL_OBSERVER, Observer
from repro.sim.crashes import CrashSchedule
from repro.sim.metrics import DisseminationReport
from repro.sim.rng import derive_rng
from repro.variants.base import Emit, VariantEnvelope, VariantMessage
from repro.variants.flat_push import FlatPushVariant, run_flat_style

__all__ = ["LazyPullVariant", "lazy_pull_broadcast", "pull_horizon"]


def pull_horizon(
    n: int, fanout: int, infection_threshold: float
) -> Optional[int]:
    """The first pull round: one more than the first round at which
    the flat chain's expected infected count reaches threshold · n.

    The count is Eq 10's mean in mean-field form, ``I ← I + (n − I)(1 −
    q^I)`` from ``I = 1`` (Eq 8's ``q``), without the n × n chain.  It
    only approaches n: ``None`` (never) when it cannot get there.
    """
    if infection_threshold >= 1.0:
        return None
    q = 1.0 - reach_probability(n, fanout)
    expected, rounds = 1.0, 0
    while expected < infection_threshold * n:
        grown = expected + (n - expected) * (1.0 - q ** expected)
        if grown == expected:
            return None
        expected, rounds = grown, rounds + 1
    return rounds + 1


class LazyPullVariant(FlatPushVariant):
    """Push until the horizon round, then pull-based recovery."""

    name = "lazy_pull"
    producer = "repro.variants.lazy_pull"

    def __init__(
        self,
        members: Mapping[Address, Interest],
        publisher: Address,
        event: Event,
        fanout: int,
        gossip_rng: random.Random,
        seed: int,
        infection_threshold: float = 0.5,
        pull_fanout: int = 2,
        retry_budget: int = 8,
        store_horizon: Optional[int] = None,
    ) -> None:
        if not 0.0 <= infection_threshold <= 1.0:
            raise SimulationError(
                f"infection_threshold {infection_threshold} not in [0, 1]"
            )
        if pull_fanout < 1:
            raise SimulationError(f"pull_fanout {pull_fanout} must be >= 1")
        if retry_budget < 0:
            raise SimulationError(f"retry_budget {retry_budget} must be >= 0")
        if store_horizon is not None and store_horizon < 0:
            raise SimulationError(
                f"store_horizon {store_horizon} must be >= 0"
            )
        super().__init__(
            members, publisher, event, fanout, gossip_rng, seed,
            restrict_to_interested=False,
        )
        self.infection_threshold = infection_threshold
        self.pull_fanout = pull_fanout
        self.retry_budget = retry_budget
        self.store_horizon = store_horizon
        #: the first pull round; push budgets are never read from it on.
        self.switch_round = pull_horizon(
            len(self.addresses), fanout, infection_threshold
        )
        self.pulling = False
        #: round each process got infected (the store-horizon clock).
        self.infection_round: Dict[Address, int] = {publisher: 0}
        #: replier -> the requesters it answers next round, in the
        #: order the requests arrived.
        self.pending_replies: Dict[Address, List[Address]] = {}
        #: pull attempts left per uninfected process (set at the
        #: switch, in address order; a process leaves once infected).
        self.retries: Dict[Address, int] = {}

    def trace_meta(self):
        meta = super().trace_meta()
        meta["infection_threshold"] = self.infection_threshold
        return meta

    def _stores(self, holder: Address, rounds: int) -> bool:
        if self.store_horizon is None:
            return True
        return rounds - self.infection_round[holder] <= self.store_horizon

    def on_first_infection(self, destination: Address, rounds: int) -> None:
        self.infection_round[destination] = rounds
        self.retries.pop(destination, None)

    def crash(self, victim: Address) -> bool:
        crashed = super().crash(victim)
        if crashed:
            self.retries.pop(victim, None)
            self.pending_replies.pop(victim, None)
        return crashed

    # -- driver hooks ----------------------------------------------------

    def is_active(self) -> bool:
        if not self.pulling:
            # A stalled push phase still reaches the pull phase.
            return self.switch_round is not None or super().is_active()
        return bool(self.pending_replies) or any(
            budget > 0 for budget in self.retries.values()
        )

    def senders(self, rounds: int) -> List[Address]:
        if self.switch_round is None or rounds < self.switch_round:
            return super().senders(rounds)
        if not self.pulling:
            # Round H on every process's clock: the uninfected pull.
            self.pulling = True
            self.retries = {
                address: self.retry_budget
                for address in self.addresses
                if address not in self.infected
                and address not in self.dead
            }
        return list(self.pending_replies) + [
            address for address, budget in self.retries.items() if budget > 0
        ]

    def is_process_active(self, address: Address) -> bool:
        if not self.pulling:
            return super().is_process_active(address)
        pending = address in self.pending_replies
        return pending or self.retries.get(address, 0) > 0

    def fan_out_one(
        self, address: Address, rounds: int
    ) -> List[VariantEnvelope]:
        if not self.pulling:
            return super().fan_out_one(address, rounds)
        # A replier holds the event and a puller lacks it: never both.
        if address in self.pending_replies:
            message = VariantMessage(address, "pull_reply", self.event)
            peers = self.pending_replies.pop(address)
        else:
            self.retries[address] -= 1
            message = VariantMessage(address, "pull_request", self.event)
            peers = self.draw_peers(address, self.pull_fanout)
        envelopes = [VariantEnvelope(peer, message) for peer in peers]
        self.messages_sent += len(envelopes)
        self.control_messages += len(envelopes)
        return envelopes

    def receive(
        self,
        envelope: VariantEnvelope,
        emit: Optional[Emit],
        rounds: int,
    ) -> None:
        destination = envelope.destination
        if destination in self.dead:
            self.extra_lost += 1
            return
        message = envelope.message
        if message.kind == "pull_request":
            # An infected peer still storing the event answers next
            # round; anyone else stays silent (no negative acks).
            if destination in self.infected and self._stores(
                destination, rounds
            ):
                self.pending_replies.setdefault(destination, []).append(
                    message.sender
                )
            return
        # pull_reply carries the event: receiving one is receiving the
        # payload (receive/deliver records, duplicate accounting).
        self.receive_payload(destination, message, emit, rounds)


def lazy_pull_broadcast(
    members: Mapping[Address, Interest],
    publisher: Address,
    event: Event,
    fanout: int = 2,
    sim_config: Optional[SimConfig] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    infection_threshold: float = 0.5,
    pull_fanout: int = 2,
    retry_budget: int = 8,
    store_horizon: Optional[int] = None,
    faults=None,
    observer: Observer = NULL_OBSERVER,
) -> DisseminationReport:
    """Disseminate one event with push-then-pull recovery.

    RNG streams are the flat baseline's (``flat-gossip`` /
    ``flat-network`` / ``flat-crash``), so
    ``infection_threshold=1.0`` reproduces
    :func:`repro.baselines.flat.flat_gossip_broadcast` bit for bit.
    """
    sim_config = sim_config or SimConfig()
    variant = LazyPullVariant(
        members,
        publisher,
        event,
        fanout,
        derive_rng(sim_config.seed, "flat-gossip", event.event_id),
        sim_config.seed,
        infection_threshold=infection_threshold,
        pull_fanout=pull_fanout,
        retry_budget=retry_budget,
        store_horizon=store_horizon,
    )
    return run_flat_style(
        variant,
        sim_config,
        crash_schedule=crash_schedule,
        faults=faults,
        observer=observer,
    )
