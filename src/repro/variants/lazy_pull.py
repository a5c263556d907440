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
  **bit-identically**: the threshold can only be crossed when nobody
  is left to pull, so the push phase runs to budget exhaustion on
  exactly the flat baseline's RNG streams (:class:`FlatPushVariant` is
  the superclass *and* the stream labels are shared);
* ``infection_threshold=0.0`` is pure pull: only the publisher ever
  pushes nothing, everyone else must ask.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Tuple

from repro.addressing import Address
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

__all__ = ["LazyPullVariant", "lazy_pull_broadcast"]


class LazyPullVariant(FlatPushVariant):
    """Push to an infection threshold, then pull-based recovery."""

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
        self.pushing = True
        #: round each process got infected (the store-horizon clock).
        self.infection_round: Dict[Address, int] = {publisher: 0}
        #: (replier, requester) pairs answered next round, in the
        #: deterministic order the requests arrived.
        self.pending_replies: List[Tuple[Address, Address]] = []
        #: pull attempts left per uninfected process (set at the
        #: phase switch; insertion order = address order).
        self.retries: Dict[Address, int] = {}

    def trace_meta(self):
        meta = super().trace_meta()
        meta["infection_threshold"] = self.infection_threshold
        return meta

    # -- phase machinery -------------------------------------------------

    def _should_switch(self) -> bool:
        """Cross into the pull phase?  Only when the threshold is met
        *and* someone is left to recover — with nobody uninfected the
        pull phase has no purpose and push runs to exhaustion, which is
        what makes ``infection_threshold=1.0`` the exact baseline."""
        if len(self.infected) < self.infection_threshold * len(
            self.addresses
        ):
            return False
        return any(
            address not in self.infected and address not in self.dead
            for address in self.addresses
        )

    def _stores(self, holder: Address, rounds: int) -> bool:
        if self.store_horizon is None:
            return True
        return rounds - self.infection_round[holder] <= self.store_horizon

    def on_first_infection(self, destination: Address, rounds: int) -> None:
        self.infection_round[destination] = rounds

    def grant_push_budget(self, destination: Address) -> None:
        # Processes infected during the pull phase deliver but do not
        # resume pushing — the push phase is over.
        if self.pushing:
            super().grant_push_budget(destination)

    def crash(self, victim: Address) -> bool:
        crashed = super().crash(victim)
        if crashed:
            self.retries.pop(victim, None)
        return crashed

    def is_active(self) -> bool:
        if self.pushing:
            return super().is_active()
        if self.pending_replies:
            return True
        return any(
            budget > 0
            and address not in self.infected
            and address not in self.dead
            for address, budget in self.retries.items()
        )

    # -- driver hooks ----------------------------------------------------

    def fan_out(self, rounds: int) -> List[VariantEnvelope]:
        if self.pushing:
            if not self._should_switch():
                return self.push_step()
            self.pushing = False
            self.rounds_left.clear()
            self.retries = {
                address: self.retry_budget
                for address in self.addresses
                if address not in self.infected
                and address not in self.dead
            }
        envelopes: List[VariantEnvelope] = []
        for replier, requester in self.pending_replies:
            if replier in self.dead:
                continue  # crashed while the reply was queued
            self.messages_sent += 1
            self.control_messages += 1
            envelopes.append(
                VariantEnvelope(
                    requester,
                    VariantMessage(replier, "pull_reply", self.event),
                )
            )
        self.pending_replies = []
        for address in self.addresses:
            if address in self.infected or address in self.dead:
                continue
            budget = self.retries.get(address, 0)
            if budget <= 0:
                continue
            self.retries[address] = budget - 1
            drawn = self.gossip_rng.sample(
                self.targets, min(self.pull_fanout + 1, len(self.targets))
            )
            picks = [t for t in drawn if t != address][: self.pull_fanout]
            message = VariantMessage(address, "pull_request", self.event)
            for peer in picks:
                self.messages_sent += 1
                self.control_messages += 1
                envelopes.append(VariantEnvelope(peer, message))
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
                self.pending_replies.append((destination, message.sender))
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
