"""Scripted and randomized churn over a live group.

§2.3's membership machinery exists because "the composition of the
overall group (interests, processes) varies"; this module makes that
variation a first-class workload:

* :class:`ChurnEvent` / :class:`ChurnSchedule` — a deterministic script
  of joins, graceful leaves and silent crashes, applied round by round
  to a :class:`~repro.sim.runtime.GroupRuntime`;
* :func:`poisson_churn` — a randomized schedule with independent
  join/leave/crash rates per round, drawing joining addresses from a
  balanced :class:`~repro.addressing.allocation.AddressAllocator`;
* :func:`run_with_churn` — drive a runtime through a schedule while
  publishing a stream of events, returning per-event delivery against
  the membership *at publish time* (the only fair referee under churn).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.addressing import Address
from repro.addressing.allocation import AddressAllocator
from repro.errors import AddressError, MembershipError, SimulationError
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.sim.runtime import GroupRuntime

__all__ = ["ChurnEvent", "ChurnSchedule", "poisson_churn", "run_with_churn"]

ACTIONS = ("join", "leave", "crash")


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change at one round."""

    round: int
    action: str
    address: Address
    interest: Optional[Interest] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise SimulationError(f"unknown churn action {self.action!r}")
        if self.round < 0:
            raise SimulationError(f"negative round {self.round}")
        if self.action == "join" and self.interest is None:
            raise SimulationError("a join needs an interest")


class ChurnSchedule:
    """An ordered script of churn events."""

    def __init__(self, events: Sequence[ChurnEvent] = ()):
        self._events: Dict[int, List[ChurnEvent]] = {}
        for event in events:
            self._events.setdefault(event.round, []).append(event)

    @property
    def total_events(self) -> int:
        """How many membership changes the schedule holds."""
        return sum(len(batch) for batch in self._events.values())

    def at(self, round_index: int) -> List[ChurnEvent]:
        """The changes scheduled for one round, in insertion order."""
        return list(self._events.get(round_index, ()))

    def apply(self, runtime: GroupRuntime, round_index: int) -> int:
        """Apply this round's changes to the runtime; returns the count.

        Changes that have become impossible (the member already left,
        crashed or was excluded; a joiner's address got taken) are
        skipped — churn scripts are best-effort against a moving group.
        """
        applied = 0
        for event in self.at(round_index):
            try:
                if event.action == "join":
                    runtime.join(event.address, event.interest)
                elif event.action == "leave":
                    runtime.leave(event.address)
                elif runtime.node(event.address).alive:
                    runtime.crash(event.address)
                else:
                    continue
                applied += 1
            except (MembershipError, SimulationError):
                continue
        return applied


def poisson_churn(
    allocator: AddressAllocator,
    initial_members: Sequence[Address],
    interest_factory: Callable[[random.Random], Interest],
    rounds: int,
    join_rate: float,
    leave_rate: float,
    crash_rate: float,
    rng: random.Random,
) -> ChurnSchedule:
    """A randomized churn script with per-round Bernoulli arrivals.

    Args:
        allocator: hands out addresses for joiners and takes back each
            leaver's (must already have the initial members reserved).
        initial_members: the members leaves/crashes may pick from
            (updated as the script evolves).
        interest_factory: builds each joiner's subscription.
        rounds: script length.
        join_rate / leave_rate / crash_rate: per-round probabilities of
            one event of each kind.
        rng: the churn randomness.
    """
    for rate in (join_rate, leave_rate, crash_rate):
        if not 0.0 <= rate <= 1.0:
            raise SimulationError(f"churn rate {rate} not in [0, 1]")
    alive = list(initial_members)
    events: List[ChurnEvent] = []
    for round_index in range(rounds):
        if rng.random() < join_rate:
            try:
                address = allocator.allocate()
            except AddressError:
                address = None   # space exhausted: no more joiners
            if address is not None:
                events.append(
                    ChurnEvent(
                        round_index, "join", address, interest_factory(rng)
                    )
                )
                alive.append(address)
        if alive and rng.random() < leave_rate:
            victim = alive.pop(rng.randrange(len(alive)))
            events.append(ChurnEvent(round_index, "leave", victim))
            # A leaver's address goes back to the pool for a later join;
            # a crashed member's is never freed.
            allocator.release(victim)
        if alive and rng.random() < crash_rate:
            victim = alive.pop(rng.randrange(len(alive)))
            events.append(ChurnEvent(round_index, "crash", victim))
    return ChurnSchedule(events)


def run_with_churn(
    runtime: GroupRuntime,
    schedule: ChurnSchedule,
    publishes: Sequence[Tuple[int, Address, Event]],
    rounds: int,
) -> List[Dict[str, object]]:
    """Drive the runtime through churn while publishing a stream.

    Args:
        runtime: the live group.
        schedule: membership changes per round.
        publishes: ``(round, publisher, event)`` triples; a publish
            whose publisher is gone by its round is skipped (recorded
            with ``published = False``).
        rounds: how many rounds to run in total.

    Returns:
        one record per requested publish:
        ``{event, published, interested_at_publish, delivered}`` where
        ``interested_at_publish`` lists the interested members at
        publish time and ``delivered`` those of them that delivered by
        the end of the run (crashed/left members cannot deliver — that
        is churn's honest cost).
    """
    by_round: Dict[int, List[Tuple[Address, Event]]] = {}
    for publish_round, publisher, event in publishes:
        by_round.setdefault(publish_round, []).append((publisher, event))

    records: List[Dict[str, object]] = []
    for round_index in range(rounds):
        schedule.apply(runtime, round_index)
        for publisher, event in by_round.get(round_index, ()):
            record: Dict[str, object] = {"event": event}
            try:
                interested = [
                    address
                    for address in runtime.tree.members()
                    if runtime.tree.interest_of(address).matches(event)
                ]
                runtime.publish(publisher, event)
                record["published"] = True
                record["interested_at_publish"] = sorted(interested)
            except SimulationError:
                record["published"] = False
                record["interested_at_publish"] = []
            records.append(record)
        runtime.step()
    runtime.run_until_idle()

    for record in records:
        if record["published"]:
            event = record["event"]
            record["delivered"] = [
                address
                for address in record["interested_at_publish"]
                if address in runtime.tree
                and runtime.node(address).has_delivered(event)
            ]
        else:
            record["delivered"] = []
    return records
