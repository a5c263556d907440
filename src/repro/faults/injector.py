"""The fault-injection plane: replaying a :class:`FaultPlan` in a run.

A :class:`FaultInjector` wraps the run's
:class:`~repro.sim.network.LossyNetwork` and *is* the link: it presents
the network's shape (``begin_round`` → ``transmit`` →
``messages_sent``/``messages_lost``/``has_pending``/``last_diverted``/
``scripted_crashes``/``trace_meta``), so a driver holds one link and
never asks which it got — the link is chosen once, where it is built.
The injector applies its active clauses *before* the network's i.i.d.
loss draw — an envelope swallowed by a partition never touches the ε
stream — so the benign model underneath is exactly the one the analysis
assumes for the traffic that remains.

Determinism contract:

* the injector owns a **dedicated RNG stream** (callers derive it with
  a ``"faults"`` label); the gossip, network and crash streams are
  never touched;
* randomness is consumed **only while a probabilistic clause is
  actually active and in scope** — an empty plan, or one whose windows
  never open, leaves every stream untouched, so such a run is
  bit-identical to one with no injector at all;
* crash-clause resolution (delegate/depth targeting) uses sorted
  member order, never randomness.

Every injected fault is emitted as a ``repro.obs.trace/v1`` record
(kinds ``fault_loss | fault_delay | fault_release | fault_partition |
fault_heal | fault_crash``) through the ``emit`` callable — the run's
ordinary one, :meth:`Observer.emit <repro.obs.probes.Observer.emit>`,
whose sampler keeps every ``fault_*`` record by its own rule.  Records
are stamped ``round_index + 1`` for actions inside 0-based round
``round_index``, the convention of every round driver.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.addressing import Address, Prefix
from repro.core.messages import Envelope
from repro.faults.plan import (
    DelayWindow,
    DelegateCrash,
    DepthCrash,
    FaultPlan,
    LossBurst,
    Partition,
    TargetedCrash,
)
from repro.membership.tree import MembershipTree

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a sim cycle)
    from repro.sim.network import LossyNetwork

__all__ = [
    "FaultInjector",
    "FAULT_LOSS_BURST",
    "FAULT_LOSS_PARTITION",
]

#: ``value`` codes distinguishing the two ``fault_loss`` causes.
FAULT_LOSS_BURST = 1
FAULT_LOSS_PARTITION = 2

Emit = Callable[..., None]


def _marker(side: "Prefix") -> Address:
    """A representative address for a partition side in trace records.

    Trace records carry addresses, not prefixes; the subtree's prefix
    components double as a (possibly virtual) address that renders as
    the prefix string.  The root prefix renders as component 0.
    """
    return Address(side.components or (0,))


class FaultInjector:
    """The link of a faulted run: one :class:`FaultPlan` over one network.

    An injector is single-use: it carries per-run state (pending
    delayed envelopes, partition activation edges, whom it has already
    crashed, counters) and must not be shared between runs.

    Args:
        plan: the fault script.
        tree: the membership ground truth used to resolve delegate- and
            depth-targeted crash clauses at crash time.
        rng: the dedicated fault stream (derive with a ``"faults"``
            label; never pass the gossip or network stream).
        network: the ε-loss network every undisturbed envelope goes
            through.
        emit: optional trace callback with the
            :meth:`Observer.emit <repro.obs.probes.Observer.emit>`
            signature; every injected fault produces one record.
    """

    def __init__(
        self,
        plan: FaultPlan,
        tree: MembershipTree,
        rng: random.Random,
        network: "LossyNetwork",
        emit: Optional[Emit] = None,
    ):
        self._plan = plan
        self._tree = tree
        self._rng = rng
        self._network = network
        self._emit = emit
        self._bursts: List[LossBurst] = []
        self._partitions: List[Partition] = []
        self._delays: List[DelayWindow] = []
        self._crash_clauses: List = []
        for clause in plan:
            if isinstance(clause, LossBurst):
                self._bursts.append(clause)
            elif isinstance(clause, Partition):
                self._partitions.append(clause)
            elif isinstance(clause, DelayWindow):
                self._delays.append(clause)
            else:
                self._crash_clauses.append(clause)
        self._partition_up = [False] * len(self._partitions)
        self._round = 0
        self._pending: Dict[int, List[Envelope]] = {}
        self._diverted: frozenset = frozenset()
        self._scripted: Set[Address] = set()
        self._injected_losses = 0
        self._partition_drops = 0
        self._delayed = 0
        self._released = 0

    # -- inspection -------------------------------------------------------

    @property
    def messages_lost(self) -> int:
        """Envelopes the network's ε dropped (injected losses apart)."""
        return self._network.messages_lost

    @property
    def has_pending(self) -> bool:
        """True while delayed envelopes await release.

        Drivers must keep running rounds while this holds, even when
        every node is idle — a delayed envelope can re-activate the
        group.
        """
        return bool(self._pending)

    @property
    def last_diverted(self) -> frozenset:
        """``id()`` s of the envelopes the latest :meth:`transmit` call
        swallowed (fault losses) or held back (delays).

        Each such envelope already produced its own ``fault_*`` trace
        record; drivers consult this set to skip the ordinary
        ``send``/``loss`` record for it, keeping every envelope at
        exactly one disposition record per round.
        """
        return self._diverted

    @property
    def scripted_crashes(self) -> int:
        """Processes the plan has crashed so far, each counted once."""
        return len(self._scripted)

    def stats(self) -> Dict[str, int]:
        """Injection counters (also a registry collector payload)."""
        return {
            "injected_losses": self._injected_losses,
            "partition_drops": self._partition_drops,
            "delayed": self._delayed,
            "released": self._released,
            "targeted_crashes": len(self._scripted),
            "pending": sum(len(batch) for batch in self._pending.values()),
        }

    def trace_meta(self) -> Dict[str, object]:
        """The script and its tallies, for a trace header."""
        return {
            "fault_plan": self._plan.to_dict(),
            "fault_stats": self.stats(),
        }

    # -- the per-round hooks ----------------------------------------------

    def begin_round(self, round_index: int) -> List[Address]:
        """Open 0-based round ``round_index``; returns its crash victims.

        Call once per round, before gossip.  Partition clauses advance
        (membership checks themselves are stateless; this only tracks
        the window edges so traces show when a cut opened and healed),
        then this round's crash clauses resolve to victims, sorted.
        Delegate- and depth-targeted clauses are resolved against the
        tree *now*, so the victims are whoever currently holds the
        targeted role; a process the plan already crashed is skipped —
        a static tree keeps listing it — so each victim is scripted,
        recorded (``fault_crash``) and counted once.  The caller
        actually crashes them.
        """
        self._round = round_index
        for index, clause in enumerate(self._partitions):
            active = clause.start <= round_index < clause.end
            was = self._partition_up[index]
            if active and not was:
                self._note(
                    "fault_partition",
                    _marker(clause.side_a), peer=_marker(clause.side_b),
                )
            elif was and not active:
                self._note(
                    "fault_heal",
                    _marker(clause.side_a), peer=_marker(clause.side_b),
                )
            self._partition_up[index] = active
        victims: List[Address] = []
        for clause in self._crash_clauses:
            if clause.round != round_index:
                continue
            for victim in self._resolve(clause):
                if victim not in self._scripted and victim in self._tree:
                    self._scripted.add(victim)
                    victims.append(victim)
        victims.sort()
        for victim in victims:
            self._note("fault_crash", victim)
        return victims

    def transmit(self, envelopes: List[Envelope]) -> List[Envelope]:
        """Apply active fault clauses, then the network; return arrivals.

        The round is the one the last :meth:`begin_round` opened.
        Order per envelope: partition cut (deterministic) → burst loss
        (one draw against the combined active-burst probability) →
        delay hold (first matching window wins; one draw only when its
        probability is < 1).  Envelopes released from earlier delay
        windows are appended after the network's arrivals — they were
        already "in flight" and bypass both the fault plane and the ε
        stream at release time.
        """
        round_index = self._round
        released = self._pending.pop(round_index, [])
        diverted = set()
        passed: List[Envelope] = []
        for envelope in envelopes:
            sender = envelope.message.sender
            destination = envelope.destination
            if self._partition_cuts(round_index, sender, destination):
                self._partition_drops += 1
                self._injected_losses += 1
                diverted.add(id(envelope))
                self._note_envelope(
                    "fault_loss", envelope, value=FAULT_LOSS_PARTITION
                )
                continue
            burst = self._burst_probability(round_index, sender, destination)
            if burst > 0.0 and (
                burst >= 1.0 or self._rng.random() < burst
            ):
                self._injected_losses += 1
                diverted.add(id(envelope))
                self._note_envelope(
                    "fault_loss", envelope, value=FAULT_LOSS_BURST
                )
                continue
            delay = self._delay_for(round_index, destination)
            if delay:
                self._delayed += 1
                diverted.add(id(envelope))
                self._pending.setdefault(
                    round_index + delay, []
                ).append(envelope)
                self._note_envelope("fault_delay", envelope, value=delay)
                continue
            passed.append(envelope)
        self._diverted = frozenset(diverted)
        delivered = self._network.transmit(passed)
        if released:
            self._released += len(released)
            for envelope in released:
                self._note_envelope("fault_release", envelope)
            delivered = list(delivered) + released
        return delivered

    # -- internals --------------------------------------------------------

    def _partition_cuts(
        self, round_index: int, sender: Address, destination: Address
    ) -> bool:
        for clause in self._partitions:
            if clause.start <= round_index < clause.end and clause.crosses(
                sender, destination
            ):
                return True
        return False

    def _burst_probability(
        self, round_index: int, sender: Address, destination: Address
    ) -> float:
        """Combined drop probability of all in-scope active bursts."""
        survive = 1.0
        for clause in self._bursts:
            if clause.start <= round_index < clause.end and clause.matches(
                sender, destination
            ):
                survive *= 1.0 - clause.probability
        return 1.0 - survive

    def _delay_for(self, round_index: int, destination: Address) -> int:
        """The hold duration for an envelope, 0 when undisturbed."""
        for clause in self._delays:
            if clause.start <= round_index < clause.end and clause.matches(
                destination
            ):
                if clause.probability >= 1.0 or (
                    self._rng.random() < clause.probability
                ):
                    return clause.delay
        return 0

    def _resolve(self, clause) -> List[Address]:
        if isinstance(clause, TargetedCrash):
            return [clause.address]
        if isinstance(clause, DelegateCrash):
            if not self._tree.is_populated(clause.prefix):
                return []
            chosen = self._tree.delegates(clause.prefix)
            return list(chosen[: clause.count])
        if isinstance(clause, DepthCrash):
            victims = []
            for member in sorted(self._tree.members()):
                if clause.depth <= self._tree.depth and self._tree.is_delegate(
                    member, clause.depth
                ):
                    victims.append(member)
                    if len(victims) >= clause.count:
                        break
            return victims
        return []

    def _note(
        self,
        kind: str,
        process: Address,
        peer: Optional[Address] = None,
    ) -> None:
        if self._emit is not None:
            self._emit(self._round + 1, kind, process, peer=peer)

    def _note_envelope(
        self, kind: str, envelope: Envelope, value: int = 0
    ) -> None:
        if self._emit is not None:
            # Flat-style variant envelopes carry no gossip depth (the
            # engine's always do); record them at depth 0 like every
            # other flat-plane trace record.
            depth = envelope.message.depth
            self._emit(
                self._round + 1,
                kind,
                envelope.message.sender,
                peer=envelope.destination,
                event_id=envelope.message.event.event_id,
                depth=0 if depth is None else depth,
                value=value,
            )
