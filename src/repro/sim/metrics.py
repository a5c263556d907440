"""Dissemination metrics: what Figures 4–7 measure.

* **delivery ratio** — the fraction of *interested* processes that
  HPDELIVERed the event (Figure 4's "Probability of Delivery",
  estimated over processes/trials);
* **false-reception ratio** — the fraction of *uninterested* processes
  that nevertheless received the event (Figure 5's "Probability of
  Reception"): delegates gossiping on behalf of interested subtrees,
  plus any §5.3 conscripts;
* message accounting for the scalability claims (messages sent, lost,
  duplicate receptions).

The publisher is excluded from the uninterested denominator (it
trivially "receives" its own event) but participates in the interested
one like any other process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import SimulationError

__all__ = ["DisseminationReport"]


@dataclass(frozen=True)
class DisseminationReport:
    """Everything measured about one event's dissemination.

    Attributes:
        group_size: n — total processes at the start of the run.
        interested: how many processes were interested in the event.
        uninterested: processes not interested (publisher excluded).
        delivered_interested: interested processes that delivered.
        received_uninterested: uninterested processes that received.
        received_total: processes that received the event at all.
        crashed: processes that crashed during the run (f).
        rounds: simulation rounds until the group went idle.
        messages_sent: total gossip envelopes handed to the network.
        messages_lost: envelopes dropped by the network.
        duplicate_receptions: receptions beyond each process's first.
        control_messages: envelopes carrying variant control traffic
            (pull requests/replies, view shuffles) rather than eager
            payload gossip — a subset of ``messages_sent``, so cost
            comparisons against control-free algorithms stay honest.
        infection_curve: per-round cumulative count of processes that
            have received the event (index 0 = after round 0).
        messages_by_distance: gossip envelopes grouped by the §2.2
            sender-destination distance (index i = distance i + 1).
            Distance d messages cross the widest network boundary —
            §3.1's claim is that pmcast keeps these rare relative to
            local traffic, unlike flat gossip.
    """

    group_size: int
    interested: int
    uninterested: int
    delivered_interested: int
    received_uninterested: int
    received_total: int
    crashed: int
    rounds: int
    messages_sent: int
    messages_lost: int
    duplicate_receptions: int
    control_messages: int = 0
    infection_curve: Tuple[int, ...] = ()
    messages_by_distance: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.delivered_interested > self.interested:
            raise SimulationError(
                "delivered_interested exceeds the interested population"
            )
        if self.received_uninterested > self.uninterested:
            raise SimulationError(
                "received_uninterested exceeds the uninterested population"
            )
        if self.messages_lost > self.messages_sent:
            raise SimulationError("lost more messages than were sent")
        if self.control_messages > self.messages_sent:
            raise SimulationError(
                "control_messages exceeds total messages_sent"
            )

    @property
    def delivery_ratio(self) -> float:
        """Figure 4's estimator: delivered / interested (1.0 if none)."""
        if self.interested == 0:
            return 1.0
        return self.delivered_interested / self.interested

    @property
    def false_reception_ratio(self) -> float:
        """Figure 5's estimator: uninterested receivers / uninterested."""
        if self.uninterested == 0:
            return 0.0
        return self.received_uninterested / self.uninterested

    @property
    def cost_per_delivery(self) -> float:
        """Messages spent per interested process that actually delivered.

        The per-event message cost the variant comparison reports: the
        total envelope count (payload *and* control) divided by
        successful deliveries, so it penalizes undelivered interest — an
        algorithm that floods but misses half its audience pays for the
        misses here.
        """
        return self.messages_sent / max(self.delivered_interested, 1)

    @property
    def boundary_crossing_fraction(self) -> float:
        """Fraction of traffic at the maximum distance (widest boundary).

        §3.1's topology claim in one number: pmcast should keep this
        small, flat gossip spreads traffic uniformly over distances.
        """
        total = sum(self.messages_by_distance)
        if total == 0:
            return 0.0
        return self.messages_by_distance[-1] / total
