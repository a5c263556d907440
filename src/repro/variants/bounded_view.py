"""lpbcast-style gossip over bounded random partial views.

The membership ablation: instead of pmcast's tree-structured views (or
the flat baseline's global one), each process knows only a **bounded
random partial view** of ``view_size`` peers and draws its gossip
targets from it.  Optionally the views themselves are gossiped: every
payload message piggybacks a ``shuffle_size`` sample of the sender's
view, the receiver merges it (plus the sender) into its own view and
truncates back to the bound by evicting uniformly random entries —
lpbcast's view shuffle, which keeps the overlay connected even though
no process ever holds more than ``view_size`` entries.

Every merge that changes a view is emitted as a ``view_shuffle`` trace
record (``value`` = entries merged), so ``python -m repro.obs
summarize`` tallies shuffle traffic alongside the payload kinds.

The push budget mechanics (Pittel round bound, per-process budgets)
are inherited from :class:`FlatPushVariant`, so the *only* difference
from the flat baseline is where targets come from — which is exactly
what the bounded-view conformance band isolates: delivery approaches
the flat baseline as ``view_size`` grows, and false reception is
monotone in it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional

from repro.addressing import Address
from repro.config import SimConfig
from repro.errors import SimulationError
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.obs.probes import NULL_OBSERVER, Observer
from repro.sim.crashes import CrashSchedule
from repro.sim.metrics import DisseminationReport
from repro.sim.rng import derive_rng
from repro.variants.base import (
    PAYLOAD,
    Emit,
    VariantEnvelope,
    VariantMessage,
)
from repro.variants.flat_push import FlatPushVariant, run_flat_style

__all__ = ["BoundedViewVariant", "bounded_view_broadcast"]


class BoundedViewVariant(FlatPushVariant):
    """Budgeted push whose targets come from bounded partial views."""

    name = "bounded_view"
    producer = "repro.variants.bounded_view"

    def __init__(
        self,
        members: Mapping[Address, Interest],
        publisher: Address,
        event: Event,
        fanout: int,
        gossip_rng: random.Random,
        seed: int,
        view_size: int = 8,
        shuffle_size: int = 2,
        view_rng: Optional[random.Random] = None,
        shuffle_rng: Optional[random.Random] = None,
    ) -> None:
        if view_size < 1:
            raise SimulationError(f"view_size {view_size} must be >= 1")
        if shuffle_size < 0:
            raise SimulationError(
                f"shuffle_size {shuffle_size} must be >= 0"
            )
        super().__init__(
            members, publisher, event, fanout, gossip_rng, seed,
            restrict_to_interested=False,
        )
        self.view_size = view_size
        self.shuffle_size = shuffle_size
        self.shuffle_rng = shuffle_rng or random.Random(0)
        view_rng = view_rng or random.Random(0)
        # Seed every process with a uniform random bounded view, in
        # address order (one dedicated stream: the draw count must not
        # depend on who ends up gossiping).
        self.views: Dict[Address, List[Address]] = {}
        for address in self.addresses:
            drawn = view_rng.sample(
                self.targets, min(view_size + 1, len(self.targets))
            )
            self.views[address] = [t for t in drawn if t != address][
                :view_size
            ]

    def trace_meta(self):
        meta = super().trace_meta()
        meta["view_size"] = self.view_size
        meta["shuffle_size"] = self.shuffle_size
        return meta

    def push(self, sender: Address) -> List[VariantEnvelope]:
        """Gossip to ``fanout`` picks from the sender's own view, each
        envelope piggybacking a fresh ``shuffle_size`` view sample."""
        view = self.views[sender]
        if not view:
            return []
        picks = self.gossip_rng.sample(view, min(self.fanout, len(view)))
        envelopes = []
        for destination in picks:
            sample = (
                self.shuffle_rng.sample(
                    view, min(self.shuffle_size, len(view))
                )
                if self.shuffle_size
                else None
            )
            envelopes.append(
                VariantEnvelope(
                    destination,
                    VariantMessage(sender, PAYLOAD, self.event, view=sample),
                )
            )
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
        self.receive_payload(destination, message, emit, rounds)
        if message.view:
            self._merge_view(destination, message, emit, rounds)

    def _merge_view(
        self,
        destination: Address,
        message: VariantMessage,
        emit: Optional[Emit],
        rounds: int,
    ) -> None:
        """lpbcast's shuffle: merge the piggybacked sample + sender,
        then evict random entries back down to the bound."""
        view = self.views[destination]
        known = set(view)
        known.add(destination)
        merged = 0
        for candidate in list(message.view) + [message.sender]:
            if candidate in known:
                continue
            view.append(candidate)
            known.add(candidate)
            merged += 1
        while len(view) > self.view_size:
            view.pop(self.shuffle_rng.randrange(len(view)))
        if merged and emit is not None:
            emit(
                rounds,
                "view_shuffle",
                destination,
                peer=message.sender,
                event_id=message.event.event_id,
                value=merged,
            )


def bounded_view_broadcast(
    members: Mapping[Address, Interest],
    publisher: Address,
    event: Event,
    fanout: int = 2,
    sim_config: Optional[SimConfig] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    view_size: int = 8,
    shuffle_size: int = 2,
    faults=None,
    observer: Observer = NULL_OBSERVER,
) -> DisseminationReport:
    """Disseminate one event gossiping over bounded partial views.

    The payload streams are the flat baseline's; the view plane gets
    two dedicated streams (``variant-views`` for the initial partial
    views, ``variant-shuffle`` for merges/evictions), so changing
    ``shuffle_size`` never perturbs the gossip-target draws of a run
    with shuffling disabled.
    """
    sim_config = sim_config or SimConfig()
    variant = BoundedViewVariant(
        members,
        publisher,
        event,
        fanout,
        derive_rng(sim_config.seed, "flat-gossip", event.event_id),
        sim_config.seed,
        view_size=view_size,
        shuffle_size=shuffle_size,
        view_rng=derive_rng(sim_config.seed, "variant-views", event.event_id),
        shuffle_rng=derive_rng(
            sim_config.seed, "variant-shuffle", event.event_id
        ),
    )
    return run_flat_style(
        variant,
        sim_config,
        crash_schedule=crash_schedule,
        faults=faults,
        observer=observer,
    )
