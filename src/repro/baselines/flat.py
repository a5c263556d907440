"""Flat gossip baselines: broadcast-and-filter vs genuine multicast.

The paper's introduction motivates pmcast against two flat designs:

* **Flood broadcast** (pbcast-style): every process knows the whole
  group and gossips every event to random members regardless of
  interest; filtering happens at delivery.  Reliability is excellent,
  but every uninterested process receives (almost) every event and
  each process carries O(n) membership — the two costs pmcast removes.

* **Flat genuine multicast**: same global knowledge, including every
  process's precise interests, but gossip targets only interested
  processes.  With *full* knowledge this works (the paper calls the
  required assumption "rather unrealistic"); its cost is exactly that
  global subscription knowledge — n-1 entries per process versus
  pmcast's R·a·(d-1)+a, the comparison the baselines bench tabulates.
  The tree variant that breaks without global knowledge lives in
  :mod:`repro.baselines.genuine`.

Both run under the same round-synchronous loss/crash model as pmcast
so that reports are directly comparable.

Since the strategy-seam extraction the inner loop lives in
:class:`repro.variants.flat_push.FlatPushVariant`; the two entry
points below build the variant on the historical RNG streams
(``flat-gossip`` / ``flat-network`` / ``flat-crash``) and drive it
through :func:`repro.variants.base.run_variant` — reports are
bit-identical to the pre-extraction loop, and the baselines gained
``faults`` and ``observer`` (trace, sampling, timeline) support
for free.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.addressing import Address
from repro.config import SimConfig
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.obs.probes import NULL_OBSERVER, Observer
from repro.sim.crashes import CrashSchedule
from repro.sim.metrics import DisseminationReport
from repro.sim.rng import derive_rng
from repro.variants.flat_push import (
    FLAT_MAX_ROUND_BOUND,
    FlatPushVariant,
    run_flat_style,
)

__all__ = ["flat_gossip_broadcast", "flat_genuine_multicast", "FLAT_MAX_ROUND_BOUND"]


def _run_flat(
    members: Mapping[Address, Interest],
    publisher: Address,
    event: Event,
    fanout: int,
    sim_config: SimConfig,
    restrict_to_interested: bool,
    crash_schedule: Optional[CrashSchedule],
    faults=None,
    observer: Observer = NULL_OBSERVER,
) -> DisseminationReport:
    variant = FlatPushVariant(
        members,
        publisher,
        event,
        fanout,
        derive_rng(sim_config.seed, "flat-gossip", event.event_id),
        sim_config.seed,
        restrict_to_interested=restrict_to_interested,
    )
    return run_flat_style(
        variant,
        sim_config,
        crash_schedule=crash_schedule,
        faults=faults,
        observer=observer,
    )


def flat_gossip_broadcast(
    members: Mapping[Address, Interest],
    publisher: Address,
    event: Event,
    fanout: int = 2,
    sim_config: Optional[SimConfig] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    faults=None,
    observer: Observer = NULL_OBSERVER,
) -> DisseminationReport:
    """pbcast-style broadcast: gossip to anyone, filter at delivery.

    Each process, once infected, gossips the event to ``fanout``
    uniformly random group members for ``T(n, F)`` rounds.  Every
    process — interested or not — is a gossip target, which is exactly
    the flooding cost the paper's Figure 5 contrasts pmcast against.
    """
    return _run_flat(
        members,
        publisher,
        event,
        fanout,
        sim_config or SimConfig(),
        restrict_to_interested=False,
        crash_schedule=crash_schedule,
        faults=faults,
        observer=observer,
    )


def flat_genuine_multicast(
    members: Mapping[Address, Interest],
    publisher: Address,
    event: Event,
    fanout: int = 2,
    sim_config: Optional[SimConfig] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    faults=None,
    observer: Observer = NULL_OBSERVER,
) -> DisseminationReport:
    """Genuine multicast with (unrealistic) global subscription knowledge.

    Gossip targets are drawn only from the processes interested in the
    event, so no uninterested process ever receives it — at the price
    of every process knowing "every other process and also its precise
    interests" (§1), i.e. O(n) membership and subscription state.
    """
    return _run_flat(
        members,
        publisher,
        event,
        fanout,
        sim_config or SimConfig(),
        restrict_to_interested=True,
        crash_schedule=crash_schedule,
        faults=faults,
        observer=observer,
    )
