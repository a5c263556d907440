"""Workload generation: interest assignments and synthetic events.

The paper's evaluation uses the i.i.d. Bernoulli interest model of the
analysis (§4.1): every process is interested in the observed event with
probability ``p_d``, interests uniformly distributed over the group —
:func:`bernoulli_interests`.

Beyond that, :func:`random_subscriptions` / :func:`random_event` build
a content-based pub/sub universe in the style of Figure 2 (attributes
``b`` int, ``c`` float, ``e`` string, ``z`` int) for end-to-end tests
and the examples.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from repro.addressing import Address
from repro.errors import SimulationError
from repro.interests.events import Event
from repro.interests.predicates import between, eq, ge, le, one_of
from repro.interests.subscriptions import Interest, StaticInterest, Subscription

__all__ = [
    "bernoulli_interests",
    "random_subscriptions",
    "random_event",
]


def bernoulli_interests(
    addresses: Sequence[Address],
    matching_rate: float,
    rng: random.Random,
) -> Dict[Address, Interest]:
    """The analysis model: each process interested with probability p_d."""
    if not 0.0 <= matching_rate <= 1.0:
        raise SimulationError(f"matching rate {matching_rate} not in [0, 1]")
    return {
        address: StaticInterest(rng.random() < matching_rate)
        for address in addresses
    }


# -- a Figure 2 style content-based universe ----------------------------

_NAMES = ("Bob", "Tom", "Alice", "Carol", "Dave", "Eve", "Frank", "Grace")


def random_subscriptions(
    addresses: Sequence[Address],
    rng: random.Random,
    selectivity: float = 0.5,
) -> Dict[Address, Interest]:
    """Random Figure 2 style subscriptions over attributes b, c, e, z.

    Args:
        addresses: the subscribers.
        selectivity: roughly how permissive each constraint is; higher
            means more events match each subscription.
    """
    if not 0.0 < selectivity <= 1.0:
        raise SimulationError(f"selectivity {selectivity} not in (0, 1]")
    out: Dict[Address, Interest] = {}
    for address in addresses:
        constraints = {}
        # Integer attribute b in [0, 10): threshold or exact value.
        if rng.random() < 0.8:
            if rng.random() < 0.5:
                constraints["b"] = ge(rng.randrange(int(10 * (1 - selectivity)) + 1))
            else:
                constraints["b"] = eq(rng.randrange(10))
        # Float attribute c in [0, 100): a window.
        if rng.random() < 0.6:
            width = max(100.0 * selectivity, 1.0)
            lo = rng.uniform(0.0, 100.0 - width)
            constraints["c"] = between(lo, lo + width)
        # String attribute e: a small disjunction of names.
        if rng.random() < 0.4:
            count = max(1, round(len(_NAMES) * selectivity * rng.random()))
            constraints["e"] = one_of(rng.sample(_NAMES, count))
        # Integer attribute z in [0, 50000): one-sided bound.
        if rng.random() < 0.3:
            if rng.random() < 0.5:
                constraints["z"] = le(rng.randrange(50000))
            else:
                constraints["z"] = ge(rng.randrange(50000))
        out[address] = Subscription(constraints)
    return out


def random_event(rng: random.Random, event_id: Optional[int] = None) -> Event:
    """One event of the Figure 2 universe."""
    return Event(
        {
            "b": rng.randrange(10),
            "c": rng.uniform(0.0, 100.0),
            "e": rng.choice(_NAMES),
            "z": rng.randrange(50000),
        },
        event_id=event_id,
    )
