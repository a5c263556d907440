"""repro — a reproduction of "Probabilistic Multicast" (DSN 2002).

pmcast is a gossip-based multicast for content-based publish/subscribe
in large groups: events reach the processes interested in them with
high probability, and mostly spare everyone else.  This package
implements the full system of Eugster & Guerraoui's paper:

* :mod:`repro.addressing` — hierarchical addresses, prefixes, distance;
* :mod:`repro.interests` — events, predicates, subscriptions, interest
  regrouping;
* :mod:`repro.membership` — delegate election, per-depth views,
  gossip-pull anti-entropy, the group directory, failure detection;
* :mod:`repro.core` — the pmcast algorithm (Figure 3) with Pittel round
  bounds and the §5.3 small-rate tuning;
* :mod:`repro.sim` — the round-synchronous evaluation substrate (loss,
  crashes, workloads, metrics);
* :mod:`repro.faults` — scripted fault injection (bursts, partitions,
  delays, targeted crashes) replayed deterministically from a
  dedicated RNG stream;
* :mod:`repro.analysis` — the §4 stochastic models;
* :mod:`repro.validate` — the conformance harness comparing simulated
  outcomes against the §4 models (``python -m repro.validate``);
* :mod:`repro.baselines` — the §1 alternatives (flood broadcast,
  genuine multicast, per-subset broadcast groups);
* :mod:`repro.bench` — regeneration of every evaluation figure;
* :mod:`repro.par` — deterministic parallel trial execution for the
  sweeps and the conformance gate (``--jobs N|auto``), bit-identical
  aggregates at any worker count.

Quickstart::

    from repro import (
        AddressSpace, Event, PmcastConfig, PmcastGroup, SimConfig,
        parse_subscription, run_dissemination,
    )

    space = AddressSpace.regular(4, 3)          # 64 processes
    members = {
        addr: parse_subscription("b > 2")
        for addr in space.enumerate_regular(4)
    }
    group = PmcastGroup.build(members, PmcastConfig(fanout=2, redundancy=2))
    report = run_dissemination(
        group, group.addresses()[0], Event({"b": 5}), SimConfig(seed=1)
    )
    print(report.delivery_ratio, report.false_reception_ratio)
"""

from repro.addressing import Address, AddressSpace, Prefix, distance
from repro.config import PmcastConfig, SimConfig
from repro.core import GossipContext, PmcastNode
from repro.errors import ReproError
from repro.interests import (
    Event,
    Interest,
    StaticInterest,
    Subscription,
    parse_subscription,
    regroup,
)
from repro.faults import FaultInjector, FaultPlan
from repro.membership import GroupDirectory, MembershipTree
from repro.pubsub import PubSubSystem
from repro.sim import (
    CrashSchedule,
    DisseminationReport,
    LossyNetwork,
    PmcastGroup,
    run_dissemination,
)

__version__ = "1.0.0"

__all__ = [
    "Address",
    "AddressSpace",
    "Prefix",
    "distance",
    "PmcastConfig",
    "SimConfig",
    "GossipContext",
    "PmcastNode",
    "ReproError",
    "Event",
    "Interest",
    "StaticInterest",
    "Subscription",
    "parse_subscription",
    "regroup",
    "MembershipTree",
    "GroupDirectory",
    "PubSubSystem",
    "CrashSchedule",
    "FaultPlan",
    "FaultInjector",
    "DisseminationReport",
    "LossyNetwork",
    "PmcastGroup",
    "run_dissemination",
    "__version__",
]
