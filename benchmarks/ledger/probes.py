"""Per-layer probes of a traced pass: what no workload's own spans show.

Each function returns ``{metric name: value}`` for the layers that the
workload calling it exercises (README "Per-layer metrics" says which
end-to-end metric each should move).  Times are normalised through
``run.clock`` like every other timing; a micro-loop is one timed unit.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
from statistics import median
from typing import Callable, Dict, List

from harness import per_call_us
from params import (
    CONFIG,
    DEPTH,
    EPSILON,
    MATCHING_RATE,
    TAU,
    BenchmarkError,
    enumerate_addresses,
    static_trial,
)

from repro.addressing import distance
from repro.baselines.flat import flat_gossip_broadcast
from repro.config import SimConfig
from repro.core.context import GossipContext
from repro.faults import FaultPlan
from repro.interests.events import Event
from repro.net.runtime import run_sim_dissemination
from repro.net.transport import (
    FairLossUdpTransport,
    UdpEndpointRegistry,
    decode_envelope,
    encode_envelope,
)
from repro.obs import MetricsRegistry, Observer, TimelineRecorder, TraceLog
from repro.pubsub import PubSubSystem
from repro.sim.engine import run_dissemination
from repro.sim.group import PmcastGroup
from repro.sim.rng import derive_rng
from repro.sim.workload import bernoulli_interests, random_event
from repro.validate.oracles import (
    tree_delivery_prediction,
    tree_false_reception_prediction,
)
from repro.variants.lazy_pull import lazy_pull_broadcast

#: Trials each engine-level probe re-runs (it reports their median).
REPEATS = 2


def seconds(run, fn: Callable[[], object]) -> float:
    return run.clock.timed(fn)[1].norm_s


def micro_us(run, fn: Callable[[], object], calls: int) -> float:
    value, unit = run.clock.timed(lambda: per_call_us(fn, calls))
    return value * unit.scale


def standard_fault_plan() -> FaultPlan:
    """One clause of each family, as ``repro.bench.perf --faults`` uses."""
    return (
        FaultPlan(name="ledger-episode")
        .with_partition(2, 6, "0", "1")
        .with_loss_burst(1, 5, 0.2, dest_prefix="2")
        .with_delay(3, 5, 2, dest_prefix="3")
        .with_delegate_crash(4, "2", count=1)
    )


def common_layers(run, arity: int) -> Dict[str, float]:
    """Layers every workload pays for: observability hooks and the oracle."""
    timeline = TimelineRecorder()

    def span() -> None:
        with timeline.span("probe", "ledger", 0):
            pass

    trace = TraceLog()
    process = enumerate_addresses(2)[0]  # any address: the cost is the record's
    args = (
        MATCHING_RATE, arity, DEPTH,
        CONFIG.redundancy, CONFIG.fanout,
        EPSILON, TAU,
    )
    return {
        "obs.span_us": micro_us(run, span, 20_000),
        "obs.trace_record_us": micro_us(
            run, lambda: trace.record(1, "send", process, event_id=1), 20_000
        ),
        "analysis.oracle_s": seconds(
            run,
            lambda: (
                tree_delivery_prediction(*args),
                tree_false_reception_prediction(*args),
            ),
        ),
    }


def static_tree_layers(run, addresses, plan, plain_dissem_s: float) -> Dict[str, float]:
    """Engine-level probes on the first ``REPEATS`` static_tree trials."""
    scale = run.scale
    plan_faults = standard_fault_plan()

    def rerun(index: int, disseminate) -> float:
        """Normalised seconds of ``disseminate`` on a fresh trial group."""
        members, publisher, event, sim = static_trial(scale, addresses, plan, index)
        group = PmcastGroup.build(members, CONFIG)
        return seconds(
            run, lambda: disseminate(members, group, publisher, event, sim)
        )

    registry = MetricsRegistry()
    vector_s = [
        rerun(
            i,
            lambda members, group, publisher, event, sim: run_dissemination(
                group, publisher, event,
                dataclasses.replace(sim, vectorized=True),
                observer=Observer(registry=registry),
            ),
        )
        for i in range(REPEATS)
    ]
    faulted_s = [
        rerun(
            i,
            lambda members, group, publisher, event, sim: run_dissemination(
                group, publisher, event, sim, faults=plan_faults
            ),
        )
        for i in range(REPEATS)
    ]
    fault_trace = TraceLog()
    rerun(
        0,
        lambda members, group, publisher, event, sim: run_dissemination(
            group, publisher, event, sim, faults=plan_faults, trace=fault_trace
        ),
    )
    net_sim_s = [
        rerun(
            i,
            lambda members, group, publisher, event, sim: run_sim_dissemination(
                group, publisher, event, sim
            ),
        )
        for i in range(REPEATS)
    ]
    flat_s = rerun(
        0,
        lambda members, group, publisher, event, sim: flat_gossip_broadcast(
            members, publisher, event, CONFIG.fanout, sim_config=sim
        ),
    )
    lazy_s = rerun(
        0,
        lambda members, group, publisher, event, sim: lazy_pull_broadcast(
            members, publisher, event, CONFIG.fanout, sim_config=sim
        ),
    )

    rng = derive_rng(run.seed, "ledger", "distance-pairs")
    pairs = [tuple(rng.sample(addresses, 2)) for _ in range(20_000)]

    def distances() -> None:
        for left, right in pairs:
            distance(left, right)

    return {
        "addressing.enumerate_s": seconds(
            run, lambda: enumerate_addresses(scale.arity)
        ),
        "addressing.distance_us": 1e6 * seconds(run, distances) / len(pairs),
        "sim.dissem_vector_s": median(vector_s),
        "sim.vector_fallbacks": registry.snapshot()
        .get("sim", {})
        .get("vector_fallback", 0),
        "faults.overhead_share": (median(faulted_s) - plain_dissem_s)
        / plain_dissem_s,
        "faults.dispositions": sum(
            count
            for kind, count in fault_trace.counts().items()
            if kind.startswith("fault_")
        ),
        "net.sim_event_s": median(net_sim_s),
        "net.sim_over_engine": median(net_sim_s) / plain_dissem_s,
        "variants.flat_push_event_s": flat_s,
        "variants.lazy_pull_event_s": lazy_s,
    }


def live_group_layers(run, script) -> Dict[str, float]:
    """Uncached interest matching: 2 000 subscriptions x 20 events."""
    rng = derive_rng(run.seed, "ledger", "match-probe")
    subscriptions = list(script.subscriptions.values())[:2000]
    events = [random_event(rng, event_id=5000 + i) for i in range(20)]

    def match_all() -> None:
        for event in events:
            for subscription in subscriptions:
                subscription.matches(event)

    return {
        "interests.match_us": 1e6
        * seconds(run, match_all)
        / (len(subscriptions) * len(events)),
    }


def udp_live_layers(run) -> Dict[str, float]:
    """Wire codec, endpoint set-up, and the pub/sub facade."""
    scale = run.scale
    # Envelopes as one gossip_step emits them, carrying the workload's
    # event.  A small group of its own: codec cost depends on address
    # depth and event content, not on n, and stepping a node of the
    # workload's group would leave it infected.
    addresses = enumerate_addresses(5)
    rng = derive_rng(run.seed, "ledger", "codec-probe")
    group = PmcastGroup.build(
        bernoulli_interests(addresses, 0.5, rng), CONFIG
    )
    ctx = GossipContext(rng)
    node = group.node(addresses[0])
    node.pmcast(Event({"ledger": 1}, event_id=7000), ctx)
    envelopes = node.gossip_step(ctx)
    if not envelopes:
        raise BenchmarkError("codec probe: gossip_step sent nothing")
    wire = [encode_envelope(envelope) for envelope in envelopes]
    next_envelope = itertools.cycle(envelopes).__next__
    next_datagram = itertools.cycle(wire).__next__

    async def endpoints(count: int) -> None:
        registry = UdpEndpointRegistry()
        opened: List[FairLossUdpTransport] = []
        try:
            for _ in range(count):
                opened.append(
                    await FairLossUdpTransport.create(
                        addresses[0], registry, lambda envelope: None
                    )
                )
        finally:
            for transport in opened:
                transport.close()

    # PubSubSystem.subscribe re-wires every member, so filling it costs
    # O(n^2): pubsub_arity ** 3 members, not the workload's size.
    members = enumerate_addresses(scale.pubsub_arity)
    interests = bernoulli_interests(members, MATCHING_RATE, rng)
    system = PubSubSystem(
        DEPTH,
        config=CONFIG,
        sim_config=SimConfig(loss_probability=EPSILON, seed=run.seed),
    )
    for address in members[:-1]:
        system.subscribe(address, interests[address])
    subscribe_s = seconds(
        run, lambda: system.subscribe(members[-1], interests[members[-1]])
    )
    publish_s = seconds(
        run, lambda: system.publish(members[0], Event({"ledger": 1}, event_id=7001))
    )
    return {
        "core.codec_encode_us": micro_us(
            run, lambda: encode_envelope(next_envelope()), 5_000
        ),
        "core.codec_decode_us": micro_us(
            run, lambda: decode_envelope(next_datagram()), 5_000
        ),
        "core.codec_bytes_p50": median([len(data) for data in wire]),
        "net.endpoint_create_us": 1e6
        * seconds(run, lambda: asyncio.run(endpoints(scale.endpoint_probe)))
        / scale.endpoint_probe,
        "pubsub.subscribe_ms": 1e3 * subscribe_s,
        "pubsub.publish_s": publish_s,
    }
