"""Experiment B4 — delivery latency vs the Eq 13 round budget.

The Figure 3 bound allots ``T_i`` rounds per depth; an interested
process at the leaves should therefore deliver within roughly
``T_tot = sum T_i`` rounds of the publish (times the period P for wall
clock).  This bench measures the first-delivery round of every
interested process from a :class:`~repro.obs.trace.TraceLog` and
compares the distribution against the analytical budget.
"""

import math

from repro.addressing import AddressSpace
from repro.analysis import tree_total_rounds
from repro.config import PmcastConfig, SimConfig
from repro.interests import Event
from repro.sim import (
    PmcastGroup,
    TraceLog,
    bernoulli_interests,
    derive_rng,
    run_dissemination,
)

ARITY, DEPTH, R, F = 8, 3, 3, 2
RATE = 0.5


def traced_run(seed=0):
    addresses = AddressSpace.regular(ARITY, DEPTH).enumerate_regular(ARITY)
    members = bernoulli_interests(addresses, RATE, derive_rng(seed, "lat"))
    group = PmcastGroup.build(
        members, PmcastConfig(fanout=F, redundancy=R)
    )
    trace = TraceLog()
    report = run_dissemination(
        group, addresses[0], Event({}, event_id=7000 + seed),
        SimConfig(seed=7000 + seed), trace=trace,
    )
    return report, trace


def test_delivery_latency(benchmark, show):
    report, trace = benchmark.pedantic(traced_run, rounds=3, iterations=1)

    rounds = sorted(record.round for record in trace.deliveries())
    assert rounds, "no deliveries traced"
    count = len(rounds)
    mean = sum(rounds) / count
    median = rounds[count // 2]
    p95 = rounds[min(int(count * 0.95), count - 1)]
    budget, per_depth = tree_total_rounds(RATE, ARITY, DEPTH, R, F)

    lines = [
        f"First-delivery round over {count} interested processes "
        f"(a={ARITY}, d={DEPTH}, p_d={RATE}):",
        f"  mean / median / p95 / max : {mean:.1f} / {median} / {p95} "
        f"/ {rounds[-1]}",
        f"  Eq 13 budget T_tot        : {budget:.1f} "
        f"({' + '.join(f'{t:.1f}' for t in per_depth)})",
        f"  run length (rounds)       : {report.rounds}",
    ]
    show("\n".join(lines))

    # Delivery latency stays within the per-depth budget, with slack
    # for the integer ceilings and pipeline effects.
    assert p95 <= math.ceil(budget) + DEPTH + 2
    # And the budget is not wildly conservative either.
    assert rounds[-1] >= budget / 4
