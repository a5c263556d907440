"""The one result type, and every table of EXPERIMENTS.md that is not
one of the paper's figures.

Every table this repository prints is an :class:`ExperimentResult`;
the figures (:mod:`repro.bench.figures`) are tables too, whose first
column is the x axis.  Each function here is one ``python -m
repro.bench --experiment <name>`` entry of
:data:`repro.bench.cli.REGISTRY`
(DESIGN.md's index gives the ids): the paper's prose claims (§3.1
locality B2, §1 baselines B1, the dissemination variants of
docs/VARIANTS.md), the analytical models in closed form (A1–A3),
behaviour the paper's static, failure-free runs cannot show (B3–B6,
M1) and the ablations of the design knobs.

Defaults are the reduced-scale configurations EXPERIMENTS.md quotes and
``tests/bench/test_golden_digests.py`` pins by digest; nothing here is
timed.  Tables with independent cells (ablations, fault sensitivity,
churn levels, convergence points) run them through
:meth:`~repro.par.executor.TrialExecutor.run_grid`, so ``--jobs``
applies and cannot change a cell.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.addressing import Address, AddressSpace
from repro.addressing.allocation import AddressAllocator
from repro.analysis import InfectionChain, tree_total_rounds
from repro.baselines import (
    BroadcastGroupMapper,
    build_genuine_group,
    flat_genuine_multicast,
    flat_gossip_broadcast,
)
from repro.config import PmcastConfig, SimConfig
from repro.errors import ReproError
from repro.interests import (
    Constraint,
    Event,
    RegroupPolicy,
    StaticInterest,
    Subscription,
    between,
)
from repro.membership import regular_total_view_size
from repro.par.executor import TrialExecutor
from repro.sim import (
    CrashSchedule,
    GroupRuntime,
    PmcastGroup,
    TraceLog,
    bernoulli_interests,
    derive_rng,
    poisson_churn,
    random_event,
    run_dissemination,
    run_with_churn,
)
from repro.variants import bounded_view_broadcast, lazy_pull_broadcast

__all__ = [
    "ExperimentResult",
    "locality_experiment",
    "baselines_experiment",
    "variants_experiment",
    "rounds_model",
    "markov_chain",
    "view_sizes",
    "throughput",
    "latency",
    "churn",
    "fault_sensitivity",
    "membership_convergence",
    "ablations",
]

#: The (ε, τ) grid :func:`variants_experiment` sweeps (the validate
#: harness's quick grid, so its rows and the conformance bands line up).
VARIANT_GRID = ((0.0, 0.0), (0.05, 0.0), (0.1, 0.05))


@dataclass
class ExperimentResult:
    """A titled table: ordered column names and one dict per row.

    The title may span lines: a figure's carries its caption and its
    parameter line.
    """

    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        """Append one row; every column must be provided."""
        missing = [name for name in self.columns if name not in values]
        if missing:
            raise ReproError(f"row missing columns {missing}")
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ReproError(f"unknown column {name!r}")
        return [row[name] for row in self.rows]

    def row(self, key_column: str, key: object) -> Dict[str, object]:
        """The first row whose ``key_column`` equals ``key``."""
        for row in self.rows:
            if row[key_column] == key:
                return row
        raise ReproError(f"no row with {key_column}={key!r}")

    def digest(self) -> str:
        """sha1 over the rows (canonical JSON, one per line): what a
        golden test pins, so *any* changed cell shows."""
        lines = hashlib.sha1()
        for row in self.rows:
            lines.update(json.dumps(row, sort_keys=True).encode("utf-8"))
            lines.update(b"\n")
        return lines.hexdigest()

    def render(self) -> str:
        """The title, the table right-aligned with a rule under the
        column names (floats to four decimals), one ``note:`` line per
        note."""
        table = [self.columns] + [
            [
                f"{row[name]:.4f}" if isinstance(row[name], float)
                else str(row[name])
                for name in self.columns
            ]
            for row in self.rows
        ]
        widths = [max(len(cells[i]) for cells in table)
                  for i in range(len(self.columns))]
        lines = [
            " | ".join(cell.rjust(width) for cell, width in zip(cells, widths))
            for cells in table
        ]
        lines.insert(1, "-+-".join("-" * width for width in widths))
        notes = [f"note: {note}" for note in self.notes]
        return "\n".join([self.title, *lines, *notes])


def _table(
    title: str, columns: List[str], rows: Iterable[Sequence[object]]
) -> ExperimentResult:
    """Rows given in column order; float cells are rounded to the four
    decimals ``render()`` prints, so the digest pins the printed table."""
    return ExperimentResult(title, columns, [
        {
            name: round(cell, 4) if isinstance(cell, float) else cell
            for name, cell in zip(columns, row)
        }
        for row in rows
    ])


def locality_experiment(
    arity: int = 8,
    depth: int = 3,
    matching_rate: float = 0.5,
    fanout: int = 3,
    redundancy: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    """§3.1's topology claim: traffic by distance, pmcast vs flooding.

    Distance ``d`` messages cross the widest network boundary; pmcast
    should keep them a small minority while uniform flooding pays them
    on ~(1 - 1/a) of all messages.
    """
    addresses = AddressSpace.regular(arity, depth).enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, matching_rate, derive_rng(seed, "locality")
    )
    group = PmcastGroup.build(
        members, PmcastConfig(fanout=fanout, redundancy=redundancy)
    )
    pmcast_report = run_dissemination(
        group,
        addresses[0],
        Event({}, event_id=derive_rng(seed, "locality-event").randrange(2**31)),
        SimConfig(seed=seed + 81),
    )
    flood_report = flat_gossip_broadcast(
        members,
        addresses[0],
        Event({}, event_id=derive_rng(seed, "locality-event2").randrange(2**31)),
        fanout,
        SimConfig(seed=seed + 82),
    )
    result = _table(
        "Messages by sender-destination distance "
        f"(a={arity}, d={depth}, p_d={matching_rate}, F={fanout}; "
        f"distance {depth} crosses the widest boundary):",
        ["protocol", *(f"distance {i + 1}" for i in range(depth)),
         "widest_fraction", "delivery"],
        [
            (name, *report.messages_by_distance,
             report.boundary_crossing_fraction, report.delivery_ratio)
            for name, report in (("pmcast", pmcast_report),
                                 ("flood", flood_report))
        ],
    )
    result.notes.append(
        "§3.1: 'the expensive crossing of boundaries between remote "
        "(sub)networks only occurs a reasonable number of times'."
    )
    return result


def baselines_experiment(
    arity: int = 8,
    depth: int = 3,
    matching_rate: float = 0.3,
    fanout: int = 3,
    redundancy: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    """§1's comparison matrix: pmcast vs the three alternatives."""
    addresses = AddressSpace.regular(arity, depth).enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, matching_rate, derive_rng(seed, "baselines")
    )
    config = PmcastConfig(fanout=fanout, redundancy=redundancy)
    rng = derive_rng(seed, "baselines-events")

    def fresh_event() -> Event:
        return Event({}, event_id=rng.randrange(2**31))

    pmcast_report = run_dissemination(
        PmcastGroup.build(members, config), addresses[0], fresh_event(),
        SimConfig(seed=seed + 71),
    )
    flood = flat_gossip_broadcast(
        members, addresses[0], fresh_event(), fanout, SimConfig(seed=seed + 72)
    )
    genuine_flat = flat_genuine_multicast(
        members, addresses[0], fresh_event(), fanout, SimConfig(seed=seed + 73)
    )
    genuine_tree = run_dissemination(
        build_genuine_group(members, config), addresses[0], fresh_event(),
        SimConfig(seed=seed + 74),
    )
    mapper = BroadcastGroupMapper(members)
    groups_report, __, __ = mapper.multicast(
        addresses[0], fresh_event(), fanout, SimConfig(seed=seed + 75)
    )

    n = len(addresses)
    tree_knowledge = regular_total_view_size(arity, depth, redundancy)
    result = _table(
        f"Baselines at p_d={matching_rate}, n={n}, F={fanout} "
        "(knowledge = membership entries per process):",
        ["protocol", "delivery", "false_reception", "messages", "knowledge"],
        [
            (name, report.delivery_ratio, report.false_reception_ratio,
             report.messages_sent, knowledge)
            for name, report, knowledge in (
                ("pmcast", pmcast_report, tree_knowledge),
                ("flood broadcast", flood, n - 1),
                ("genuine flat", genuine_flat, n - 1),
                ("genuine tree", genuine_tree, tree_knowledge),
                ("subset groups", groups_report, n - 1),
            )
        ],
    )
    result.notes.append(
        "§1: flooding touches everyone; genuine/per-subset schemes need "
        "global knowledge; genuine filtering on the tree isolates "
        "interested processes behind uninterested delegates."
    )
    return result


def variants_experiment(
    arity: int = 5,
    depth: int = 3,
    matching_rate: float = 0.25,
    fanout: int = 3,
    redundancy: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    """pmcast vs the dissemination variants across :data:`VARIANT_GRID`.

    One dissemination per algorithm per grid point — pmcast (the tree
    engine), pure flat push, lazy push-then-pull and bounded-view
    gossip — all over the same member population and master seed.
    The defaults are the pinned configuration: at 5^3, seed 0, the rows
    hash (:meth:`ExperimentResult.digest`) to the value
    ``tests/bench/test_golden_digests.py`` holds, so a behaviour change
    in any variant — not only in pmcast — fails tier-1.
    """
    addresses = AddressSpace.regular(arity, depth).enumerate_regular(arity)
    # The stream name, event and knobs below are part of the pin.
    members = bernoulli_interests(
        addresses, matching_rate, derive_rng(seed, "perf-interests")
    )
    config = PmcastConfig(fanout=fanout, redundancy=redundancy)
    publisher = addresses[0]
    result = ExperimentResult(
        title=(
            f"Dissemination variants at n={len(addresses)}, "
            f"p_d={matching_rate}, F={fanout} (one seeded run per cell):"
        ),
        columns=["algorithm", "eps", "tau", "delivery_ratio",
                 "false_reception_ratio", "messages_sent",
                 "control_messages", "cost_per_delivery", "rounds"],
    )
    lazy_wins = 0
    for eps, tau in VARIANT_GRID:
        event = Event({"perf": 1}, event_id=7)
        sim = SimConfig(seed=seed, loss_probability=eps, crash_fraction=tau)
        # Node state mutates during a run: a fresh group per grid point.
        pmcast = run_dissemination(
            PmcastGroup.build(members, config), publisher, event, sim
        )
        push = flat_gossip_broadcast(
            members, publisher, event, fanout, sim_config=sim
        )
        lazy = lazy_pull_broadcast(
            members, publisher, event, fanout, sim_config=sim,
            infection_threshold=0.5, pull_fanout=2, retry_budget=8,
        )
        bounded = bounded_view_broadcast(
            members, publisher, event, fanout, sim_config=sim,
            view_size=8, shuffle_size=2,
        )
        for algorithm, report in (
            ("pmcast", pmcast), ("flat_push", push),
            ("lazy_pull", lazy), ("bounded_view", bounded),
        ):
            result.add_row(
                algorithm=algorithm,
                eps=eps,
                tau=tau,
                delivery_ratio=round(report.delivery_ratio, 4),
                false_reception_ratio=round(report.false_reception_ratio, 4),
                messages_sent=report.messages_sent,
                control_messages=report.control_messages,
                cost_per_delivery=round(report.cost_per_delivery, 2),
                rounds=report.rounds,
            )
        if (
            lazy.delivery_ratio >= pmcast.delivery_ratio
            and lazy.messages_sent < pmcast.messages_sent
        ):
            lazy_wins += 1
    result.notes.append(
        f"lazy_pull delivers at least pmcast's ratio on strictly fewer "
        f"messages at {lazy_wins} of {len(VARIANT_GRID)} grid points."
    )
    result.notes.append(f"rows sha1: {result.digest()}")
    return result


#: Tree depth of every simulated table below (the paper's d = 3).
DEPTH = 3


def _addresses(arity: int) -> List[Address]:
    return AddressSpace.regular(arity, DEPTH).enumerate_regular(arity)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


# -- A1–A3: the analytical models (closed form, no seed) -----------------


def rounds_model() -> ExperimentResult:
    """A1 — Eq 13's per-depth round budget at the Figure 4 configuration.

    The leaf budget collapses as p_d -> 1/n (the §5.1 pathology) and
    the last row shows Eq 11 inflating the budget under loss.
    """
    cells = [(rate, 0.0) for rate in (0.001, 0.01, 0.05, 0.2, 0.5, 1.0)]
    rows = []
    for rate, eps in cells + [(0.5, 0.1)]:
        total, per_depth = tree_total_rounds(rate, 22, 3, 3, 2, eps)
        rows.append((rate, eps, *per_depth, total))
    return _table(
        "Eq 13 round budget T_tot = T_1 + T_2 + T_3 "
        "(a=22, d=3, R=3, F=2; eps > 0 budgets per Eq 11):",
        ["p_d", "eps", "T_1", "T_2", "T_3", "T_tot"],
        rows,
    )


def markov_chain() -> ExperimentResult:
    """A2 — the Eqs 8–10 infection chain for one Figure 4 subgroup view
    (m_i = 66 entries at p_d = 0.5)."""
    chain = InfectionChain(33, 1.0)
    return _table(
        "Infection over rounds (Eqs 8-10): "
        "n_eff = 66*0.5 = 33, F_eff = 2*0.5 = 1:",
        ["round", "expected_infected", "p_all_infected"],
        [
            (rounds, chain.expected_after(rounds), float(chain.after(rounds)[-1]))
            for rounds in (0, 2, 4, 8, 12, 16, 20)
        ],
    )


def view_sizes() -> ExperimentResult:
    """A3 — Eq 12's per-process knowledge: the O(d R n^(1/d)) claim."""
    rows = []
    for arity, depth in ((10, 3), (22, 3), (40, 3), (10, 4), (22, 4)):
        m = regular_total_view_size(arity, depth, 3)
        rows.append((arity, depth, arity ** depth, m, m / arity ** depth))
    return _table(
        "Eq 12: per-process knowledge m = R a (d-1) + a (R = 3):",
        ["a", "d", "n", "m", "m_over_n"],
        rows,
    )


# -- B3/B4: one seeded run each, as a metric | value table ---------------


def throughput(arity: int = 6, seed: int = 0) -> ExperimentResult:
    """B3 — sustained load on the live runtime: 12 events, one publish a
    round, §2.3 membership gossip and failure detection running
    alongside; per-event reliability under contention."""
    addresses = _addresses(arity)
    members = bernoulli_interests(addresses, 0.5, derive_rng(seed, "tp"))
    runtime = GroupRuntime(
        members,
        config=PmcastConfig(fanout=2, redundancy=3, min_rounds_per_depth=2),
        sim_config=SimConfig(seed=seed + 5),
        detector_timeout=16,
    )
    rng = derive_rng(seed, "tp-publish")
    events = [Event({}, event_id=9000 + index) for index in range(12)]
    for event in events:
        runtime.publish(rng.choice(addresses), event)
        runtime.step()
    rounds = len(events) + runtime.run_until_idle(max_rounds=128)
    interested = [
        sum(interest.matches(event) for interest in members.values())
        for event in events
    ]
    delivered = [len(runtime.delivered_to(event)) for event in events]
    ratios = [d / max(i, 1) for d, i in zip(delivered, interested)]
    return _table(
        f"Sustained load: {len(events)} events injected 1/round into "
        f"n = {len(addresses)}, p_d = 0.5:",
        ["metric", "value"],
        [
            ("total rounds", rounds),
            ("deliveries", sum(delivered)),
            ("(event, subscriber) pairs", sum(interested)),
            ("mean per-event ratio", _mean(ratios)),
            ("min per-event ratio", min(ratios)),
            ("deliveries per round", sum(delivered) / rounds),
            ("membership exclusions", len(addresses) - runtime.size),
        ],
    )


def latency(arity: int = 8, seed: int = 0) -> ExperimentResult:
    """B4 — first-delivery round of every interested process (read off
    a trace) against the Eq 13 per-depth budget."""
    addresses = _addresses(arity)
    members = bernoulli_interests(addresses, 0.5, derive_rng(seed, "lat"))
    trace = TraceLog()
    report = run_dissemination(
        PmcastGroup.build(members, PmcastConfig(fanout=2, redundancy=3)),
        addresses[0],
        Event({}, event_id=7000 + seed),
        SimConfig(seed=7000 + seed),
        trace=trace,
    )
    rounds = sorted(record.round for record in trace.filter(kind="deliver"))
    count = len(rounds)
    budget, per_depth = tree_total_rounds(0.5, arity, DEPTH, 3, 2)
    return _table(
        f"First-delivery round of the interested processes "
        f"(a={arity}, d={DEPTH}, p_d=0.5, R=3, F=2):",
        ["metric", "value"],
        [
            ("interested deliveries", count),
            ("mean", _mean(rounds)),
            ("median", rounds[count // 2]),
            ("p95", rounds[min(int(count * 0.95), count - 1)]),
            ("max", rounds[-1]),
            ("Eq 13 budget T_tot", budget),
            *((f"T_{depth}", t) for depth, t in enumerate(per_depth, start=1)),
            ("run length (rounds)", report.rounds),
        ],
    )


# -- B5/B6/M1/ablations: independent cells through the trial grid --------


def _grid(
    executor: Optional[TrialExecutor],
    trial: Callable[[Tuple], object],
    points: Sequence[object],
    trials: int,
    *fixed: int,
) -> List[Tuple]:
    """``[(point, outcomes)]`` of ``trial((point, index, *fixed))``."""
    return (executor or TrialExecutor()).run_grid(
        trial, points, trials, lambda point, index: (point, index, *fixed)
    )


def _churn_trial(task: Tuple) -> Tuple:
    """One churn intensity: ``level`` joins a round, 0.6 / 0.4 of it
    leaves / crashes, five publishes judged against the membership at
    publish time."""
    level, __, arity, seed = task
    space = AddressSpace.regular(arity, DEPTH)
    addresses = space.enumerate_regular(arity)
    runtime = GroupRuntime(
        {address: StaticInterest(True) for address in addresses},
        config=PmcastConfig(fanout=3, redundancy=3, min_rounds_per_depth=2),
        sim_config=SimConfig(seed=seed),
        detector_timeout=10,
    )
    allocator = AddressAllocator(space, min_subgroup=3)
    for address in addresses:
        allocator.reserve(address)
    schedule = poisson_churn(
        allocator,
        list(addresses),
        lambda rng: StaticInterest(True),
        rounds=36,
        join_rate=level,
        leave_rate=level * 0.6,
        crash_rate=level * 0.4,
        rng=random.Random(seed + 1),
    )
    publishes = [
        (at, addresses[at], Event({}, event_id=8000 + at))
        for at in (3, 9, 15, 21, 27)
    ]
    ratios = [
        len(record["delivered"]) / max(len(record["interested_at_publish"]), 1)
        for record in run_with_churn(runtime, schedule, publishes, rounds=36)
        if record["published"]
    ]
    return (
        level, schedule.total_events, runtime.size, _mean(ratios), min(ratios)
    )


def churn(
    arity: int = 6, seed: int = 10, executor: Optional[TrialExecutor] = None
) -> ExperimentResult:
    """B5 — delivery under continuous Poisson churn with the §2.3
    detectors live (the paper's runs freeze membership, §4.1)."""
    grid = _grid(executor, _churn_trial, (0.0, 0.25, 0.5, 1.0), 1, arity, seed)
    return _table(
        f"Delivery vs churn intensity (n0 = {arity ** DEPTH}, "
        "36 rounds, 5 publishes):",
        ["churn_per_round", "changes", "final_n", "mean_delivery",
         "min_delivery"],
        [row for __, (row,) in grid],
    )


def _fault_trial(task: Tuple) -> float:
    """One dissemination at (eps, tau), rounds budgeted by Eq 3
    (``aware`` false) or by Eq 11 with the true eps / tau."""
    (loss, crash, aware), trial, arity, seed = task
    addresses = _addresses(arity)
    rng = derive_rng(seed, "fault", loss, crash, aware, trial)
    members = bernoulli_interests(addresses, 0.5, rng)
    config = PmcastConfig(
        fanout=2,
        redundancy=3,
        loss_aware_rounds=aware,
        assumed_loss=loss if aware else 0.0,
        assumed_crash=crash if aware else 0.0,
    )
    schedule = CrashSchedule.sample(
        addresses, crash, horizon=24,
        rng=derive_rng(seed, "fault-crash", loss, crash, aware, trial),
    )
    return run_dissemination(
        PmcastGroup.build(members, config),
        rng.choice(addresses),
        Event({}, event_id=rng.randrange(2**31)),
        SimConfig(seed=rng.randrange(2**31), loss_probability=loss),
        crash_schedule=schedule,
    ).delivery_ratio


def fault_sensitivity(
    arity: int = 8, seed: int = 6, executor: Optional[TrialExecutor] = None
) -> ExperimentResult:
    """B6 — delivery vs eps and tau (the paper's figures are
    failure-free): the plain Eq 3 budget against §3.3's "conservative
    values", i.e. rounds budgeted with Eq 11."""
    levels = ((0.0, 0.0), (0.1, 0.0), (0.2, 0.0), (0.3, 0.0),
              (0.0, 0.05), (0.0, 0.1), (0.2, 0.05))
    cells = [(*level, aware) for level in levels for aware in (False, True)]
    delivery = {
        cell: _mean(ratios)
        for cell, ratios in _grid(executor, _fault_trial, cells, 3, arity, seed)
    }
    return _table(
        f"Delivery vs failures (n = {arity ** DEPTH}, p_d = 0.5, "
        "F = 2, 3 trials; 'aware' budgets rounds with Eq 11):",
        ["eps", "tau", "plain", "aware"],
        [
            (loss, crash, delivery[loss, crash, False],
             delivery[loss, crash, True])
            for loss, crash in levels
        ],
    )


def _convergence_trial(task: Tuple) -> Tuple:
    """Leave one address out, join it, then step the runtime until every
    live replica holds its path's tables (``stale_replicas() == 0``):
    the rounds gossip pull takes to carry one join's refreshed lines
    everywhere.  No member may be excluded on the way."""
    (arity, depth), __, seed = task
    addresses = AddressSpace.regular(arity, depth).enumerate_regular(arity)
    rng = derive_rng(seed, "convergence", arity, depth)
    newcomer = rng.choice(addresses)
    runtime = GroupRuntime(
        {address: StaticInterest(True) for address in addresses if address != newcomer},
        config=PmcastConfig(redundancy=2),
        sim_config=SimConfig(seed=rng.randrange(2**31), loss_probability=0.0),
        detector_timeout=64,
    )
    runtime.join(newcomer, StaticInterest(True))
    rounds = 0
    while runtime.stale_replicas() and rounds < 256:
        runtime.step()
        rounds += 1
    if runtime.size != len(addresses):
        raise ReproError(
            f"membership convergence at {arity}^{depth} excluded a live member"
        )
    return len(addresses), arity, depth, rounds, not runtime.stale_replicas()


def membership_convergence(
    seed: int = 0, executor: Optional[TrialExecutor] = None
) -> ExperimentResult:
    """M1 — §2.3 gossip-pull rounds until every live replica agrees with
    the directory again after one join (epidemic theory: O(log n))."""
    points = [(3, 2), (4, 2), (3, 3), (4, 3)]
    grid = _grid(executor, _convergence_trial, points, 1, seed)
    return _table(
        "GroupRuntime rounds until every live replica holds its path's "
        "tables after one join (R = 2, eps = 0, near + far pull per "
        "member per round):",
        ["n", "arity", "depth", "rounds", "converged"],
        [row for __, (row,) in grid],
    )


#: (knob, workload, p_d, [(setting, PmcastConfig overrides, compact?)]);
#: a knob's random streams are labelled ``seed + 1 + its position``.
_ABLATIONS = (
    ("redundancy R", "bernoulli", 0.5,
     [(f"R = {r}", {"redundancy": r}, False) for r in (1, 2, 3, 4)]),
    ("fanout F", "bernoulli", 0.5,
     [(f"F = {f}", {"fanout": f}, False) for f in (1, 2, 3, 4)]),
    ("§3.2 shortcut", "local", 0.5,
     [("off", {}, False), ("on", {"local_interest_shortcut": True}, False)]),
    ("§6 leaf flood", "bernoulli", 0.9,
     [("off", {}, False), ("on", {"leaf_flood_threshold": 0.7}, False)]),
    ("§6 compaction", "windows", 0.5,
     [("exact", {}, False), ("near root", {}, True)]),
)


def _ablation_trial(task: Tuple) -> Tuple:
    """One dissemination under 5 % loss with one knob moved.

    Workloads: ``bernoulli`` — i.i.d. interest at rate p_d; ``local`` —
    the same inside the publisher's depth-1 subtree and nobody outside
    (the case §3.2's shortcut exists for); ``windows`` — every
    subscriber wants four narrow ``c`` windows of the Figure 2
    universe, so a subgroup's exact summary is more intervals than
    ``RegroupPolicy.near_root()`` keeps and compaction approximates it.
    """
    (__, __, stream, workload, rate, overrides, compact), trial, arity, seed = task
    addresses = publishers = _addresses(arity)
    rng = derive_rng(seed + stream, "ablation", workload, rate, trial)
    if workload == "bernoulli":
        members = bernoulli_interests(addresses, rate, rng)
    elif workload == "local":
        home = rng.randrange(arity)
        publishers = [a for a in addresses if a.components[0] == home]
        members = {address: StaticInterest(False) for address in addresses}
        members.update(bernoulli_interests(publishers, rate, rng))
    else:
        members = {
            address: Subscription({"c": reduce(Constraint.union, [
                between(low, low + 3.0)
                for low in [rng.uniform(0.0, 97.0) for __ in range(4)]
            ])})
            for address in addresses
        }
    group = PmcastGroup.build(
        members,
        PmcastConfig(**{"fanout": 2, "redundancy": 3, **overrides}),
        RegroupPolicy.near_root() if compact else RegroupPolicy.exact(),
    )
    event_id = rng.randrange(2**31)
    event = (
        random_event(rng, event_id=event_id)
        if workload == "windows"
        else Event({}, event_id=event_id)
    )
    report = run_dissemination(
        group, rng.choice(publishers), event,
        SimConfig(seed=rng.randrange(2**31), loss_probability=0.05),
    )
    return (
        report.delivery_ratio, report.false_reception_ratio,
        report.messages_sent, report.rounds,
    )


def ablations(
    arity: int = 8, seed: int = 0, executor: Optional[TrialExecutor] = None
) -> ExperimentResult:
    """One design knob per block (DESIGN.md §6), everything else fixed
    at F = 2, R = 3, 5 % loss; every cell is the mean of 3 trials."""
    points = [
        (knob, setting, stream, workload, rate, overrides, compact)
        for stream, (knob, workload, rate, settings) in enumerate(_ABLATIONS, 1)
        for setting, overrides, compact in settings
    ]
    grid = _grid(executor, _ablation_trial, points, 3, arity, seed)
    return _table(
        f"Ablations (n = {arity ** DEPTH}, loss 5%, 3 trials/row):",
        ["knob", "setting", "delivery", "false_reception", "messages",
         "rounds"],
        [
            (knob, setting, *(_mean(column) for column in zip(*outcomes)))
            for (knob, setting, *__), outcomes in grid
        ],
    )
