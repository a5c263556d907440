"""Non-figure experiments, runnable from the CLI and the benches.

The paper's figures live in :mod:`repro.bench.figures`; this module
implements the additional quantitative claims of the paper's prose as
reproducible experiments:

* :func:`locality_experiment` — §3.1's boundary-crossing claim:
  messages by sender-destination distance, pmcast vs flat flooding;
* :func:`baselines_experiment` — §1's comparison matrix: delivery,
  false reception, messages and per-process knowledge for pmcast and
  the three alternatives;
* :func:`variants_experiment` — pmcast against the dissemination
  variants (flat push, lazy pull, bounded view) across an (ε, τ) grid
  (docs/VARIANTS.md).

Each returns an :class:`ExperimentResult` whose ``render()`` prints the
same table the benchmarks assert on; the CLI exposes them via
``python -m repro.bench --experiment locality`` etc.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.addressing import AddressSpace
from repro.baselines import (
    BroadcastGroupMapper,
    build_genuine_group,
    flat_genuine_multicast,
    flat_gossip_broadcast,
)
from repro.config import PmcastConfig, SimConfig
from repro.errors import ReproError
from repro.interests import Event
from repro.membership import regular_total_view_size
from repro.sim import (
    PmcastGroup,
    bernoulli_interests,
    derive_rng,
    run_dissemination,
)
from repro.variants import bounded_view_broadcast, lazy_pull_broadcast

__all__ = [
    "ExperimentResult",
    "locality_experiment",
    "baselines_experiment",
    "variants_experiment",
]

#: The (ε, τ) grid :func:`variants_experiment` sweeps (the validate
#: harness's quick grid, so its rows and the conformance bands line up).
VARIANT_GRID = ((0.0, 0.0), (0.05, 0.0), (0.1, 0.05))


@dataclass
class ExperimentResult:
    """A titled table: ordered column names and one dict per row."""

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
        """The aligned ASCII table."""
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.4f}"
            return str(value)

        table = [self.columns] + [
            [fmt(row[name]) for name in self.columns] for row in self.rows
        ]
        widths = [
            max(len(line[index]) for line in table)
            for index in range(len(self.columns))
        ]
        lines = [self.title]
        lines.append(
            " | ".join(
                cell.rjust(width) for cell, width in zip(table[0], widths)
            )
        )
        lines.append("-+-".join("-" * width for width in widths))
        for line in table[1:]:
            lines.append(
                " | ".join(
                    cell.rjust(width) for cell, width in zip(line, widths)
                )
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


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
    columns = (
        ["protocol"]
        + [f"distance {i + 1}" for i in range(depth)]
        + ["widest_fraction", "delivery"]
    )
    result = ExperimentResult(
        title=(
            "Messages by sender-destination distance "
            f"(a={arity}, d={depth}, p_d={matching_rate}, F={fanout}; "
            f"distance {depth} crosses the widest boundary):"
        ),
        columns=columns,
    )
    for name, report in (("pmcast", pmcast_report), ("flood", flood_report)):
        values: Dict[str, object] = {"protocol": name}
        for index in range(depth):
            values[f"distance {index + 1}"] = report.messages_by_distance[index]
        values["widest_fraction"] = report.boundary_crossing_fraction
        values["delivery"] = report.delivery_ratio
        result.add_row(**values)
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
    result = ExperimentResult(
        title=(
            f"Baselines at p_d={matching_rate}, n={n}, F={fanout} "
            "(knowledge = membership entries per process):"
        ),
        columns=["protocol", "delivery", "false_reception", "messages",
                 "knowledge"],
    )
    for name, report, knowledge in (
        ("pmcast", pmcast_report, tree_knowledge),
        ("flood broadcast", flood, n - 1),
        ("genuine flat", genuine_flat, n - 1),
        ("genuine tree", genuine_tree, tree_knowledge),
        ("subset groups", groups_report, n - 1),
    ):
        result.add_row(
            protocol=name,
            delivery=report.delivery_ratio,
            false_reception=report.false_reception_ratio,
            messages=report.messages_sent,
            knowledge=knowledge,
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
