"""Regeneration harnesses for every figure of the paper's evaluation (§5).

Each ``figure*`` function re-runs the corresponding experiment — same
parameters as the caption, simulation plus (where the paper's analysis
applies) the analytical counterpart — and returns the
:class:`~repro.bench.extras.ExperimentResult` every table returns: the
first column is the x axis (each cell the axis value as printed), one
column per curve, and the title carries the caption and the parameter
line.

All functions accept a ``scale``-style override (smaller ``arity`` /
``trials``) so ``tests/bench`` and quick CLI passes exercise the
identical code path at CI-friendly sizes; the defaults reproduce the
paper's captions:

* Figure 4/5/7 — n ≈ 10 000 (a = 22, d = 3), R = 3, F = 2;
* Figure 6 — d = 3, R = 4, F = 3, subgroup sizes a in [10, 40].
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.addressing import AddressSpace
from repro.analysis import delivery_probability, false_reception_estimate
from repro.bench.extras import ExperimentResult, _table
from repro.config import PmcastConfig, SimConfig
from repro.errors import ReproError
from repro.interests.events import Event
from repro.par.executor import TrialExecutor
from repro.sim import (
    CrashSchedule,
    PmcastGroup,
    bernoulli_interests,
    run_dissemination,
)
from repro.sim.rng import derive_rng

__all__ = [
    "DEFAULT_RATES",
    "reliability_sweep",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
]

DEFAULT_RATES: Tuple[float, ...] = (
    0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)


@lru_cache(maxsize=8)
def _sweep_addresses(arity: int, depth: int) -> Tuple:
    """The (cached) regular address list of one sweep topology.

    Cached per process: every trial of a sweep shares the topology, and
    pool workers keep the cache warm across the chunks they execute.
    """
    space = AddressSpace.regular(arity, depth)
    return tuple(space.enumerate_regular(arity))


def _sweep_trial(task: Tuple) -> Dict[str, float]:
    """One reliability-sweep trial — the parallel unit of work.

    A pure function of its task tuple: every random stream derives
    from the (seed, grid point, trial) labels inside it, so the result
    does not depend on which worker runs the trial or in what order
    (see :func:`repro.sim.rng.derive_rng`).  The streams are
    bit-identical to the historical serial sweep loop.
    """
    (
        rate,
        trial,
        arity,
        depth,
        redundancy,
        fanout,
        seed,
        loss_probability,
        crash_fraction,
        threshold_h,
    ) = task
    addresses = _sweep_addresses(arity, depth)
    config = PmcastConfig(
        fanout=fanout, redundancy=redundancy, threshold_h=threshold_h
    )
    interest_rng = derive_rng(seed, "interests", rate, trial)
    members = bernoulli_interests(addresses, rate, interest_rng)
    group = PmcastGroup.build(members, config)
    publisher = interest_rng.choice(addresses)
    # A deterministic event id keeps the derived loss/gossip
    # streams — and therefore the whole sweep — reproducible.
    event = Event(
        {"sweep": 1},
        event_id=derive_rng(seed, "event", rate, trial).randrange(2**31),
    )
    sim = SimConfig(
        loss_probability=loss_probability,
        crash_fraction=0.0,
        seed=derive_rng(seed, "sim", rate, trial).randrange(2**31),
    )
    schedule = CrashSchedule.sample(
        addresses,
        crash_fraction,
        horizon=32,
        rng=derive_rng(seed, "crash", rate, trial),
    )
    report = run_dissemination(
        group, publisher, event, sim, crash_schedule=schedule
    )
    return {
        "delivery": report.delivery_ratio,
        "false_reception": report.false_reception_ratio,
        "rounds": report.rounds,
        "messages": report.messages_sent,
    }


def reliability_sweep(
    matching_rates: Sequence[float],
    arity: int,
    depth: int,
    redundancy: int,
    fanout: int,
    trials: int,
    seed: int = 0,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
    threshold_h: int = 0,
    executor: Optional[TrialExecutor] = None,
    checkpoint: Optional[str] = None,
) -> List[Dict[str, float]]:
    """One row per matching rate: mean delivery / false-reception etc.

    For every ``p_d`` the sweep builds ``trials`` independent groups
    (fresh Bernoulli interest assignment each), multicasts one event
    from a random member, and averages the
    :class:`~repro.sim.metrics.DisseminationReport` metrics.

    Trials are dispatched through ``executor`` (a fresh in-process
    serial executor by default); the rows are **bit-identical for any
    worker count**, because every trial's randomness is a pure
    function of ``(seed, rate, trial)`` and aggregation runs over the
    task-ordered result list.  ``checkpoint`` names a JSONL shard file
    for resumable sweeps (see :mod:`repro.par.checkpoint`).
    """
    if trials < 1:
        raise ReproError(f"trials {trials} must be >= 1")
    if executor is None:
        executor = TrialExecutor(jobs=1)
    common = (
        arity, depth, redundancy, fanout,
        seed, loss_probability, crash_fraction, threshold_h,
    )
    grid = executor.run_grid(
        _sweep_trial,
        matching_rates,
        trials,
        lambda rate, trial: (rate, trial, *common),
        checkpoint=checkpoint,
    )
    return [
        {
            "matching_rate": rate,
            **{
                column: sum(outcome[column] for outcome in outcomes) / trials
                for column in ("delivery", "false_reception", "rounds",
                               "messages")
            },
        }
        for rate, outcomes in grid
    ]


def _figure(
    number: int,
    caption: str,
    parameters: Dict[str, object],
    columns: List[str],
    rows: List[Sequence[object]],
    note: str,
) -> ExperimentResult:
    """Figure ``number`` as a table: the caption and one ``key=value``
    parameter line make the title, ``rows`` are in column order."""
    line = ", ".join(f"{key}={value}" for key, value in parameters.items())
    result = _table(f"Figure {number}: {caption}\n  {line}", columns, rows)
    result.notes.append(note)
    return result


#: The three figures over the p_d axis, as rows for :func:`_pd_figure`:
#: number -> (caption, curves as (label, tuned with threshold h?, sweep
#: column), analytical counterpart of the first curve, caption note).
_PD_FIGURES = {
    4: (
        "Infected Interested Processes",
        [("simulated", False, "delivery")],
        delivery_probability,
        "paper shape: ~1.0 for p_d >~ 0.3, degrading toward ~0.2-0.4 as "
        "p_d -> 1/n (the §5.1 small-rate breakdown).",
    ),
    5: (
        "Infected Uninterested Processes",
        [("simulated", False, "false_reception")],
        false_reception_estimate,
        "paper shape: below ~0.12 throughout, peaking at moderate p_d and "
        "vanishing as p_d -> 1 (delegates are then interested themselves).",
    ),
    7: (
        "Tuned vs Untuned Algorithm",
        [
            ("Original", False, "delivery"),
            ("Improved", True, "delivery"),
            ("Original false-reception", False, "false_reception"),
            ("Improved false-reception", True, "false_reception"),
        ],
        None,
        "paper shape: Improved >= Original everywhere, with the gap "
        "concentrated at small p_d; tuning raises the uninterested "
        "reception rate (the §5.3 compromise).",
    ),
}


def _pd_figure(
    number: int,
    arity: int,
    depth: int,
    redundancy: int,
    fanout: int,
    matching_rates: Sequence[float],
    trials: int,
    threshold_h: int,
    seed: int,
    loss_probability: float,
    crash_fraction: float,
    executor: Optional[TrialExecutor],
    checkpoint: Optional[str],
) -> ExperimentResult:
    """Row ``number`` of :data:`_PD_FIGURES`: one untuned and/or one
    tuned :func:`reliability_sweep`, each curve a column of one."""
    caption, curves, model, note = _PD_FIGURES[number]
    sweeps = {
        tuned: reliability_sweep(
            matching_rates, arity, depth, redundancy, fanout, trials,
            seed, loss_probability, crash_fraction,
            threshold_h if tuned else 0, executor,
            None if checkpoint is None
            else f"{checkpoint}.{'tuned' if tuned else 'original'}",
        )
        for tuned in sorted({tuned for __, tuned, __ in curves})
    }
    columns = ["p_d"] + [label for label, __, __ in curves]
    if model is not None:
        columns.append("analysis")
    rows = []
    for index, rate in enumerate(matching_rates):
        row = [f"{rate:g}"] + [
            sweeps[tuned][index][column] for __, tuned, column in curves
        ]
        if model is not None:
            row.append(model(rate, arity, depth, redundancy, fanout,
                             loss_probability, crash_fraction))
        rows.append(row)
    return _figure(
        number, caption,
        {
            "n": arity ** depth, "a": arity, "d": depth, "R": redundancy,
            "F": fanout, **({"h": threshold_h} if True in sweeps else {}),
            "trials": trials, "loss": loss_probability,
            "crash": crash_fraction,
        },
        columns, rows, note,
    )


def figure4(
    arity: int = 22,
    depth: int = 3,
    redundancy: int = 3,
    fanout: int = 2,
    matching_rates: Sequence[float] = DEFAULT_RATES,
    trials: int = 5,
    seed: int = 0,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
    executor: Optional[TrialExecutor] = None,
    checkpoint: Optional[str] = None,
) -> ExperimentResult:
    """Figure 4 — P(delivery) for interested processes vs p_d.

    Caption parameters: n ≈ 10 000 (a = 22), d = 3, R = 3, F = 2.
    Expected shape: near 1 for large p_d, drooping for small p_d
    (Pittel's asymptote under-estimates rounds for small audiences).
    """
    return _pd_figure(
        4, arity, depth, redundancy, fanout, matching_rates, trials, 0,
        seed, loss_probability, crash_fraction, executor, checkpoint,
    )


def figure5(
    arity: int = 22,
    depth: int = 3,
    redundancy: int = 3,
    fanout: int = 2,
    matching_rates: Sequence[float] = DEFAULT_RATES,
    trials: int = 5,
    seed: int = 0,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
    executor: Optional[TrialExecutor] = None,
    checkpoint: Optional[str] = None,
) -> ExperimentResult:
    """Figure 5 — P(reception) for uninterested processes vs p_d.

    Same caption parameters as Figure 4.  Expected shape: bounded by
    ~0.12, humped at small-to-moderate p_d, tending to 0 as p_d -> 1.
    """
    return _pd_figure(
        5, arity, depth, redundancy, fanout, matching_rates, trials, 0,
        seed, loss_probability, crash_fraction, executor, checkpoint,
    )


def figure6(
    arities: Sequence[int] = (10, 16, 22, 28, 34, 40),
    depth: int = 3,
    redundancy: int = 4,
    fanout: int = 3,
    matching_rates: Sequence[float] = (0.5, 0.2),
    trials: int = 3,
    seed: int = 0,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
    executor: Optional[TrialExecutor] = None,
    checkpoint: Optional[str] = None,
) -> ExperimentResult:
    """Figure 6 — scalability: P(delivery) vs subgroup size a.

    Caption parameters: d = 3, R = 4, F = 3; series for matching rates
    0.5 and 0.2.  Expected shape: >= ~0.9 everywhere, roughly flat or
    improving with a; the 0.2 series below the 0.5 series.
    """
    delivery = {
        (rate, arity): reliability_sweep(
            [rate], arity, depth, redundancy, fanout, trials, seed,
            loss_probability, crash_fraction,
            executor=executor,
            checkpoint=None
            if checkpoint is None
            else f"{checkpoint}.p{rate}-a{arity}",
        )[0]["delivery"]
        for rate in matching_rates
        for arity in arities
    }
    return _figure(
        6, "Scalability",
        {
            "d": depth, "R": redundancy, "F": fanout, "trials": trials,
            "n": f"a^{depth}", "loss": loss_probability,
            "crash": crash_fraction,
        },
        ["a"] + [f"Matching Rate {rate}" for rate in matching_rates]
        + [f"analysis {rate}" for rate in matching_rates],
        [
            [f"{arity:g}"]
            + [delivery[rate, arity] for rate in matching_rates]
            + [
                delivery_probability(rate, arity, depth, redundancy, fanout,
                                     loss_probability, crash_fraction)
                for rate in matching_rates
            ]
            for arity in arities
        ],
        "paper shape: delivery >= 0.9 across a in [10, 40]; the 0.2 curve "
        "sits below the 0.5 curve.",
    )


def figure7(
    arity: int = 22,
    depth: int = 3,
    redundancy: int = 3,
    fanout: int = 2,
    matching_rates: Sequence[float] = DEFAULT_RATES,
    trials: int = 5,
    threshold_h: int = 12,
    seed: int = 0,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
    executor: Optional[TrialExecutor] = None,
    checkpoint: Optional[str] = None,
) -> ExperimentResult:
    """Figure 7 — tuned (threshold h) vs untuned delivery vs p_d.

    Same caption parameters as Figure 4.  Expected shape: the improved
    curve lifts the small-p_d region toward 1 and coincides with the
    original curve for large p_d; the compromise (more uninterested
    receivers, cf. Figure 5) is reported as extra columns.
    """
    return _pd_figure(
        7, arity, depth, redundancy, fanout, matching_rates, trials,
        threshold_h, seed, loss_probability, crash_fraction, executor,
        checkpoint,
    )
