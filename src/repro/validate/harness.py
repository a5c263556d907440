"""The conformance harness: simulation vs. the §4 stochastic analysis.

The paper's guarantees are statistical, so conformance is too: for
each equation family, the harness runs a batch of seeded simulations,
aggregates the empirical statistic, and asks whether it falls inside a
**declared tolerance band** around the analytical prediction.  A band
has three components (see :class:`ToleranceBand`):

* an absolute slack, possibly asymmetric — the models are deliberately
  approximate in known directions (the tree model is pessimistic about
  delivery, the false-reception estimate is an upper bound);
* a relative slack proportional to the prediction;
* a confidence-interval widening ``ci_z * stderr`` absorbing the
  sampling noise of the batch itself.

Band values are calibrated, not aspirational: each suite's constants
were chosen from measured deviations at several (ε, τ) settings and
then frozen (docs/VALIDATION.md records the calibration numbers), so a
regression that moves simulation or analysis by more than the known
model error fails the gate.

Six suites cover the acceptance surface:

* ``flat`` — flat-group infection ``E[s_t]`` vs Eqs 8–10;
* ``rounds`` — rounds-to-95%-saturation vs Eq 11;
* ``tree`` — delivery / false-reception ratios vs Eqs 12–18;
* ``scale`` — the same Eqs 12–18 ratios at paper scale and beyond
  (n = 22³ up to 100³ = 10⁶), produced by the sharded
  struct-of-arrays kernel (:mod:`repro.par.subtree`) — the scalar
  engine cannot reach these sizes, so the oracle bands double as the
  large-n validation of the vectorized path;
* ``faults`` — deterministic executable oracles for the fault plane
  (a partition yields zero cross-traffic, crashing all delegates
  strands the subtree, a total blackout stops dissemination, a
  delay-only plan still delivers everything);
* ``variants`` — the dissemination-variant ablations
  (:mod:`repro.variants`) against their *paired* pure-push baseline on
  the same trial seed: lazy push-then-pull must match push's delivery
  within a calibrated band while spending strictly fewer messages, and
  bounded-view false reception must be monotone in the view size, with
  the largest view approaching the global-view baseline.

Every trial derives its own seed from the master seed, so a report is
bit-reproducible; ``python -m repro.validate`` wraps this module as a
machine-readable gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import ValidationError
from repro.faults import FaultPlan
from repro.interests import Event, StaticInterest
from repro.par.executor import TrialExecutor
from repro.par.subtree import build_regular_spec, run_sharded_dissemination
from repro.sim import (
    CrashSchedule,
    PmcastGroup,
    bernoulli_interests,
    run_dissemination,
)
from repro.sim.rng import derive_rng, derive_seed
from repro.validate import oracles

__all__ = [
    "REPORT_SCHEMA",
    "SUITES",
    "DETERMINISTIC_SUITES",
    "DEFAULT_SETTINGS",
    "FULL_SETTINGS",
    "ToleranceBand",
    "CheckResult",
    "ValidationReport",
    "run_conformance",
]

#: The versioned report format of :meth:`ValidationReport.to_dict`.
REPORT_SCHEMA = "repro.validate/v1"

#: The (ε, τ) grid every statistical suite sweeps (≥ 3 settings).
DEFAULT_SETTINGS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.0),
    (0.05, 0.0),
    (0.1, 0.05),
)

#: The extended grid of full (non ``--quick``) runs.
FULL_SETTINGS: Tuple[Tuple[float, float], ...] = DEFAULT_SETTINGS + (
    (0.2, 0.1),
)


@dataclass(frozen=True)
class ToleranceBand:
    """The declared agreement window around a prediction.

    The observed statistic passes when::

        predicted - lower - widen <= observed <= predicted + upper + widen
        widen = relative * |predicted| + ci_z * stderr

    Attributes:
        lower: absolute slack below the prediction (how far the
            simulation may *undershoot* the model).
        upper: absolute slack above it.
        relative: slack proportional to ``|predicted|``, both sides.
        ci_z: multiplier on the batch's standard error (2.58 ≈ a 99%
            normal confidence interval), absorbing sampling noise.
    """

    lower: float
    upper: float
    relative: float = 0.0
    ci_z: float = 2.58

    def bounds(
        self, predicted: float, stderr: float = 0.0
    ) -> Tuple[float, float]:
        """The concrete [low, high] window for one check."""
        widen = self.relative * abs(predicted) + self.ci_z * stderr
        return predicted - self.lower - widen, predicted + self.upper + widen


#: An exact band for the deterministic fault-plane oracles.
EXACT = ToleranceBand(lower=0.0, upper=0.0, relative=0.0, ci_z=0.0)

# Calibrated statistical bands (see docs/VALIDATION.md for the
# measured deviations behind each constant).
FLAT_BAND = ToleranceBand(lower=0.8, upper=0.8, relative=0.12)
ROUNDS_BAND = ToleranceBand(lower=1.0, upper=1.5, relative=0.25)
TREE_DELIVERY_BAND = ToleranceBand(lower=0.08, upper=0.40)
TREE_FALSE_BAND = ToleranceBand(lower=0.30, upper=0.08)


@dataclass(frozen=True)
class CheckResult:
    """One conformance check: a prediction, a measurement, a verdict."""

    suite: str
    name: str
    equation: str
    predicted: float
    observed: float
    stderr: float
    trials: int
    lower_bound: float
    upper_bound: float
    passed: bool
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "suite": self.suite,
            "name": self.name,
            "equation": self.equation,
            "predicted": round(self.predicted, 6),
            "observed": round(self.observed, 6),
            "stderr": round(self.stderr, 6),
            "trials": self.trials,
            "lower_bound": round(self.lower_bound, 6),
            "upper_bound": round(self.upper_bound, 6),
            "passed": self.passed,
            "params": self.params,
        }


@dataclass(frozen=True)
class ValidationReport:
    """The full outcome of one conformance run."""

    checks: Tuple[CheckResult, ...]
    config: Dict[str, Any]

    @property
    def passed(self) -> bool:
        """True when every check passed."""
        return all(check.passed for check in self.checks)

    def failures(self) -> List[CheckResult]:
        """The failing checks, in execution order."""
        return [check for check in self.checks if not check.passed]

    def suites(self) -> Tuple[str, ...]:
        """The distinct suites covered, in execution order."""
        seen: List[str] = []
        for check in self.checks:
            if check.suite not in seen:
                seen.append(check.suite)
        return tuple(seen)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "passed": self.passed,
            "config": self.config,
            "checks": [check.to_dict() for check in self.checks],
            "summary": {
                "total": len(self.checks),
                "failed": len(self.failures()),
                "suites": list(self.suites()),
            },
        }


def _mean_stderr(samples: Sequence[float]) -> Tuple[float, float]:
    count = len(samples)
    mean = sum(samples) / count
    if count < 2:
        return mean, 0.0
    variance = sum((x - mean) ** 2 for x in samples) / (count - 1)
    return mean, math.sqrt(variance / count)


def _check(
    suite: str,
    name: str,
    equation: str,
    predicted: float,
    samples: Sequence[float],
    band: ToleranceBand,
    params: Dict[str, Any],
) -> CheckResult:
    observed, stderr = _mean_stderr(samples)
    low, high = band.bounds(predicted, stderr)
    return CheckResult(
        suite=suite,
        name=name,
        equation=equation,
        predicted=predicted,
        observed=observed,
        stderr=stderr,
        trials=len(samples),
        lower_bound=low,
        upper_bound=high,
        passed=low <= observed <= high,
        params=params,
    )


class _Run(NamedTuple):
    """What :func:`run_conformance` hands every suite runner."""

    settings: Sequence[Tuple[float, float]]
    #: Per-point batch size; None for a suite registered without one.
    trials: Optional[int]
    seed: int
    executor: TrialExecutor
    quick: bool

    def grid(
        self,
        trial_fn: Callable[[Tuple], Any],
        *constants: Any,
        points: Optional[Sequence[Tuple]] = None,
    ) -> List[Tuple[Tuple, List[Any]]]:
        """``[(point, outcomes)]`` of ``trials`` runs of ``trial_fn`` at
        each point (the (ε, τ) settings by default), one task
        ``(*point, trial, seed, *constants)`` per run."""
        return self.executor.run_grid(
            trial_fn,
            self.settings if points is None else points,
            self.trials,
            lambda point, trial: (*point, trial, self.seed, *constants),
        )


def _all_interested_group(
    arity: int,
    depth: int,
    redundancy: int,
    fanout: int,
    min_rounds: int = 2,
) -> Tuple[PmcastGroup, List[Address]]:
    """A regular group whose every member is interested (depth 1 =
    the flat group of Eqs 8-11)."""
    space = AddressSpace.regular(arity, depth)
    members = {
        address: StaticInterest(True)
        for address in space.enumerate_regular(arity)
    }
    config = PmcastConfig(
        fanout=fanout, redundancy=redundancy, min_rounds_per_depth=min_rounds
    )
    return PmcastGroup.build(members, config), sorted(members)


def _sample_crashes(
    addresses: Sequence[Address],
    publisher: Address,
    crash_fraction: float,
    horizon: int,
    seed: int,
) -> CrashSchedule:
    """τ-model crash sampling over everyone *except the publisher*.

    The analytical oracles condition on an event that enters the gossip
    at all; a publisher crashing at round 0 produces the degenerate
    zero-round run the models do not describe (the paper's guarantees
    are about events that were actually multicast).
    """
    return CrashSchedule.sample(
        [address for address in addresses if address != publisher],
        crash_fraction,
        horizon=horizon,
        rng=derive_rng(seed, "crash"),
    )


def _infected_after(curve: Sequence[int], rounds: int) -> int:
    """``s_t`` from an infection curve (the curve freezes when idle)."""
    if not curve or rounds <= 0:
        return 1
    return curve[min(rounds, len(curve)) - 1]


# -- the flat suite (Eqs 8-10) -------------------------------------------


def _flat_trial(task: Tuple) -> List[int]:
    """One flat-group trial: the infection curve of one seeded run.

    A pure function of its task tuple (the parallel unit of work of
    the ``flat`` and ``rounds`` suites): the trial seed derives from
    ``(seed, (suite, eps, tau), trial)``, so the curve is independent
    of worker scheduling and bit-identical to the historical serial
    loop.
    """
    eps, tau, trial, seed, n, fanout, min_rounds, horizon, suite = task
    trial_seed = derive_seed(seed, suite, eps, tau, trial)
    group, addresses = _all_interested_group(n, 1, 1, fanout, min_rounds)
    publisher = addresses[0]
    schedule = _sample_crashes(
        addresses, publisher, tau, horizon, trial_seed
    )
    report = run_dissemination(
        group,
        publisher,
        Event({}, event_id=1),
        SimConfig(seed=trial_seed, loss_probability=eps),
        crash_schedule=schedule,
    )
    return list(report.infection_curve)


def _run_flat_suite(run: _Run) -> Iterator[CheckResult]:
    n, fanout = 40, 3
    windows = (2, 4, 6)
    horizon = max(windows)
    for (eps, tau), curves in run.grid(
        _flat_trial, n, fanout, horizon + 2, horizon, "flat"
    ):
        for rounds in windows:
            predicted = oracles.flat_infection_prediction(
                n, fanout, rounds, eps, tau
            )
            samples = [
                float(_infected_after(curve, rounds)) for curve in curves
            ]
            yield _check(
                "flat",
                f"infected[t={rounds},eps={eps},tau={tau}]",
                oracles.EQUATIONS["flat_infection"],
                predicted,
                samples,
                FLAT_BAND,
                {
                    "n": n,
                    "fanout": fanout,
                    "rounds": rounds,
                    "eps": eps,
                    "tau": tau,
                },
            )


# -- the rounds suite (Eq 11) --------------------------------------------


def _saturation_round(curve: Sequence[int]) -> Optional[float]:
    """Rounds to 95% saturation (None if the run produced no
    infection curve)."""
    if not curve:
        return None
    final = curve[-1]
    target = 0.95 * final
    saturation = next(
        index + 1
        for index, infected in enumerate(curve)
        if infected >= target
    )
    return float(saturation)


def _run_rounds_suite(run: _Run) -> Iterator[CheckResult]:
    n, fanout = 64, 3
    horizon = 12
    for (eps, tau), curves in run.grid(
        _flat_trial, n, fanout, 24, horizon, "rounds"
    ):
        samples = [
            saturation
            for saturation in map(_saturation_round, curves)
            if saturation is not None
        ]
        predicted = oracles.saturation_rounds_prediction(
            n, fanout, eps, tau
        )
        yield _check(
            "rounds",
            f"saturation[eps={eps},tau={tau}]",
            oracles.EQUATIONS["saturation_rounds"],
            predicted,
            samples,
            ROUNDS_BAND,
            {"n": n, "fanout": fanout, "eps": eps, "tau": tau},
        )


# -- the tree suite (Eqs 12-18) ------------------------------------------


#: The arguments of the Eqs 12-18 oracles, in call order, under the
#: names the checks record them by.
_TREE_MODEL = (
    "matching_rate", "arity", "depth", "redundancy", "fanout", "eps", "tau",
)


def _tree_checks(
    suite: str,
    label: str,
    model: Tuple,
    ratios: Sequence[Sequence[float]],
    **extra_params: Any,
) -> Iterator[CheckResult]:
    """The Eqs 12-18 check pair of one grid point of ``suite``.

    ``model`` holds the oracle arguments in :data:`_TREE_MODEL` order,
    ``ratios`` one ``(delivery, false_reception)`` pair per trial;
    ``label`` is what tells the point apart in the check names beside
    ε and τ.
    """
    eps, tau = model[-2:]
    params = dict(extra_params, **dict(zip(_TREE_MODEL, model)))
    yield _check(
        suite,
        f"delivery[{label},eps={eps},tau={tau}]",
        oracles.EQUATIONS["tree_delivery"],
        oracles.tree_delivery_prediction(*model),
        [ratio[0] for ratio in ratios],
        TREE_DELIVERY_BAND,
        params,
    )
    yield _check(
        suite,
        f"false_reception[{label},eps={eps},tau={tau}]",
        oracles.EQUATIONS["tree_false_reception"],
        oracles.tree_false_reception_prediction(*model),
        [ratio[1] for ratio in ratios],
        TREE_FALSE_BAND,
        params,
    )


def _tree_trial(task: Tuple) -> Optional[List[float]]:
    """One tree-suite trial: ``[delivery, false_reception]`` ratios
    (None when the Bernoulli draw produced no interested process)."""
    (
        eps,
        tau,
        p_d,
        trial,
        seed,
        arity,
        depth,
        redundancy,
        fanout,
        horizon,
    ) = task
    config = PmcastConfig(
        fanout=fanout, redundancy=redundancy, min_rounds_per_depth=2
    )
    space = AddressSpace.regular(arity, depth)
    addresses = sorted(space.enumerate_regular(arity))
    trial_seed = derive_seed(seed, "tree", eps, tau, p_d, trial)
    members = bernoulli_interests(
        addresses, p_d, derive_rng(trial_seed, "interests")
    )
    event = Event({}, event_id=1)
    interested = sorted(
        address
        for address, interest in members.items()
        if interest.matches(event)
    )
    if not interested:
        return None
    group = PmcastGroup.build(members, config)
    publisher = interested[0]
    schedule = _sample_crashes(
        addresses, publisher, tau, horizon, trial_seed
    )
    report = run_dissemination(
        group,
        publisher,
        event,
        SimConfig(seed=trial_seed, loss_probability=eps),
        crash_schedule=schedule,
    )
    return [report.delivery_ratio, report.false_reception_ratio]


def _run_tree_suite(run: _Run) -> Iterator[CheckResult]:
    arity, depth, redundancy, fanout = 5, 3, 3, 3
    matching_rates = (0.25, 0.75)
    horizon = 12
    points = [
        (eps, tau, p_d) for eps, tau in run.settings for p_d in matching_rates
    ]
    grid = run.grid(
        _tree_trial, arity, depth, redundancy, fanout, horizon, points=points
    )
    for (eps, tau, p_d), outcomes in grid:
        yield from _tree_checks(
            "tree",
            f"p={p_d}",
            (p_d, arity, depth, redundancy, fanout, eps, tau),
            [outcome for outcome in outcomes if outcome is not None],
        )


# -- the scale suite (Eqs 12-18 at paper scale and beyond) ---------------

#: (arity, depth) points of the scale suite; quick runs keep only the
#: paper-scale point (22³ = 10648 members).
SCALE_POINTS_FULL = ((22, 3), (47, 3), (100, 3))
SCALE_POINTS_QUICK = ((22, 3),)


def _scale_trial(task: Tuple) -> Optional[List[float]]:
    """One scale-suite trial: ``[delivery, false_reception]`` ratios of
    one serial sharded run (None when nobody is interested).

    The run's rounds stay inside the trial — handed to workers, every
    round's passes would be pickled out and back — so ``--jobs`` buys
    whole trials, as in every other suite.
    """
    arity, depth, eps, tau, trial, seed, p_d, redundancy, fanout = task
    spec = build_regular_spec(
        arity,
        depth,
        p_d,
        config=PmcastConfig(
            fanout=fanout, redundancy=redundancy, min_rounds_per_depth=2
        ),
        sim_config=SimConfig(
            seed=derive_seed(seed, "scale", arity, depth, eps, tau, trial),
            loss_probability=eps,
            crash_fraction=tau,
            max_rounds=64,
        ),
        event_id=1,
    )
    report = run_sharded_dissemination(spec)
    if report.interested == 0:
        return None
    return [report.delivery_ratio, report.false_reception_ratio]


def _run_scale_suite(run: _Run) -> Iterator[CheckResult]:
    """Large-n delivery / false-reception conformance."""
    redundancy, fanout, p_d = 3, 3, 0.25
    points = [
        (arity, depth, eps, tau)
        for arity, depth in (
            SCALE_POINTS_QUICK if run.quick else SCALE_POINTS_FULL
        )
        for eps, tau in run.settings
    ]
    grid = run.grid(_scale_trial, p_d, redundancy, fanout, points=points)
    for (arity, depth, eps, tau), outcomes in grid:
        n = arity ** depth
        yield from _tree_checks(
            "scale",
            f"n={n}",
            (p_d, arity, depth, redundancy, fanout, eps, tau),
            [outcome for outcome in outcomes if outcome is not None],
            n=n,
        )


# -- the variants suite (ablations vs their paired push baseline) --------

#: Bounded partial-view sizes swept per trial, ascending.
VARIANT_VIEW_SIZES = (4, 8, 16)

# Calibrated variant bands (docs/VALIDATION.md §variants for the
# measured deviations).  The "prediction" of each check is the paired
# pure-push statistic of the same trial seed, so the bands absorb only
# the algorithmic gap, not seed noise.
VARIANT_DELIVERY_BAND = ToleranceBand(lower=0.06, upper=0.06)
# lazy messages / push messages: must stay strictly under parity
# (window [0.05, 0.90] around the 0.60 prediction — measured ratios
# sit at 0.17-0.21 across the grid).
VARIANT_COST_BAND = ToleranceBand(lower=0.55, upper=0.30, ci_z=0.0)
# min adjacent delta of mean false reception across ascending view
# sizes: monotone up to a small sampling slack.
VARIANT_MONOTONE_BAND = ToleranceBand(lower=0.04, upper=1.0, ci_z=0.0)
VARIANT_BOUNDED_DELIVERY_BAND = ToleranceBand(lower=0.10, upper=0.06)


def _variant_trial(task: Tuple) -> List[float]:
    """One variants-suite trial: the paired statistics of one seed.

    Runs pure push, lazy push-then-pull and the bounded-view ablation
    at each :data:`VARIANT_VIEW_SIZES` over the *same* trial seed —
    each entry point re-derives the flat baseline's RNG streams from
    it, so push and lazy share the identical crash schedule and network
    stream and the comparison is paired, not just seeded.

    Returns ``[push_delivery, push_messages, lazy_delivery,
    lazy_messages] + [delivery, false_reception] * len(view_sizes)``.
    """
    from repro.baselines.flat import flat_gossip_broadcast
    from repro.variants.bounded_view import bounded_view_broadcast
    from repro.variants.lazy_pull import lazy_pull_broadcast

    eps, tau, trial, seed, arity, depth, fanout, p_d = task
    trial_seed = derive_seed(seed, "variants", eps, tau, trial)
    space = AddressSpace.regular(arity, depth)
    addresses = sorted(space.enumerate_regular(arity))
    members = bernoulli_interests(
        addresses, p_d, derive_rng(trial_seed, "interests")
    )
    event = Event({}, event_id=1)
    publisher = addresses[0]
    sim = SimConfig(
        seed=trial_seed, loss_probability=eps, crash_fraction=tau
    )
    push = flat_gossip_broadcast(
        members, publisher, event, fanout, sim_config=sim
    )
    lazy = lazy_pull_broadcast(
        members,
        publisher,
        event,
        fanout,
        sim_config=sim,
        infection_threshold=0.5,
        pull_fanout=2,
        retry_budget=8,
    )
    out = [
        push.delivery_ratio,
        float(push.messages_sent),
        lazy.delivery_ratio,
        float(lazy.messages_sent),
    ]
    for view_size in VARIANT_VIEW_SIZES:
        bounded = bounded_view_broadcast(
            members,
            publisher,
            event,
            fanout,
            sim_config=sim,
            view_size=view_size,
            shuffle_size=2,
        )
        out.append(bounded.delivery_ratio)
        out.append(bounded.false_reception_ratio)
    return out


def _run_variants_suite(run: _Run) -> Iterator[CheckResult]:
    arity, depth, fanout, p_d = 5, 3, 3, 0.3
    grid = run.grid(_variant_trial, arity, depth, fanout, p_d)
    lazy_eq = oracles.EQUATIONS["variant_lazy_pull"]
    bounded_eq = oracles.EQUATIONS["variant_bounded_view"]
    for (eps, tau), rows in grid:
        params = {
            "n": arity ** depth,
            "fanout": fanout,
            "matching_rate": p_d,
            "eps": eps,
            "tau": tau,
        }
        # 1. Lazy delivery tracks its paired push run.  The statistic
        #    is the per-trial difference, so the prediction is 0.
        yield _check(
            "variants",
            f"lazy_delivery_gap[eps={eps},tau={tau}]",
            lazy_eq,
            0.0,
            [row[2] - row[0] for row in rows],
            VARIANT_DELIVERY_BAND,
            params,
        )
        # 2. ... while spending strictly fewer messages: the per-trial
        #    lazy/push message ratio must sit well below parity.
        yield _check(
            "variants",
            f"lazy_cost_ratio[eps={eps},tau={tau}]",
            lazy_eq,
            0.60,
            [row[3] / max(row[1], 1.0) for row in rows],
            VARIANT_COST_BAND,
            params,
        )
        # 3. Bounded-view false reception is monotone in view size: a
        #    bigger partial view behaves more like the global one, so
        #    flood leakage may only grow.  The statistic is the minimum
        #    adjacent delta of the per-size means (>= -slack).
        false_means = [
            sum(row[5 + 2 * index] for row in rows) / len(rows)
            for index in range(len(VARIANT_VIEW_SIZES))
        ]
        min_delta = min(
            false_means[index + 1] - false_means[index]
            for index in range(len(false_means) - 1)
        )
        yield _check(
            "variants",
            f"bounded_false_monotone[eps={eps},tau={tau}]",
            bounded_eq,
            0.0,
            [min_delta],
            VARIANT_MONOTONE_BAND,
            dict(params, view_sizes=list(VARIANT_VIEW_SIZES)),
        )
        # 4. The largest bounded view approaches the global-view push
        #    baseline's delivery (paired per-trial difference again).
        last = 4 + 2 * (len(VARIANT_VIEW_SIZES) - 1)
        yield _check(
            "variants",
            f"bounded_delivery_gap[eps={eps},tau={tau}]",
            bounded_eq,
            0.0,
            [row[last] - row[0] for row in rows],
            VARIANT_BOUNDED_DELIVERY_BAND,
            dict(params, view_size=VARIANT_VIEW_SIZES[-1]),
        )


# -- the faults suite (deterministic oracles) ----------------------------


def _run_faults_suite(run: _Run) -> Iterator[CheckResult]:
    """Deterministic fault-plane oracles: exact outcomes, exact bands.

    One row per oracle: (check name, plan, statistic, exact
    prediction), the statistic read off the run's report and the
    addresses that hold the event after it.
    """
    isolate = FaultPlan(name="isolate-3")
    for other in ("0", "1", "2"):
        isolate = isolate.with_partition(0, 512, "3", other)
    cases = [
        # A permanent partition isolating subtree 3 -> zero receptions
        # inside it.
        (
            "partition_isolates_subtree",
            isolate,
            lambda report, held: sum(a.components[0] == 3 for a in held),
            0.0,
        ),
        # Crashing all R root delegates of subtree 2 (its two smallest
        # addresses) at round 0 strands the rest of that subtree (no
        # membership repair in a static run) -> zero receptions among
        # its survivors.
        (
            "delegate_crash_strands_subtree",
            FaultPlan(name="behead-2").with_delegate_crash(0, "2", count=2),
            lambda report, held: sum(
                a.components[0] == 2 and a.components[1] >= 2 for a in held
            ),
            0.0,
        ),
        # A total blackout burst (p = 1 over the whole run) -> only the
        # publisher ever holds the event.
        (
            "blackout_stops_dissemination",
            FaultPlan(name="blackout").with_loss_burst(0, 512, 1.0),
            lambda report, held: report.received_total,
            1.0,
        ),
        # A delay-only plan reorders but loses nothing -> full delivery
        # on a loss-free network.
        (
            "delay_preserves_delivery",
            FaultPlan(name="delay-only").with_delay(1, 4, 3),
            lambda report, held: report.delivery_ratio,
            1.0,
        ),
    ]
    for name, plan, statistic, predicted in cases:
        group, addresses = _all_interested_group(4, 2, 2, 3)
        event = Event({}, event_id=1)
        report = run_dissemination(
            group, addresses[0], event, SimConfig(seed=run.seed), faults=plan
        )
        held = [a for a in addresses if group.node(a).has_received(event)]
        yield _check(
            "faults",
            name,
            oracles.EQUATIONS["fault_plane"],
            predicted,
            [float(statistic(report, held))],
            EXACT,
            {"plan": plan.name},
        )


# -- the registry --------------------------------------------------------


#: Every suite, in execution order: name -> (calibrated ``(full,
#: quick)`` trials per grid point, runner yielding the checks).  A
#: deterministic suite registers None for the counts: its runner sees
#: ``run.trials`` = None and ``--trials`` does not apply to it.  Adding
#: a suite is one entry here — :data:`SUITES`, the CLI's ``--suite``
#: choices and :func:`run_conformance`'s dispatch all derive from it.
_REGISTRY: Dict[
    str,
    Tuple[Optional[Tuple[int, int]], Callable[[_Run], Iterator[CheckResult]]],
] = {
    "flat": ((40, 12), _run_flat_suite),
    "rounds": ((30, 10), _run_rounds_suite),
    "tree": ((25, 8), _run_tree_suite),
    "scale": ((3, 3), _run_scale_suite),
    "faults": (None, _run_faults_suite),
    "variants": ((12, 6), _run_variants_suite),
}

#: The suite names, in execution order.
SUITES = tuple(_REGISTRY)

#: The deterministic suites: ``--trials`` does not apply to them.
DETERMINISTIC_SUITES = tuple(
    name for name, (counts, __) in _REGISTRY.items() if counts is None
)


def run_conformance(
    suites: Optional[Sequence[str]] = None,
    trials: Optional[int] = None,
    seed: int = 2002,
    quick: bool = False,
    settings: Optional[Sequence[Tuple[float, float]]] = None,
    jobs: object = 1,
) -> ValidationReport:
    """Run the conformance suites and return the report.

    Args:
        suites: which of :data:`SUITES` to run (all by default).
        trials: per-(setting) simulation count override; by default
            each suite uses its calibrated count (reduced under
            ``quick``).
        seed: the master seed; every trial derives its own from it, so
            the whole report is bit-reproducible.
        quick: smaller batches and the 3-setting grid — the CI
            configuration.
        settings: explicit (ε, τ) grid override.
        jobs: worker-process count for the statistical suites' trial
            batches — an int, a digit string, or ``"auto"`` (see
            :func:`repro.par.executor.resolve_jobs`).  The report is
            **identical for every value**: trial seeds derive from the
            master seed and the grid point alone, and samples are
            aggregated in task order.  ``jobs`` is deliberately *not*
            recorded in the report's config, so serial and parallel
            reports compare equal byte for byte.

    Raises:
        ValidationError: on an unknown suite name.
        ParallelError: on an invalid ``jobs`` value.
    """
    chosen = tuple(suites) if suites else SUITES
    for suite in chosen:
        if suite not in _REGISTRY:
            raise ValidationError(
                f"unknown suite {suite!r}; choose from {SUITES}"
            )
    grid = tuple(settings) if settings else (
        DEFAULT_SETTINGS if quick else FULL_SETTINGS
    )
    checks: List[CheckResult] = []
    with TrialExecutor(jobs=jobs) as executor:  # type: ignore[arg-type]
        for suite, (calibrated, runner) in _REGISTRY.items():
            if suite not in chosen:
                continue
            count = None
            if calibrated is not None:
                full, fast = calibrated
                count = (
                    trials if trials is not None else (fast if quick else full)
                )
                if count < 2:
                    raise ValidationError(
                        f"suite {suite!r} needs at least 2 trials, "
                        f"got {count}"
                    )
            checks.extend(runner(_Run(grid, count, seed, executor, quick)))
    return ValidationReport(
        checks=tuple(checks),
        config={
            "seed": seed,
            "quick": quick,
            "suites": list(chosen),
            "settings": [list(pair) for pair in grid],
            "trials_override": trials,
        },
    )
