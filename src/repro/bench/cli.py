"""One runner for every figure and table: ``python -m repro.bench``.

Examples::

    python -m repro.bench --figure 4
    python -m repro.bench --figure 4 --jobs 4           # 4 worker procs
    python -m repro.bench --all --jobs auto
    python -m repro.bench --all --arity 10 --trials 2   # quick pass
    python -m repro.bench --experiment variants         # (ε, τ) table
    python -m repro.bench --experiment ablations --jobs 2

``--arity``/``--trials`` shrink the experiment for quick sanity runs;
defaults regenerate the paper-scale figures (n ≈ 10 000 — expect a few
minutes per figure on a laptop).  ``--jobs N|auto`` fans the trial
loops out over a process pool **without changing any output bit**
(see docs/VALIDATION.md, "Parallel execution").
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional, Sequence

from repro.bench import extras, figures
from repro.bench.extras import ExperimentResult
from repro.errors import ReproError
from repro.par import TrialExecutor

__all__ = ["REGISTRY", "FIGURES", "EXPERIMENTS", "main"]

#: CLI flag -> (the runner parameter it feeds, type, help).  ``--jobs``
#: is not here: it sizes the invocation's one executor, which every
#: entry that lists ``jobs`` is handed.
_PARAMETERS = {
    "arity": ("arity", int, "override the subgroup arity a (default: the "
              "table's own; paper scale for figures)"),
    "trials": ("trials", int, "override the number of trials per point"),
    "seed": ("seed", int, "master seed (default: the table's own)"),
    "loss": ("loss_probability", float,
             "message loss probability epsilon (default 0)"),
    "crash": ("crash_fraction", float, "crash fraction tau (default 0)"),
    "threshold": ("threshold_h", int,
                  "tuning threshold h for figure 7 (default 12)"),
}


class _Table(NamedTuple):
    """One registry entry: a runner returning an ``ExperimentResult``,
    and the flags it accepts."""

    run: Callable[..., ExperimentResult]
    accepts: FrozenSet[str]


def _figure6(arity: Optional[int] = None, **sweep: object) -> ExperimentResult:
    """``--arity`` pins Figure 6's x axis to that one subgroup size."""
    if arity is not None:
        sweep["arities"] = (arity,)
    return figures.figure6(**sweep)


_SWEEP = frozenset({"arity", "trials", "seed", "loss", "crash", "jobs"})
_SEEDED = frozenset({"arity", "seed"})
_GRID = _SEEDED | {"jobs"}

#: Every table this repository publishes, in ``--all`` / execution
#: order.  Adding one is one entry here: the ``--figure`` and
#: ``--experiment`` choices, the flag check and the dispatch all derive
#: from it; ``tests/bench/test_golden_digests.py`` then wants its digest
#: and ``tests/integration/test_docs.py`` its command in EXPERIMENTS.md.
REGISTRY: Dict[str, _Table] = {
    "figure4": _Table(figures.figure4, _SWEEP),
    "figure5": _Table(figures.figure5, _SWEEP),
    "figure6": _Table(_figure6, _SWEEP),
    "figure7": _Table(figures.figure7, _SWEEP | {"threshold"}),
    "locality": _Table(extras.locality_experiment, _SEEDED),
    "baselines": _Table(extras.baselines_experiment, _SEEDED),
    "variants": _Table(extras.variants_experiment, _SEEDED),
    "rounds_model": _Table(extras.rounds_model, frozenset()),
    "markov_chain": _Table(extras.markov_chain, frozenset()),
    "view_sizes": _Table(extras.view_sizes, frozenset()),
    "throughput": _Table(extras.throughput, _SEEDED),
    "latency": _Table(extras.latency, _SEEDED),
    "churn": _Table(extras.churn, _GRID),
    "fault_sensitivity": _Table(extras.fault_sensitivity, _GRID),
    "membership_convergence": _Table(
        extras.membership_convergence, frozenset({"seed", "jobs"})
    ),
    "ablations": _Table(extras.ablations, _GRID),
}

#: The two flags' choices: ``--figure N`` selects ``figureN``,
#: ``--experiment NAME`` every other key.
FIGURES = [name for name in REGISTRY if name.startswith("figure")]
EXPERIMENTS = [name for name in REGISTRY if name not in FIGURES]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the figures and tables of 'Probabilistic "
        "Multicast' (Eugster & Guerraoui, DSN 2002).  A flag a selected "
        "table does not take is an error, never ignored.",
    )
    parser.add_argument(
        "--figure",
        type=lambda number: f"figure{number}",
        choices=FIGURES,
        action="append",
        dest="tables",
        metavar="N",
        help="figure number to regenerate (repeatable)",
    )
    parser.add_argument(
        "--all", action="store_true", help="regenerate every figure"
    )
    parser.add_argument(
        "--experiment",
        choices=EXPERIMENTS,
        action="append",
        dest="tables",
        help="run a non-figure table of EXPERIMENTS.md (repeatable)",
    )
    for flag, (__, kind, text) in _PARAMETERS.items():
        parser.add_argument(f"--{flag}", type=kind, help=text)
    parser.add_argument(
        "--members",
        type=int,
        help="size preset: derive --arity as round(N^(1/3)) (every table "
        "is d = 3), e.g. --members 1000000 -> arity 100; an explicit "
        "--arity wins",
    )
    parser.add_argument(
        "--jobs",
        default="1",
        metavar="N|auto",
        help="worker processes for the trial loops ('auto' = usable "
        "CPUs); tables are identical for every value (default 1)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.members is not None and args.arity is None:
        args.arity = max(2, round(args.members ** (1.0 / extras.DEPTH)))
    chosen = set(args.tables or ()) | set(FIGURES if args.all else ())
    if not chosen:
        parser.error(
            "pass --figure N (repeatable), --experiment NAME or --all"
        )
    selected = [name for name in REGISTRY if name in chosen]
    given = {
        flag: getattr(args, flag)
        for flag in _PARAMETERS
        if getattr(args, flag) is not None
    }
    unused = [
        f"{name} does not take --{flag}"
        for name in selected
        for flag in sorted(given.keys() - REGISTRY[name].accepts)
    ]
    if unused:
        print(f"error: {'; '.join(unused)}", file=sys.stderr)
        return 2
    forwarded = {_PARAMETERS[flag][0]: value for flag, value in given.items()}
    try:
        with TrialExecutor(jobs=args.jobs) as executor:
            for name in selected:
                run, accepts = REGISTRY[name]
                kwargs = dict(forwarded)
                if "jobs" in accepts:
                    kwargs["executor"] = executor
                started = time.time()
                print(run(**kwargs).render())
                print(f"[{name} in {time.time() - started:.1f}s]")
                print()
    except ReproError as exc:
        # A bad --jobs or an arity no address space accepts: a usage
        # error like any other, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if executor.trials_run:
        # stderr, so stdout stays bit-identical for every --jobs value.
        print(
            f"[dispatch: {executor.trials_run} trials run, "
            f"jobs={executor.jobs}]",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
