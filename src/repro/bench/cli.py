"""Command-line figure regeneration: ``python -m repro.bench``.

Examples::

    python -m repro.bench --figure 4
    python -m repro.bench --figure 4 --jobs 4           # 4 worker procs
    python -m repro.bench --all --jobs auto
    python -m repro.bench --all --arity 10 --trials 2   # quick pass
    python -m repro.bench --experiment variants         # (ε, τ) table

``--arity``/``--trials`` shrink the experiment for quick sanity runs;
defaults regenerate the paper-scale figures (n ≈ 10 000 — expect a few
minutes per figure on a laptop).  ``--jobs N|auto`` fans the trial
loops out over a process pool **without changing any output bit**
(see docs/VALIDATION.md, "Parallel execution"); ``--checkpoint
PREFIX`` makes sweeps resumable after an interruption.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from repro.bench import extras, figures
from repro.errors import ReproError
from repro.par import TrialExecutor

__all__ = ["main"]


_EXPERIMENTS = {
    "locality": extras.locality_experiment,
    "baselines": extras.baselines_experiment,
    "variants": extras.variants_experiment,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the figures of 'Probabilistic Multicast' "
        "(Eugster & Guerraoui, DSN 2002).",
    )
    parser.add_argument(
        "--figure",
        type=int,
        choices=(4, 5, 6, 7),
        action="append",
        help="figure number to regenerate (repeatable)",
    )
    parser.add_argument(
        "--all", action="store_true", help="regenerate every figure"
    )
    parser.add_argument(
        "--experiment",
        choices=sorted(_EXPERIMENTS),
        action="append",
        help="run an extra (non-figure) experiment (repeatable)",
    )
    parser.add_argument(
        "--arity",
        type=int,
        default=None,
        help="override the subgroup arity a (default: paper scale)",
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=3,
        help="tree depth d used by --members to derive the arity "
        "(default 3, the paper's hierarchy depth)",
    )
    parser.add_argument(
        "--members",
        type=int,
        default=None,
        help="size preset: derive --arity as round(N^(1/depth)), e.g. "
        "--members 1000000 -> arity 100; an explicit --arity wins",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the number of trials per point",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="message loss probability epsilon (default 0)",
    )
    parser.add_argument(
        "--crash",
        type=float,
        default=0.0,
        help="crash fraction tau (default 0)",
    )
    parser.add_argument(
        "--threshold",
        type=int,
        default=12,
        help="tuning threshold h for figure 7 (default 12)",
    )
    parser.add_argument(
        "--jobs",
        default="1",
        metavar="N|auto",
        help="worker processes for the sweep trial loops ('auto' = "
        "usable CPUs); figures are identical for every value "
        "(default 1)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PREFIX",
        help="JSONL shard-file prefix for resumable sweeps: an "
        "interrupted run re-invoked with the same arguments skips "
        "completed trials and produces identical tables",
    )
    return parser


def _run_figure(
    number: int, args: argparse.Namespace, executor: TrialExecutor
) -> str:
    common = {
        "trials": args.trials,
        "seed": args.seed,
        "loss_probability": args.loss,
        "crash_fraction": args.crash,
    }
    common = {key: value for key, value in common.items() if value is not None}
    common["executor"] = executor
    if args.checkpoint is not None:
        common["checkpoint"] = f"{args.checkpoint}.fig{number}"
    if number == 4:
        if args.arity is not None:
            common["arity"] = args.arity
        return figures.figure4(**common).render()
    if number == 5:
        if args.arity is not None:
            common["arity"] = args.arity
        return figures.figure5(**common).render()
    if number == 6:
        if args.arity is not None:
            common["arities"] = (args.arity,)
        return figures.figure6(**common).render()
    if number == 7:
        if args.arity is not None:
            common["arity"] = args.arity
        common["threshold_h"] = args.threshold
        return figures.figure7(**common).render()
    raise ValueError(f"unknown figure {number}")


def _run_experiment(
    name: str, args: argparse.Namespace, executor: TrialExecutor
) -> str:
    kwargs = {"seed": args.seed}
    if args.arity is not None:
        kwargs["arity"] = args.arity
    return _EXPERIMENTS[name](**kwargs).render()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.members is not None and args.arity is None:
        if args.depth < 1:
            parser.error("--depth must be >= 1")
        args.arity = max(2, round(args.members ** (1.0 / args.depth)))
    numbers: List[int] = []
    if args.all:
        numbers = [4, 5, 6, 7]
    elif args.figure:
        numbers = sorted(set(args.figure))
    elif not args.experiment:
        parser.error(
            "pass --figure N (repeatable), --experiment NAME or --all"
        )
    # One table, one error path: (label, past participle, runner, key).
    selected = [
        (f"figure {number}", "regenerated", _run_figure, number)
        for number in numbers
    ] + [
        (f"experiment {name}", "ran", _run_experiment, name)
        for name in args.experiment or ()
    ]
    try:
        executor = TrialExecutor(jobs=args.jobs)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with executor:
        for label, done, runner, key in selected:
            started = time.time()
            try:
                table = runner(key, args, executor)
            except ReproError as exc:
                # E.g. an arity no address space accepts, or a
                # corrupt/mismatched checkpoint shard: report cleanly
                # like any other usage/environment error.
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(table)
            print(f"[{label} {done} in {time.time() - started:.1f}s]")
            print()
        if numbers:
            # stderr, so stdout stays bit-identical for every --jobs value.
            dispatch = executor.metrics.snapshot().get("par", {})
            print(
                f"[dispatch: {dispatch.get('trials_run', 0)} trials run, "
                f"{dispatch.get('trials_resumed', 0)} resumed from "
                f"checkpoint, jobs={executor.jobs}]",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
