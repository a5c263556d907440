"""``python -m repro.validate`` — the simulation-vs-analysis gate.

Runs the conformance suites of :mod:`repro.validate.harness` and
prints one line per check::

    [PASS] flat   infected[t=4,eps=0.05,tau=0.0]  Eqs 8-10
           observed=33.275 predicted=33.155 band=[28.46, 38.42]

Exit codes: 0 = all checks inside their tolerance bands, 1 = at least
one conformance failure, 2 = usage or environment error.  ``--output``
writes the machine-readable ``repro.validate/v1`` JSON report (the CI
artifact); ``--json`` prints it instead of the table.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.validate.harness import (
    DETERMINISTIC_SUITES,
    SUITES,
    ValidationReport,
    run_conformance,
)

__all__ = ["main"]


def _print_report(report: ValidationReport) -> None:
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(
            f"[{verdict}] {check.suite:<6} {check.name:<40} "
            f"{check.equation}"
        )
        print(
            f"       observed={check.observed:.4f} "
            f"predicted={check.predicted:.4f} "
            f"band=[{check.lower_bound:.4f}, {check.upper_bound:.4f}] "
            f"trials={check.trials}"
        )
    failed = len(report.failures())
    total = len(report.checks)
    print(
        f"conformance: {total - failed}/{total} checks passed "
        f"({', '.join(report.suites())})"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description=(
            "Compare simulated pmcast outcomes against the paper's "
            "stochastic analysis (Eqs 8-18) within declared tolerance "
            "bands."
        ),
    )
    # No argparse `choices` here: an empty nargs="*" default trips the
    # choice validation on some argparse versions, and run_conformance
    # already rejects unknown names with the clean exit-2 error path.
    parser.add_argument(
        "suites",
        nargs="*",
        metavar="suite",
        help="suites to run, e.g. 'variants' (positional form of "
        "--suite; default: all)",
    )
    parser.add_argument(
        "--suite",
        action="append",
        choices=SUITES,
        help="run only this suite (repeatable; default: all)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the per-setting simulation count (an error if "
        "every selected suite is deterministic)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller batches and the 3-setting grid (CI mode)",
    )
    parser.add_argument(
        "--seed", type=int, default=2002, help="master seed (default 2002)"
    )
    parser.add_argument(
        "--jobs",
        default="1",
        metavar="N|auto",
        help="worker processes for the statistical trial batches "
        "('auto' = usable CPUs); the report is identical for every "
        "value (default 1)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the JSON report to this path",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the JSON report instead of the table",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    # Positional suites and repeated --suite flags merge (preserving
    # SUITES execution order; run_conformance ignores duplicates).
    chosen = list(args.suites) + list(args.suite or [])
    if args.trials is not None and chosen and set(chosen) <= set(
        DETERMINISTIC_SUITES
    ):
        # The bench CLI's rule: a flag no selected suite takes is an
        # error, never silently dropped.
        print(
            f"error: {', '.join(sorted(set(chosen)))} does not take "
            "--trials (deterministic)",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_conformance(
            suites=chosen or None,
            trials=args.trials,
            seed=args.seed,
            quick=args.quick,
            jobs=args.jobs,
        )
        payload = report.to_dict()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            _print_report(report)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
