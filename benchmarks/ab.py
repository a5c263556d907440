#!/usr/bin/env python3
"""A/B the ledger benchmark: a parent commit against this working tree.

    python3 benchmarks/ab.py PARENT OUT.json [--pairs N] [-- <run.py args>]
    python3 benchmarks/ab.py HEAD BENCH_PR16.json --pairs 10 -- --seconds 12

PARENT is materialised with ``git archive`` in a scratch directory
(under ``$TMPDIR``), and the benchmark's own files — the ``paths`` of
BENCHMARK.json, and BENCHMARK.json — are copied over it from this tree,
so both sides run identical benchmark code against their own ``src/``.
Every workload then runs as alternating pairs of fresh processes: pair
``i`` uses seed ``i`` on both sides, and the side that goes first
alternates.  Nothing else heavy may run meanwhile.

OUT.json (``repro.ledger.ab/v1``) lists every run and gives one verdict
per workload x end-to-end metric, from the pairs: each pair's log-ratio
(change over parent, same seed, signed so that positive is worse), their
median, and a seeded bootstrap 95 % interval of that median, against
the metric's BENCHMARK.json bound as a factor ``1 + bound``:

* ``regressed`` — the whole interval lies past ``1 + bound``;
* ``ok`` — the whole interval lies inside it;
* ``unresolved`` — otherwise; the interval is printed.

The parent's and the change's quartiles across seeds stay in the file
as context; no verdict reads them.

Exit 0; 1 if anything regressed or a workload's share of passing events
fell; 2 if a run could not measure (then nothing else is judged safe).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = "repro.ledger.ab/v1"
SIDES = ("parent", "change")
KINDS = ("regressed", "unresolved", "lower_ok_share", "unmeasured")
#: Bootstrap resamples of the pairs, and the seed that draws them: the
#: same runs always give the same interval.
RESAMPLES = 4000
BOOTSTRAP_SEED = 0


def spread(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def log_ratio(parent: float, change: float) -> float:
    """``log(change / parent)``; a move from or to zero is infinite."""
    if change == parent:
        return 0.0
    if parent > 0 and change > 0:
        return math.log(change / parent)
    return math.copysign(math.inf, change - parent)


def paired_interval(worse: Sequence[float]) -> Tuple[float, float, float]:
    """The median of ``worse`` and a seeded bootstrap 95 % interval of it."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(
        statistics.median(rng.choices(worse, k=len(worse))) for __ in range(RESAMPLES)
    )
    low = medians[round(0.025 * (RESAMPLES - 1))]
    high = medians[round(0.975 * (RESAMPLES - 1))]
    return statistics.median(worse), low, high


def judge(metric: dict, parent: Sequence[float], change: Sequence[float]) -> dict:
    """The verdict on one workload x metric; values are paired by index."""
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    before, after = spread(parent), spread(change)
    worse = [sign * log_ratio(p, c) for p, c in zip(parent, change)]
    median, low, high = paired_interval(worse)
    limit = math.log1p(bound)
    if low > limit:
        verdict = "regressed"
    elif high <= limit:
        verdict = "ok"
    else:
        verdict = "unresolved"
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": bound,
        "parent": before, "change": after,
        "change_over_parent_median": after["median"] / before["median"]
        if before["median"] else None,
        "parent_iqr": before["q3"] - before["q1"],
        # Per pair, how many times worse the change is (1 = unchanged,
        # below 1 = better): the median and its 95 % interval.
        "worse_factor": {key: math.exp(value) for key, value in
                         (("median", median), ("low", low), ("high", high))},
        "limit": 1.0 + bound,
        "change_wins": sum(w < 0 for w in worse),
        "ties": sum(w == 0 for w in worse), "pairs": len(worse),
        "verdict": verdict,
    }


def compare(spec: dict, runs: Sequence[dict]) -> Tuple[dict, dict]:
    """Per-workload tables and the overall verdict from a list of runs.

    A run is ``{"workload", "pair", "seed", "side", "ran_first"}`` plus
    either ``{"counts_digest", "attempted", "failed", "metrics"}`` or
    ``{"error"}``.  A pair counts only when both sides measured.
    """
    overall: dict = {kind: [] for kind in KINDS}
    workloads: Dict[str, dict] = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        by_pair: Dict[int, Dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run
        pairs = [by_pair[index] for index in sorted(by_pair)]
        measured = [
            pair for pair in pairs
            if all("metrics" in pair.get(side, ()) for side in SIDES)
        ]
        if len(measured) < len(pairs) or len(measured) < 2:
            overall["unmeasured"].append(workload)
        table = {"pairs": pairs}
        workloads[workload] = table
        if len(measured) < 2:
            continue
        table["end_to_end"] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {
                side: [pair[side]["metrics"][name] for pair in measured]
                for side in SIDES
            }
            entry = judge(metric, values["parent"], values["change"])
            table["end_to_end"][name] = entry
            if entry["verdict"] != "ok":
                overall[entry["verdict"]].append(f"{workload}.{name}")
        table["counts_digest_identical"] = all(
            pair["parent"]["counts_digest"] == pair["change"]["counts_digest"]
            for pair in measured
        )
        table["ok_share"] = {
            side: 1.0 - sum(pair[side]["failed"] for pair in measured)
            / sum(pair[side]["attempted"] for pair in measured)
            for side in SIDES
        }
        if table["ok_share"]["change"] < table["ok_share"]["parent"]:
            overall["lower_ok_share"].append(workload)
    failed = bool(overall["regressed"] or overall["lower_ok_share"])
    overall["exit_code"] = 2 if overall["unmeasured"] else int(failed)
    return workloads, overall


def run_once(command: Sequence[str], cwd: Path, workload: str, seed: int) -> dict:
    """One fresh benchmark process; its result line, or why there is none."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--trace", "0"]
    try:
        done = subprocess.run(
            argv, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out after 900 s"}
    if done.returncode != 0:
        return {"error": f"exit {done.returncode}"}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        return {
            "counts_digest": lines[-2].split()[1],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        }
    except (IndexError, KeyError, TypeError, ValueError) as error:
        return {"error": f"no result line ({error})"}


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE, check=True
    ).stdout


def materialise(parent: str, spec: dict, dest: Path) -> str:
    """PARENT's tree in ``dest``, under this tree's benchmark files."""
    commit = git("rev-parse", "--verify", f"{parent}^{{commit}}").decode().strip()
    subprocess.run(
        ["tar", "-x", "-C", str(dest)], input=git("archive", commit), check=True
    )
    for path in spec["paths"]:
        shutil.rmtree(dest / path, ignore_errors=True)
        shutil.copytree(
            ROOT / path, dest / path,
            ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
        )
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return commit


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    run_args: List[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, run_args = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="ab.py PARENT OUT.json [--pairs N] [-- <run.py args>]",
    )
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("output", help="where to write the report (JSON)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs per workload (default 10; >= 2)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs needs at least 2 to have quartiles")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    command = [*spec["command"], *run_args]

    runs: List[dict] = []
    with tempfile.TemporaryDirectory(prefix="ledger-ab-") as scratch:
        try:
            commit = materialise(args.parent, spec, Path(scratch))
        except (OSError, subprocess.CalledProcessError) as error:
            print(f"error: cannot materialise {args.parent}: {error}", file=sys.stderr)
            return 2
        where = {"parent": Path(scratch), "change": ROOT}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in [w["name"] for w in spec["workloads"]]:
                for side in order:
                    run = dict(workload=workload, pair=pair, seed=pair, side=side,
                               ran_first=order[0],
                               **run_once(command, where[side], workload, seed=pair))
                    runs.append(run)
                    print(f"pair {pair + 1}/{args.pairs} {workload:12s} {side:6s} "
                          f"{run.get('error', 'measured')}", flush=True)

    workloads, overall = compare(spec, runs)
    report = {
        "schema": SCHEMA, "parent": args.parent, "parent_commit": commit,
        "command": " ".join(command) + " --workload <W> --seed <pair> --trace 0",
        "pairs": args.pairs,
        "method": "benchmarks/ab.py: fresh-process alternating pairs, seed = "
        "pair index; verdict = seeded bootstrap 95 % interval of the median "
        "per-pair log-ratio against 1 + bound (its docstring has the rule)",
        "environment": {"platform": platform.platform(),
                        "python": platform.python_version(),
                        "nproc": os.cpu_count()},
        "verdict": overall,
        "workloads": workloads,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for kind in KINDS:
        print(f"{kind}: {', '.join(overall[kind]) or '-'}")
    for name in overall["regressed"] + overall["unresolved"]:
        workload, metric = name.split(".", 1)
        entry = workloads[workload]["end_to_end"][metric]
        factor = entry["worse_factor"]
        print(f"  {name} {entry['verdict']}: worse x{factor['median']:.3f} "
              f"[{factor['low']:.3f}, {factor['high']:.3f}] against x{entry['limit']:.2f}")
    print(f"wrote {args.output} (exit {overall['exit_code']})")
    return overall["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
