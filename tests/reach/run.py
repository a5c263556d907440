"""Reachability profile: the ``src/repro`` functions no entry point calls.

Usage, from the repository root::

    python tests/reach/run.py                 # every entry point
    python tests/reach/run.py --only bench    # entry points whose label has "bench"
    python tests/reach/run.py --check tests/reach/uncalled.txt

Each entry point of :func:`entry_points` — every ``examples/*.py``,
every ``python -m repro.bench --experiment`` plus ``--all --arity 6
--trials 2``, ``python -m repro.validate --quick`` and the full
``flat``, ``rounds``, ``tree``, ``faults`` and ``variants`` suites, the
four ledger workloads at ``--scale toy --trace 1``, and ``python -m
repro.obs summarize|validate|render|diff`` on sink-written traces —
runs in a fresh interpreter at ``--jobs 1``.  A generated
``sitecustomize.py`` first on ``PYTHONPATH`` starts :mod:`cProfile`
before anything is imported and, when the process ends (a forked pool
worker included), writes the ``src/repro`` code objects that ran.  The
runner then parses every ``src/repro`` module with :mod:`ast` and
prints each function or method whose code never ran, grouped by file,
with its line count.

Each function is keyed ``path::Qualified.name`` (``Class.method``,
``outer.inner``; no line numbers, so an edit elsewhere in the file does
not move a key).  Two kinds are exempt by rule and never listed: a
``__repr__`` or ``__str__``, and an ``@abstractmethod`` whose body is
only its docstring.

With ``--check FILE`` the run is a ratchet against the committed list
(``tests/reach/uncalled.txt``: one key a line, ``#`` comments): a
listed name the file lacks is ``new:`` and fails the run, a key of the
file that is no longer listed is ``reached:`` and does not, so the file
can only shrink.  ``--check`` needs every entry point, not ``--only``.

Exit status 0; 1 if an entry point crashed (wrote a traceback; a
conformance failure's or a diff's nonzero exit is not a crash) or
``--check`` found a new name.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
TIMEOUT_S = 900

#: Written into the profile directory as ``sitecustomize.py``; the two
#: placeholders are filled with the package path and the output path.
SITECUSTOMIZE = '''\
import atexit
import cProfile
import json
import os

_PACKAGE = {package!r}
_OUT = {out!r}
_profile = cProfile.Profile()
_profile.enable()


def _dump():
    _profile.disable()
    seen = set()
    for entry in _profile.getstats():
        code = entry.code
        if not isinstance(code, str) and code.co_filename.startswith(_PACKAGE):
            seen.add((code.co_filename, code.co_firstlineno))
    path = os.path.join(_OUT, "%d.json" % os.getpid())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(sorted(seen), handle)


def _in_child():
    # A forked pool worker leaves through os._exit, past atexit.
    exit_now = os._exit

    def _exit(code):
        _dump()
        exit_now(code)

    os._exit = _exit


atexit.register(_dump)
os.register_at_fork(after_in_child=_in_child)
'''

#: A small dissemination written through a sink, for the obs CLI.
WRITE_TRACE = '''\
import sys
from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.interests.events import Event
from repro.obs import JsonlSink, Observer
from repro.sim import PmcastGroup, bernoulli_interests, derive_rng, run_dissemination

addresses = AddressSpace.regular(4, 3).enumerate_regular(4)
members = bernoulli_interests(addresses, 0.5, derive_rng(1, "reach"))
for path, seed in zip(sys.argv[1:], (1, 2)):
    with JsonlSink(path) as sink:
        run_dissemination(
            PmcastGroup.build(members, PmcastConfig()), addresses[0],
            Event({}, event_id=1), SimConfig(seed=seed, loss_probability=0.05),
            observer=Observer(trace=sink),
        )
'''


def entry_points(scratch: Path) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` per run, in run order; ``python`` is this one."""
    python = sys.executable
    runs = [
        (f"example {path.name}", [python, str(path)])
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    sys.path.insert(0, str(SRC))
    from repro.bench.cli import EXPERIMENTS

    runs += [
        (f"bench --experiment {name}",
         [python, "-m", "repro.bench", "--experiment", name, "--jobs", "1"])
        for name in EXPERIMENTS
    ]
    runs.append((
        "bench --all",
        [python, "-m", "repro.bench", "--all", "--arity", "6", "--trials", "2",
         "--jobs", "1"],
    ))
    runs.append((
        "validate --quick", [python, "-m", "repro.validate", "--quick", "--jobs", "1"]
    ))
    runs += [
        (f"validate {suite}",
         [python, "-m", "repro.validate", "--suite", suite, "--jobs", "1"])
        for suite in ("flat", "rounds", "tree", "faults", "variants")
    ]
    runs += [
        (f"ledger {workload}",
         [python, str(ROOT / "benchmarks" / "ledger" / "run.py"),
          "--workload", workload, "--scale", "toy", "--trace", "1"])
        for workload in ("static_tree", "live_group", "udp_live", "scale_1m")
    ]
    left, right = str(scratch / "left.jsonl"), str(scratch / "right.jsonl")
    runs.append(("obs write traces", [python, "-c", WRITE_TRACE, left, right]))
    runs += [
        (f"obs {command}", [python, "-m", "repro.obs", command, left])
        for command in ("summarize", "validate", "render")
    ]
    runs.append(("obs diff", [python, "-m", "repro.obs", "diff", left, right]))
    return runs


def called(out: Path) -> Set[Tuple[str, int]]:
    """Every code object ``(file, first line)`` some profiled process ran."""
    seen: Set[Tuple[str, int]] = set()
    for path in out.glob("*.json"):
        seen.update(tuple(item) for item in json.loads(path.read_text()))
    return seen


class Definition(NamedTuple):
    """One function or method of a module."""

    first: int  # what its code object reports: the first decorator's line
    name: str   # qualified: ``Class.method``, ``outer.inner``
    lines: int
    exempt: bool


def is_exempt(node: ast.FunctionDef) -> bool:
    """A ``__repr__`` / ``__str__``, or a docstring-only abstract method."""
    if node.name in ("__repr__", "__str__"):
        return True
    abstract = any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    )
    body = node.body
    return (
        abstract
        and len(body) == 1
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    )


def definitions(source: str) -> List[Definition]:
    """Every function and method of a module's source, in source order."""
    found: List[Definition] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append(Definition(
                    first, prefix + child.name, child.end_lineno - first + 1,
                    is_exempt(child),
                ))
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return found


def uncalled(ran: Set[Tuple[str, int]]) -> Tuple[List[Tuple[str, int]], int]:
    """``(key, line count)`` of every non-exempt function that never ran,
    and how many functions ``src/repro`` defines."""
    listed: List[Tuple[str, int]] = []
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        for definition in definitions(path.read_text(encoding="utf-8")):
            total += 1
            if not definition.exempt and (str(path), definition.first) not in ran:
                listed.append((f"{relative}::{definition.name}", definition.lines))
    return listed, total


def read_keys(path: Path) -> Set[str]:
    """The keys of a committed list: every line but blanks and comments."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return {line.strip() for line in lines if line.strip() and not line.startswith("#")}


def report(listed: List[Tuple[str, int]], total: int) -> None:
    """Print one key a line with its line count, then the totals."""
    for key, count in listed:
        print(f"{key} ({count})")
    lines = sum(count for __, count in listed)
    print(f"total: {len(listed)} of {total} functions uncalled, {lines} lines")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", help="run only the entry points whose label contains this text"
    )
    parser.add_argument(
        "--check", type=Path, metavar="FILE",
        help="fail on a listed name that FILE lacks (tests/reach/uncalled.txt)",
    )
    args = parser.parse_args(argv)
    if args.check and args.only:
        parser.error("--check needs every entry point; drop --only")
    crashed = []
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        work_dir = Path(work)
        out = work_dir / "out"
        out.mkdir()
        (work_dir / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(package=str(PACKAGE), out=str(out)),
            encoding="utf-8",
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((work, str(SRC))),
            PYTHONDONTWRITEBYTECODE="1",
        )
        for label, command in entry_points(work_dir):
            if args.only and args.only not in label:
                continue
            started = time.perf_counter()
            done = subprocess.run(
                command, cwd=ROOT, env=env, timeout=TIMEOUT_S,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            seconds = time.perf_counter() - started
            print(f"[{label}: exit {done.returncode}, {seconds:.1f} s]",
                  file=sys.stderr)
            if "Traceback (most recent call last)" in done.stderr:
                crashed.append(label)
        seen = called(out)
    listed, total = uncalled(seen)
    report(listed, total)
    failed = bool(crashed)
    if args.check:
        committed = read_keys(args.check)
        names = {key for key, __ in listed}
        for key in sorted(names - committed):
            print(f"new: {key}")
        for key in sorted(committed - names):
            print(f"reached: {key}")
        failed = failed or bool(names - committed)
    for label in crashed:
        print(f"crashed: {label}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
