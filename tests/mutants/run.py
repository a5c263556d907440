"""Run the mutant catalogue: every mutant must be killed by its killers.

Usage, from the repository root::

    python tests/mutants/run.py            # every entry
    python tests/mutants/run.py --only bound   # entries whose name has "bound"

``tests/`` and ``pyproject.toml`` are copied once into a temporary
directory.  For each entry of :data:`catalogue.CATALOGUE`, ``src/`` is
copied there afresh, the entry's old text (which must occur exactly
once in its file) is replaced by its new text, and only the entry's
killer node ids run against the copy: ``pytest -x`` with ``PYTHONPATH``
pointing at the mutated ``src/``, a fixed Hypothesis seed and no
shrinking (the ``mutants`` profile of ``tests/conftest.py``).  A mutant
is *killed* when pytest reports a failing test (exit status 1) or runs
past the timeout; any other outcome is a *survivor*.

Exit status: 0 when every selected mutant is killed; 1 when one
survived or an entry is *stale* (its old text no longer matches, so a
refactor must carry the mutant forward); 2 on a usage error.
Needs the standard library, pytest and the test dependencies only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from catalogue import CATALOGUE, Mutant  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT_S = 240
_IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def apply(mutant: Mutant, src: Path) -> bool:
    """Write ``mutant`` into the copy of ``src/``; False if stale."""
    target = src / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def run(mutant: Mutant, work: Path) -> str:
    """``killed``, ``survived``, ``stale`` or ``timeout`` for one entry."""
    src = work / "src"
    if src.exists():
        shutil.rmtree(src)
    shutil.copytree(ROOT / "src", src, ignore=_IGNORE)
    if not apply(mutant, src):
        return "stale"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", "--hypothesis-profile=mutants", *mutant.killers,
    ]
    try:
        done = subprocess.run(
            command, cwd=work, env=env, timeout=TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "killed" if done.returncode == 1 else "survived"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", help="run only the entries whose name contains this text"
    )
    args = parser.parse_args(argv)
    selected = [m for m in CATALOGUE if not args.only or args.only in m.name]
    if not selected:
        parser.error(f"no catalogue entry matches {args.only!r}")
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=_IGNORE)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        for mutant in selected:
            started = time.perf_counter()
            verdict = run(mutant, work)
            took = time.perf_counter() - started
            failed += verdict in ("survived", "stale")
            print(f"{verdict:>8}  {took:6.1f}s  {mutant.name}", flush=True)
    print(f"{len(selected) - failed}/{len(selected)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
