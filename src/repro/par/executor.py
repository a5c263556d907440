"""The deterministic parallel trial executor.

:class:`TrialExecutor` runs a list of independent, seeded *trials*
(pure functions of a picklable task tuple) either in-process
(``jobs=1``, the default and the fallback) or across a
:class:`concurrent.futures.ProcessPoolExecutor` — with one hard
guarantee: **the returned result list is identical for every
``jobs`` value.**  Three properties deliver that:

1. trials are pure functions of their task (all randomness derives
   from seeds inside the task — ``repro.sim.rng.derive_seed(root,
   *grid_point, trial)``);
2. results come back in task order, never in completion order;
3. aggregation happens in the caller, over the ordered result list —
   exactly the order the historical serial loops used.

Dispatch is *chunked*: contiguous runs of tasks, about four chunks per
worker, travel to a worker in one submission, amortising pickling
overhead; ``ProcessPoolExecutor.map`` hands the chunks back in
submission order, and they are flattened in that order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import chain, islice
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import ParallelError

__all__ = ["TrialExecutor", "resolve_jobs"]


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Normalise a ``--jobs`` value: an int, a digit string, or "auto".

    ``None`` resolves to 1.  ``"auto"`` resolves to the machine's
    usable CPU count — the scheduler-visible affinity set where the
    platform exposes one, so a container limited to 2 of 64 cores gets
    2 workers, not 64.

    Raises:
        ParallelError: on a non-positive or unparseable value.
    """
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            try:
                return max(1, len(os.sched_getaffinity(0)))
            except (AttributeError, OSError):
                return max(1, os.cpu_count() or 1)
        try:
            jobs = int(text)
        except ValueError:
            raise ParallelError(
                f"--jobs must be a positive integer or 'auto', got {jobs!r}"
            ) from None
    if jobs < 1:
        raise ParallelError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _run_chunk(fn: Callable[[Any], Any], chunk: Sequence[Any]) -> List[Any]:
    """Worker-side chunk body: one result per task, in chunk order."""
    return [fn(task) for task in chunk]


class TrialExecutor:
    """Run independent seeded trials serially or on a process pool.

    Args:
        jobs: worker count — an int, a digit string, or ``"auto"``
            (usable CPUs).  ``1`` runs everything in-process with no
            pool, no pickling and no subprocesses: the fallback path
            and the reference semantics the parallel path must match.

    The executor is reusable across :meth:`run` calls (one pool serves
    a whole ``--all`` figure regeneration) and is a context manager;
    :meth:`close` shuts the pool down.  Across those calls it counts
    ``trials_run`` — the ``[dispatch: …]`` line of
    ``python -m repro.bench``.
    """

    def __init__(self, jobs: Union[int, str, None] = 1):
        self.jobs = resolve_jobs(jobs)
        self.trials_run = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the process pool, if one was started (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    # -- execution -------------------------------------------------------

    def run(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        """Run ``fn`` over every task; results in task order.

        Args:
            fn: the trial function — a **module-level** callable (the
                process pool pickles it by reference) taking one task
                and returning its result.
            tasks: picklable task tuples; each trial's randomness must
                derive from seeds carried *in the task*.

        Returns:
            one result per task, indexed like ``tasks`` — regardless of
            ``jobs``, chunking, or worker scheduling.
        """
        tasks = list(tasks)
        if self.jobs == 1 or not tasks:
            results = [fn(task) for task in tasks]
        else:
            size = -(-len(tasks) // (self.jobs * 4))
            chunks = self._ensure_pool().map(
                partial(_run_chunk, fn),
                [tasks[start:start + size]
                 for start in range(0, len(tasks), size)],
            )
            results = list(chain.from_iterable(chunks))
        self.trials_run += len(results)
        return results

    def run_grid(
        self,
        fn: Callable[[Any], Any],
        points: Sequence[Any],
        trials: int,
        make_task: Callable[[Any, int], Any],
    ) -> List[Tuple[Any, List[Any]]]:
        """Run ``trials`` trials of ``fn`` at every grid point.

        The task list is ``make_task(point, trial)`` in point-major,
        trial-minor order — one :meth:`run` call, so chunking and
        the any-``jobs`` guarantee are exactly :meth:`run`'s.

        Returns:
            ``[(point, outcomes)]`` in ``points`` order, ``outcomes``
            being that point's ``trials`` results in trial order.
        """
        points = list(points)
        tasks = [
            make_task(point, trial)
            for point in points
            for trial in range(trials)
        ]
        outcomes = iter(self.run(fn, tasks))
        return [(point, list(islice(outcomes, trials))) for point in points]
