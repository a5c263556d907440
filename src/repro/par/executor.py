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
2. results are reassembled by task *index*, never by completion order;
3. aggregation happens in the caller, over the ordered result list —
   exactly the order the historical serial loops used.

Dispatch is *chunked*: contiguous runs of tasks, about four chunks per
worker, travel to a worker in one submission, amortising pickling
overhead.  Each completed trial may be appended to a JSONL
**checkpoint shard** (:mod:`repro.par.checkpoint`), from which an
interrupted sweep resumes without recomputing finished trials — and,
because results are replayed verbatim, with byte-identical final
aggregates.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import closing
from itertools import islice
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ParallelError
from repro.par.checkpoint import ShardFile, run_fingerprint, task_key

__all__ = ["TrialExecutor", "resolve_jobs"]

#: One dispatched chunk: (index, task) pairs, contiguous in task order.
_Chunk = List[Tuple[int, Any]]


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Normalise a ``--jobs`` value: an int, a digit string, or "auto".

    ``"auto"`` (or ``None``) resolves to the machine's usable CPU
    count — the scheduler-visible affinity set where the platform
    exposes one, so a container limited to 2 of 64 cores gets 2
    workers, not 64.

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


def _run_chunk(fn: Callable[[Any], Any], chunk: _Chunk) -> _Chunk:
    """Worker-side chunk body: (index, result) for each trial."""
    return [(index, fn(task)) for index, task in chunk]


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
    ``trials_total`` (tasks handed to :meth:`run`), ``trials_resumed``
    (replayed from a checkpoint) and ``trials_run`` (computed) — the
    ``[dispatch: …]`` line of ``python -m repro.bench``.
    """

    def __init__(self, jobs: Union[int, str, None] = 1):
        self.jobs = resolve_jobs(jobs)
        self.trials_total = 0
        self.trials_resumed = 0
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

    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        checkpoint: Optional[str] = None,
    ) -> List[Any]:
        """Run ``fn`` over every task; results in task order.

        Args:
            fn: the trial function — a **module-level** callable (the
                process pool pickles it by reference) taking one task
                and returning its result.  When checkpointing, results
                must round-trip through JSON.
            tasks: picklable task tuples; each trial's randomness must
                derive from seeds carried *in the task*.
            checkpoint: optional path of a JSONL shard file.  Completed
                trials found there are replayed instead of recomputed;
                newly completed trials are appended as they finish.

        Returns:
            one result per task, indexed like ``tasks`` — regardless of
            ``jobs``, chunking, or worker scheduling.

        Raises:
            ParallelError: on a corrupt or mismatched checkpoint.
        """
        tasks = list(tasks)
        shard: Optional[ShardFile] = None
        done: dict = {}
        if checkpoint is not None:
            keys = [task_key(task) for task in tasks]
            name = f"{getattr(fn, '__module__', '?')}.{fn.__qualname__}"
            shard = ShardFile(checkpoint, run_fingerprint(name, keys), keys)
            done = shard.load()
        results: List[Any] = [None] * len(tasks)
        for index, result in done.items():
            results[index] = result
        pending: _Chunk = [
            (index, task)
            for index, task in enumerate(tasks)
            if index not in done
        ]
        self.trials_total += len(tasks)
        self.trials_resumed += len(done)
        if not pending:
            return results
        try:
            if shard is not None:
                shard.open_for_append()
            with closing(self._completions(fn, pending)) as completions:
                for index, result in completions:
                    results[index] = result
                    self.trials_run += 1
                    if shard is not None:
                        shard.append(index, result)
        finally:
            if shard is not None:
                shard.close()
        return results

    def run_grid(
        self,
        fn: Callable[[Any], Any],
        points: Sequence[Any],
        trials: int,
        make_task: Callable[[Any, int], Any],
        checkpoint: Optional[str] = None,
    ) -> List[Tuple[Any, List[Any]]]:
        """Run ``trials`` trials of ``fn`` at every grid point.

        The task list is ``make_task(point, trial)`` in point-major,
        trial-minor order — one :meth:`run` call, so chunking,
        checkpointing and the any-``jobs`` guarantee are exactly
        :meth:`run`'s.

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
        outcomes = iter(self.run(fn, tasks, checkpoint=checkpoint))
        return [(point, list(islice(outcomes, trials))) for point in points]

    def _completions(
        self, fn: Callable[[Any], Any], pending: _Chunk
    ) -> Iterator[Tuple[int, Any]]:
        """``(index, result)`` for every pending trial, as each finishes.

        Serial: in task order.  Pool: chunk by chunk in completion
        order (nondeterministic) — which is why checkpoint appends are
        keyed by index and never by position.
        """
        if self.jobs == 1:
            for index, task in pending:
                yield index, fn(task)
            return
        size = max(1, -(-len(pending) // (self.jobs * 4)))
        pool = self._ensure_pool()
        futures = {
            pool.submit(_run_chunk, fn, pending[start:start + size])
            for start in range(0, len(pending), size)
        }
        try:
            while futures:
                completed, futures = wait(
                    futures, return_when=FIRST_COMPLETED
                )
                for future in completed:
                    yield from future.result()
        finally:
            for future in futures:
                future.cancel()
