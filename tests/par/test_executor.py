"""TrialExecutor mechanics: ordering, chunking, metrics, failure modes."""

import pytest

from repro.errors import ParallelError
from repro.par import TrialExecutor, resolve_jobs
from repro.par.merge import merge_delta, merge_deltas
from repro.par.seeds import derive_rng
from repro.par.worker import drain_metrics, worker_registry
from repro.obs.registry import MetricsRegistry


def echo_fn(task):
    return task


def draw_fn(task):
    rate, trial = task
    return derive_rng(23, ("exec", rate), trial).random()


def instrumented_fn(task):
    registry = worker_registry()
    registry.counter("t", "calls").inc()
    registry.gauge("t", "last").set(task)
    registry.histogram("t", "values", bounds=(1, 2, 4)).observe(task)
    return task * task


def failing_fn(task):
    if task == 3:
        raise ValueError("boom")
    return task


TASKS = [(rate, trial) for rate in (0.1, 0.9) for trial in range(5)]


class TestResolveJobs:
    def test_accepted_forms(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(8) == 8
        assert resolve_jobs("3") == 3
        assert resolve_jobs(" 2 ") == 2
        assert resolve_jobs(None) == 1
        assert resolve_jobs("auto") >= 1

    @pytest.mark.parametrize("bad", [0, -1, "0", "nope", "1.5", ""])
    def test_rejected_forms(self, bad):
        with pytest.raises(ParallelError):
            resolve_jobs(bad)

    def test_bad_chunk_size(self):
        with pytest.raises(ParallelError):
            TrialExecutor(jobs=1, chunk_size=0)


class TestOrdering:
    def test_results_in_task_order_serial(self):
        with TrialExecutor(jobs=1) as executor:
            assert executor.run(echo_fn, TASKS) == TASKS

    def test_results_in_task_order_pool(self):
        # chunk_size=1 maximises scheduling nondeterminism: ten chunks
        # racing over three workers, reassembled by index.
        with TrialExecutor(jobs=3, chunk_size=1) as executor:
            assert executor.run(echo_fn, TASKS) == TASKS

    def test_pool_matches_serial_for_seeded_trials(self):
        with TrialExecutor(jobs=1) as executor:
            serial = executor.run(draw_fn, TASKS)
        with TrialExecutor(jobs=4) as executor:
            parallel = executor.run(draw_fn, TASKS)
        assert parallel == serial

    def test_executor_is_reusable_across_runs(self):
        with TrialExecutor(jobs=2) as executor:
            first = executor.run(draw_fn, TASKS)
            second = executor.run(draw_fn, list(reversed(TASKS)))
        assert second == list(reversed(first))

    def test_empty_task_list(self):
        with TrialExecutor(jobs=1) as executor:
            assert executor.run(echo_fn, []) == []


class TestRunGrid:
    POINTS = [(0.1,), (0.5,), (0.9,)]
    TRIALS = 4

    @staticmethod
    def make_task(point, trial):
        return (*point, trial)

    def old_slicing(self, executor, checkpoint=None):
        """The hand-rolled loop ``run_grid`` replaced, verbatim."""
        trials = self.TRIALS
        tasks = [
            self.make_task(point, trial)
            for point in self.POINTS
            for trial in range(trials)
        ]
        outcomes = executor.run(draw_fn, tasks, checkpoint=checkpoint)
        return [
            (point, outcomes[offset * trials:(offset + 1) * trials])
            for offset, point in enumerate(self.POINTS)
        ]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_matches_the_old_slicing(self, jobs):
        with TrialExecutor(jobs=jobs, chunk_size=1) as executor:
            grid = executor.run_grid(
                draw_fn, self.POINTS, self.TRIALS, self.make_task
            )
            assert grid == self.old_slicing(executor)

    def test_tasks_are_point_major_trial_minor(self):
        with TrialExecutor(jobs=1) as executor:
            grid = executor.run_grid(
                echo_fn, self.POINTS, self.TRIALS, self.make_task
            )
        assert [point for point, _ in grid] == self.POINTS
        assert [task for _, tasks in grid for task in tasks] == [
            (*point, trial)
            for point in self.POINTS
            for trial in range(self.TRIALS)
        ]

    def test_checkpoint_is_the_one_run_would_write(self, tmp_path):
        # Same trial function, same task list -> same shard
        # fingerprint: a sweep checkpointed through the old loop
        # resumes through run_grid without recomputing anything.
        shard = str(tmp_path / "grid.jsonl")
        with TrialExecutor(jobs=1) as executor:
            first = self.old_slicing(executor, checkpoint=shard)
        with TrialExecutor(jobs=1) as executor:
            resumed = executor.run_grid(
                draw_fn,
                self.POINTS,
                self.TRIALS,
                self.make_task,
                checkpoint=shard,
            )
            snapshot = executor.metrics.snapshot()["par"]
        assert resumed == first
        assert snapshot["trials_run"] == 0
        assert snapshot["trials_resumed"] == len(self.POINTS) * self.TRIALS

    def test_empty_grid(self):
        with TrialExecutor(jobs=1) as executor:
            assert executor.run_grid(echo_fn, [], 3, self.make_task) == []


class TestMetrics:
    def _run(self, jobs):
        with TrialExecutor(jobs=jobs) as executor:
            executor.run(instrumented_fn, [1, 2, 3, 4, 5])
            return executor.metrics.snapshot()

    def test_dispatch_counters_serial(self):
        snapshot = self._run(1)["par"]
        assert snapshot["trials_total"] == 5
        assert snapshot["trials_run"] == 5
        assert snapshot["trials_resumed"] == 0

    def test_worker_metrics_merge_is_jobs_independent(self):
        serial = self._run(1)
        parallel = self._run(3)
        # The dispatch bookkeeping legitimately differs (chunk count,
        # jobs gauge); everything the trials recorded must not.
        for snapshot in (serial, parallel):
            snapshot["par"].pop("chunks_dispatched", None)
            snapshot["par"].pop("jobs", None)
        assert serial == parallel
        assert serial["t"]["calls"] == 5
        assert serial["t"]["values"]["count"] == 5

    def test_gauge_merges_by_max(self):
        assert self._run(3)["t"]["last"] == 5

    def test_merge_deltas_order_independent(self):
        deltas = []
        for value in (1, 2, 3):
            registry = worker_registry()
            registry.counter("m", "n").inc(value)
            registry.histogram("m", "h", bounds=(1, 2)).observe(value)
            deltas.append(drain_metrics())
        forward = MetricsRegistry()
        merge_deltas(forward, deltas)
        backward = MetricsRegistry()
        merge_deltas(backward, list(reversed(deltas)))
        assert forward.snapshot() == backward.snapshot()

    def test_merge_delta_rejects_mismatched_bounds(self):
        from repro.errors import ObservabilityError

        registry = worker_registry()
        registry.histogram("m", "h", bounds=(1, 2)).observe(1)
        delta = drain_metrics()
        target = MetricsRegistry()
        target.histogram("m", "h", bounds=(5, 6))
        with pytest.raises(ObservabilityError, match="bounds"):
            merge_delta(target, delta)


class TestFailures:
    def test_trial_exception_propagates_serial(self):
        with TrialExecutor(jobs=1) as executor:
            with pytest.raises(ValueError, match="boom"):
                executor.run(failing_fn, [1, 2, 3, 4])

    def test_trial_exception_propagates_pool(self):
        with TrialExecutor(jobs=2) as executor:
            with pytest.raises(ValueError, match="boom"):
                executor.run(failing_fn, [1, 2, 3, 4])

    def test_close_is_idempotent(self):
        executor = TrialExecutor(jobs=2)
        executor.run(echo_fn, [1])
        executor.close()
        executor.close()
