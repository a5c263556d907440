"""TrialExecutor mechanics: ordering, chunking, dispatch counts, failures."""

import pytest

from repro.errors import ParallelError
from repro.par import TrialExecutor, resolve_jobs
from repro.sim.rng import derive_rng


def echo_fn(task):
    return task


def draw_fn(task):
    rate, trial = task
    return derive_rng(23, "exec", rate, trial).random()


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


class TestOrdering:
    def test_results_in_task_order_serial(self):
        with TrialExecutor(jobs=1) as executor:
            assert executor.run(echo_fn, TASKS) == TASKS

    def test_results_in_task_order_pool(self):
        # Ten tasks over three workers is one task a chunk: ten chunks
        # racing, handed back in submission order.
        with TrialExecutor(jobs=3) as executor:
            assert executor.run(echo_fn, TASKS) == TASKS

    def test_uneven_chunks_keep_every_task_in_order(self):
        # 23 tasks over two workers travel as seven chunks of three and
        # a last chunk of two: every chunk comes back, in task order.
        tasks = list(range(23))
        with TrialExecutor(jobs=2) as executor:
            assert executor.run(echo_fn, tasks) == tasks
        assert executor.trials_run == 23

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

    def old_slicing(self, executor):
        """The hand-rolled loop ``run_grid`` replaced, verbatim."""
        trials = self.TRIALS
        tasks = [
            self.make_task(point, trial)
            for point in self.POINTS
            for trial in range(trials)
        ]
        outcomes = executor.run(draw_fn, tasks)
        return [
            (point, outcomes[offset * trials:(offset + 1) * trials])
            for offset, point in enumerate(self.POINTS)
        ]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_matches_the_old_slicing(self, jobs):
        with TrialExecutor(jobs=jobs) as executor:
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

    def test_empty_grid(self):
        with TrialExecutor(jobs=1) as executor:
            assert executor.run_grid(echo_fn, [], 3, self.make_task) == []


class TestMetrics:
    def test_dispatch_counters_serial(self):
        with TrialExecutor(jobs=1) as executor:
            executor.run(echo_fn, [1, 2, 3, 4, 5])
            executor.run(echo_fn, [6, 7])
        assert executor.trials_run == 7


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
