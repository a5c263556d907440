"""Checkpoint shards: resume is byte-identical, corruption is loud.

The contract under test (docs/VALIDATION.md): a sweep interrupted
after k of m trials and resumed from its shard file produces the
*byte-identical* final table — completed trials are replayed verbatim,
never recomputed — while any tampering with the shard raises a clear
:class:`~repro.errors.ParallelError` instead of silently recomputing
(or worse, silently trusting) damaged results.
"""

import json

import pytest

from repro.errors import ParallelError
from repro.par import (
    CHECKPOINT_SCHEMA,
    ShardFile,
    TrialExecutor,
    task_key,
)
from repro.par.checkpoint import run_fingerprint
from repro.sim.rng import derive_rng

TASKS = [("p", rate, trial) for rate in (0.1, 0.5) for trial in range(4)]

#: Tasks _flaky() must fail on — mutated by the interruption tests.
_FAIL = set()


def trial_fn(task):
    """A deterministic trial: a few draws from the task's own stream."""
    _, rate, trial = task
    rng = derive_rng(11, "chk", rate, trial)
    return {"rate": rate, "trial": trial, "value": rng.random()}


def flaky_fn(task):
    """``trial_fn`` with injectable failures (simulated kill)."""
    if task in _FAIL:
        raise RuntimeError(f"injected failure at {task}")
    return trial_fn(task)


class TestResume:
    def test_second_run_replays_without_recompute(self, tmp_path):
        shard = str(tmp_path / "sweep.jsonl")
        with TrialExecutor(jobs=1) as executor:
            first = executor.run(trial_fn, TASKS, checkpoint=shard)
        with TrialExecutor(jobs=1) as executor:
            second = executor.run(trial_fn, TASKS, checkpoint=shard)
        assert second == first
        assert executor.trials_resumed == len(TASKS)
        assert executor.trials_run == 0

    def test_kill_after_k_shards_then_resume_is_byte_identical(
        self, tmp_path
    ):
        shard = str(tmp_path / "sweep.jsonl")
        reference = [trial_fn(task) for task in TASKS]
        # Interrupt after 5 of 8 trials (serial order -> exactly 5
        # completed entries land in the shard before the "kill").
        _FAIL.clear()
        _FAIL.add(TASKS[5])
        try:
            with TrialExecutor(jobs=1) as executor:
                with pytest.raises(RuntimeError, match="injected"):
                    executor.run(flaky_fn, TASKS, checkpoint=shard)
        finally:
            _FAIL.clear()
        completed = ShardFile(
            shard,
            run_fingerprint(
                f"{flaky_fn.__module__}.{flaky_fn.__qualname__}",
                [task_key(task) for task in TASKS],
            ),
            [task_key(task) for task in TASKS],
        ).load()
        assert sorted(completed) == [0, 1, 2, 3, 4]
        # Resume: only the 3 missing trials run; the table matches an
        # uninterrupted run byte for byte.
        with TrialExecutor(jobs=1) as executor:
            resumed = executor.run(flaky_fn, TASKS, checkpoint=shard)
        assert executor.trials_resumed == 5
        assert executor.trials_run == 3
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_resume_under_pool_matches_serial(self, tmp_path):
        serial_shard = str(tmp_path / "serial.jsonl")
        pool_shard = str(tmp_path / "pool.jsonl")
        with TrialExecutor(jobs=1) as executor:
            serial = executor.run(trial_fn, TASKS, checkpoint=serial_shard)
        with TrialExecutor(jobs=3) as executor:
            parallel = executor.run(trial_fn, TASKS, checkpoint=pool_shard)
        assert parallel == serial
        # Both shards replay to the same table.
        with TrialExecutor(jobs=1) as executor:
            assert executor.run(
                trial_fn, TASKS, checkpoint=pool_shard
            ) == serial

    def test_truncated_tail_is_dropped_and_recomputed(self, tmp_path):
        shard = str(tmp_path / "sweep.jsonl")
        with TrialExecutor(jobs=1) as executor:
            reference = executor.run(trial_fn, TASKS, checkpoint=shard)
        # Chop the trailing newline plus a few bytes: the classic shape
        # of a write cut short by a kill.
        with open(shard, "rb") as handle:
            raw = handle.read()
        with open(shard, "wb") as handle:
            handle.write(raw[:-5])
        with TrialExecutor(jobs=1) as executor:
            resumed = executor.run(trial_fn, TASKS, checkpoint=shard)
        assert resumed == reference
        assert executor.trials_run == 1  # only the damaged entry


class TestCorruption:
    def _complete_shard(self, tmp_path):
        shard = str(tmp_path / "sweep.jsonl")
        with TrialExecutor(jobs=1) as executor:
            executor.run(trial_fn, TASKS, checkpoint=shard)
        return shard

    def _assert_load_raises(self, shard, match):
        with TrialExecutor(jobs=1) as executor:
            with pytest.raises(ParallelError, match=match):
                executor.run(trial_fn, TASKS, checkpoint=shard)

    def test_garbage_line_raises(self, tmp_path):
        shard = self._complete_shard(tmp_path)
        with open(shard, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines[3] = "{not json"
        with open(shard, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        self._assert_load_raises(shard, "not valid JSON")

    def test_wrong_fingerprint_raises(self, tmp_path):
        shard = self._complete_shard(tmp_path)
        # A different trial function => a different run: replaying this
        # shard would silently mix two experiments.
        with TrialExecutor(jobs=1) as executor:
            with pytest.raises(ParallelError, match="different sweep"):
                executor.run(flaky_fn, TASKS, checkpoint=shard)

    def test_wrong_task_list_raises(self, tmp_path):
        shard = self._complete_shard(tmp_path)
        altered = TASKS[:-1] + [("p", 0.9, 99)]
        with TrialExecutor(jobs=1) as executor:
            with pytest.raises(ParallelError, match="different sweep"):
                executor.run(trial_fn, altered, checkpoint=shard)

    def test_wrong_schema_raises(self, tmp_path):
        shard = self._complete_shard(tmp_path)
        with open(shard, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == CHECKPOINT_SCHEMA
        header["schema"] = "repro.par/v999"
        lines[0] = json.dumps(header)
        with open(shard, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        self._assert_load_raises(shard, "schema")

    def test_out_of_range_index_raises(self, tmp_path):
        shard = self._complete_shard(tmp_path)
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"index": 10 ** 6, "key": "00", "result": 1})
                + "\n"
            )
        self._assert_load_raises(shard, "index")

    def test_unserialisable_result_raises(self, tmp_path):
        shard = str(tmp_path / "sweep.jsonl")
        with TrialExecutor(jobs=1) as executor:
            with pytest.raises(ParallelError, match="JSON"):
                executor.run(
                    _unserialisable_fn, TASKS[:1], checkpoint=shard
                )


def _unserialisable_fn(task):
    return {"bad": object()}


class TestTaskKey:
    def test_stable_and_distinct(self):
        assert task_key(("p", 0.1, 0)) == task_key(("p", 0.1, 0))
        assert task_key(("p", 0.1, 0)) != task_key(("p", 0.1, 1))
        assert len(task_key(("p", 0.1, 0))) == 16
