"""Sharded subtree dissemination: determinism at any worker count."""

import hashlib
import json

import numpy as np
import pytest

from repro.config import PmcastConfig, SimConfig
from repro.errors import SimulationError
from repro.obs import (
    MetricsRegistry,
    Observer,
    TraceLog,
    TraceSampler,
    validate_trace,
)
from repro.obs.cli import summarize_trace
from repro.par import (
    TrialExecutor,
    build_regular_spec,
    run_sharded_dissemination,
)
from repro.sim.vector import TreeState
from tests.traces import write_jsonl

CONFIG = PmcastConfig(fanout=3, redundancy=3, min_rounds_per_depth=2)


def _spec(arity=5, depth=3, eps=0.05, tau=0.02, seed=7):
    return build_regular_spec(
        arity,
        depth,
        0.25,
        config=CONFIG,
        sim_config=SimConfig(
            seed=seed,
            loss_probability=eps,
            crash_fraction=tau,
            max_rounds=48,
        ),
        event_id=1,
    )


class TestDeterminism:
    def test_repeated_runs_identical(self):
        first = run_sharded_dissemination(_spec())
        second = run_sharded_dissemination(_spec())
        assert first == second

    def test_serial_vs_pool_identical(self):
        serial = run_sharded_dissemination(_spec())
        with TrialExecutor(jobs=2) as pool:
            parallel = run_sharded_dissemination(_spec(), executor=pool)
        assert parallel == serial

    def test_seed_changes_outcome(self):
        first = run_sharded_dissemination(_spec(seed=7))
        second = run_sharded_dissemination(_spec(seed=8))
        assert first != second


class TestReportShape:
    def test_lossless_run_delivers_everyone(self):
        report = run_sharded_dissemination(_spec(eps=0.0, tau=0.0))
        assert report.group_size == 125
        assert report.delivered_interested == report.interested
        assert report.messages_lost == 0
        assert report.crashed == 0
        assert report.rounds < 48
        assert len(report.infection_curve) == report.rounds
        assert sum(report.messages_by_distance) == report.messages_sent

    def test_faulted_run_accounts_consistently(self):
        report = run_sharded_dissemination(_spec(eps=0.2, tau=0.1))
        assert report.delivered_interested <= report.interested
        assert report.messages_lost <= report.messages_sent
        assert 0 < report.crashed < report.group_size
        # The curve is non-decreasing: receptions are never forgotten.
        curve = report.infection_curve
        assert all(a <= b for a, b in zip(curve, curve[1:]))

    def test_publisher_defaults_to_first_interested(self):
        spec = _spec()
        assert bool(spec.own_match[spec.publisher])
        assert not spec.own_match[: spec.publisher].any()

    def test_explicit_publisher(self):
        spec = build_regular_spec(
            4, 2, 0.5, config=PmcastConfig(fanout=2, redundancy=2),
            sim_config=SimConfig(seed=3), publisher=9,
        )
        assert spec.publisher == 9
        report = run_sharded_dissemination(spec)
        assert report.received_total >= 1

    def test_crash_immunity_default(self):
        # The publisher is never doomed, so the dissemination always
        # starts.
        spec = _spec(tau=0.5)
        report = run_sharded_dissemination(spec)
        assert report.received_total >= 1


def _traced_run(rate=None, jobs=1, spec=None, registry=None):
    """One observed sharded run: ``(report, trace)``; ``rate`` None is
    an observer with no sampler."""
    trace = TraceLog()
    observer = Observer(
        registry=registry,
        trace=trace,
        sampler=None if rate is None else TraceSampler(rate),
    )
    spec = spec or _spec()
    with TrialExecutor(jobs=jobs) as pool:
        report = run_sharded_dissemination(
            spec, executor=pool, observer=observer
        )
    return report, trace


def _serialised(trace, tmp_path, name):
    path = str(tmp_path / name)
    write_jsonl(trace, path)
    with open(path, "rb") as handle:
        return path, handle.read()


def _record_sha1(trace):
    digest = hashlib.sha1()
    for record in trace:
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


class TestShardTraces:
    """One trace per sharded run, through the Observer: jobs-independent,
    globally round-monotone, report-faithful.

    The sha1 pins are of the record lines ``python -m repro.obs merge``
    wrote from the per-shard files at the parent of the PR that deleted
    both (``git show 5dfe9f6:src/repro/obs/sink.py``).
    """

    @pytest.mark.parametrize(
        "trace_rate, sha1",
        [
            (1.0, "3b08802dc548ffb38f59ec110d36264099f0ab83"),
            (0.5, "350f566795ad05a69096d698aebff3fd3f2a7c50"),
        ],
        ids=["1.0", "0.5"],
    )
    def test_byte_identical_at_any_job_count(self, tmp_path, trace_rate, sha1):
        serial_report, serial = _traced_run(trace_rate, jobs=1)
        pool_report, pooled = _traced_run(trace_rate, jobs=4)
        assert pool_report == serial_report
        path, serial_bytes = _serialised(serial, tmp_path, "serial.jsonl")
        __, pooled_bytes = _serialised(pooled, tmp_path, "pool.jsonl")
        assert pooled_bytes == serial_bytes
        assert _record_sha1(serial) == sha1
        # Globally round-monotone, not just per shard.
        count, problems = validate_trace(path)
        assert problems == []
        assert count == len(serial) > 0

    def test_no_executor_is_the_same_trace(self):
        report, trace = _traced_run(1.0)
        inline = TraceLog()
        assert (
            run_sharded_dissemination(_spec(), observer=Observer(trace=inline))
            == report
        )
        assert list(inline) == list(trace)

    def test_unsampled_observer_yields_the_full_trace(self):
        """No sampler is every record — never a silent no-op."""
        report, full = _traced_run(None)
        __, at_one = _traced_run(1.0)
        assert list(full) == list(at_one)
        assert "sampling" not in full.meta
        entry = summarize_trace(full)["events"]["1"]
        assert entry["estimated"] is False
        assert entry["delivery_ratio"] == pytest.approx(report.delivery_ratio)
        assert entry["false_reception_ratio"] == pytest.approx(
            report.false_reception_ratio
        )

    def test_header_is_the_shared_dissemination_shape(self):
        from repro.obs.trace import dissemination_meta

        spec = _spec()
        report, trace = _traced_run(0.5, spec=spec)
        shared = dissemination_meta(
            "repro.par.subtree", trace.meta["publisher"], 1, 125, (), 7
        )
        # Counts stand in for the interested list at this scale.
        assert set(trace.meta) == (set(shared) - {"interested"}) | {
            "rounds", "shards", "sampling",
        }
        assert trace.meta["interested_count"] == report.interested
        assert trace.meta["uninterested_count"] == report.uninterested
        assert trace.meta["rounds"] == report.rounds
        assert trace.meta["sampling"]["rate"] == 0.5

    def test_merged_summary_matches_report(self):
        report, trace = _traced_run(1.0, jobs=2)
        entry = summarize_trace(trace)["events"]["1"]
        assert entry["delivery_ratio"] == pytest.approx(
            report.delivery_ratio
        )
        assert entry["false_reception_ratio"] == pytest.approx(
            report.false_reception_ratio
        )

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_one_crash_record_per_victim_per_round_reached(self, jobs):
        """A shard that goes idle (or never wakes) before the last round
        still reports its crashes: per-shard files held 25 of these 29."""
        spec = build_regular_spec(
            10,
            3,
            0.05,
            config=CONFIG,
            sim_config=SimConfig(
                seed=3,
                loss_probability=0.05,
                crash_fraction=0.1,
                max_rounds=48,
            ),
            event_id=1,
        )
        state = TreeState.create(spec)
        planned = sorted(
            (int(state.doom_round[member]) + 1, spec.address(member))
            for member in np.flatnonzero(state.doomed)
        )
        report, trace = _traced_run(1.0, jobs=jobs, spec=spec)
        expected = [entry for entry in planned if entry[0] <= report.rounds]
        crashes = [
            (record.round, str(record.process))
            for record in trace.filter(kind="crash")
        ]
        assert len(expected) == 29
        assert sorted(crashes) == expected
        assert crashes == sorted(crashes, key=lambda entry: entry[0])

    def test_metrics_fold_identically_across_jobs(self):
        def metrics(jobs):
            registry = MetricsRegistry()
            _traced_run(jobs=jobs, registry=registry)
            return registry.snapshot()["subtree"]

        inline = MetricsRegistry()
        run_sharded_dissemination(_spec(), observer=Observer(registry=inline))
        # What the per-wave worker counters summed to before the
        # coordinator counted for itself.
        assert inline.snapshot()["subtree"] == {
            "cross_shard_envelopes": 35,
            "envelopes_lost": 21,
            "envelopes_sent": 413,
            "receptions": 392,
            "waves": 43,
        }
        assert metrics(1) == metrics(4) == inline.snapshot()["subtree"]

    def test_golden_sampled_trace_at_paper_scale(self):
        """n = 22³ = 10648 with rate 0.25: the sampled subset is pinned.

        Any drift in the kernel's record emission, the sampling hash, or
        the shard round-stamping convention shows up here as a changed
        record count, record-sequence digest or first/last record.
        """
        spec = build_regular_spec(
            22,
            3,
            0.25,
            config=CONFIG,
            sim_config=SimConfig(
                seed=7,
                loss_probability=0.05,
                crash_fraction=0.02,
                max_rounds=48,
            ),
            event_id=1,
        )
        report, log = _traced_run(0.25, spec=spec)
        records = list(log)
        assert log.meta["sampling"]["rate"] == 0.25
        entry = summarize_trace(log)["events"]["1"]
        assert entry["estimated"] is True
        assert (
            abs(entry["delivery_ratio"] - report.delivery_ratio) <= 0.05
        )
        assert len(records) == 12023
        assert _record_sha1(log) == "fc7c6bc7a95993ca386f55746fe3177aa86a0e07"
        assert records[0].to_dict() == {
            "round": 1,
            "kind": "deliver",
            "process": "3.0.1",
            "peer": None,
            "event_id": 1,
            "depth": 0,
        }
        assert records[-1].to_dict() == {
            "round": 17,
            "kind": "crash",
            "process": "20.10.10",
            "peer": None,
            "event_id": 0,
            "depth": 0,
        }


class TestBuildValidation:
    def test_rejects_bad_interest_rate(self):
        with pytest.raises(SimulationError):
            build_regular_spec(4, 2, 1.5)

    def test_interests_derive_from_seed(self):
        a = build_regular_spec(
            4, 2, 0.5, sim_config=SimConfig(seed=1),
            config=PmcastConfig(fanout=2, redundancy=2),
        )
        b = build_regular_spec(
            4, 2, 0.5, sim_config=SimConfig(seed=1),
            config=PmcastConfig(fanout=2, redundancy=2),
        )
        assert np.array_equal(a.own_match, b.own_match)
