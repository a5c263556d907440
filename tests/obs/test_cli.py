"""Tests for ``python -m repro.obs`` — summarize, diff, validate, render.

The acceptance property pinned here: for a seeded engine run,
``summarize`` applied to the emitted trace reproduces the
:class:`~repro.sim.metrics.DisseminationReport`'s delivery ratio,
false-reception ratio and round count — including under loss and
crashes.  The trace is a complete, self-describing account of the run.
"""

import json

import pytest

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.interests.events import Event
from repro.obs import Observer, TraceLog
from repro.obs.cli import diff_traces, main, summarize_trace
from repro.sim import CrashSchedule, PmcastGroup, run_dissemination
from repro.sim.rng import derive_rng
from repro.sim.workload import bernoulli_interests


def traced_run(seed=11, loss=0.0, crash_victims=0, event_id=42):
    space = AddressSpace.regular(4, 3)
    addresses = space.enumerate_regular(4)
    members = bernoulli_interests(
        addresses, 0.3, derive_rng(seed, "golden-int")
    )
    group = PmcastGroup.build(
        members, PmcastConfig(fanout=2, redundancy=2)
    )
    # Explicit crashes in rounds 1..n so they land inside the run (a
    # sampled schedule may place every victim after the group is idle).
    schedule = (
        CrashSchedule(
            {addresses[-(i + 1)]: i + 1 for i in range(crash_victims)}
        )
        if crash_victims
        else None
    )
    trace = TraceLog()
    report = run_dissemination(
        group,
        addresses[0],
        Event({"cli": 1}, event_id=event_id),
        SimConfig(seed=seed, loss_probability=loss),
        crash_schedule=schedule,
        trace=trace,
    )
    return report, trace


class TestSummarizeReproducesReport:
    @pytest.mark.parametrize(
        "loss,crash_victims",
        [(0.0, 0), (0.05, 0), (0.1, 4)],
        ids=["clean", "lossy", "lossy-crashy"],
    )
    def test_ratios_and_rounds(self, loss, crash_victims):
        report, trace = traced_run(loss=loss, crash_victims=crash_victims)
        summary = summarize_trace(trace)
        entry = summary["events"]["42"]
        assert entry["delivery_ratio"] == pytest.approx(
            report.delivery_ratio
        )
        assert entry["false_reception_ratio"] == pytest.approx(
            report.false_reception_ratio
        )
        assert summary["rounds"] == report.rounds
        assert entry["delivered_interested"] == report.delivered_interested
        assert entry["received_uninterested"] == report.received_uninterested

    def test_summary_survives_jsonl_round_trip(self, tmp_path):
        report, trace = traced_run(loss=0.05)
        path = str(tmp_path / "trace.jsonl")
        trace.to_jsonl(path)
        summary = summarize_trace(path)
        entry = summary["events"]["42"]
        assert entry["delivery_ratio"] == pytest.approx(
            report.delivery_ratio
        )
        assert entry["false_reception_ratio"] == pytest.approx(
            report.false_reception_ratio
        )
        assert summary["rounds"] == report.rounds

    def test_latency_histogram_counts_all_deliveries(self):
        report, trace = traced_run()
        summary = summarize_trace(trace)
        latency = summary["delivery_latency"]
        assert latency["count"] == report.delivered_interested
        assert sum(latency["buckets"]) == latency["count"]

    def test_membership_episodes_listed(self):
        __, trace = traced_run(crash_victims=3)
        summary = summarize_trace(trace)
        crashes = [
            entry for entry in summary["membership"]
            if entry["kind"] == "crash"
        ]
        assert len(crashes) == 3
        assert summary["kind_counts"]["crash"] == 3


class TestDiffTraces:
    def test_identical(self):
        __, left = traced_run()
        __, right = traced_run()
        diff = diff_traces(left, right)
        assert diff["identical"] is True
        assert diff["first_divergence"] is None
        assert diff["kind_count_deltas"] == {}

    def test_different_seeds_diverge(self):
        __, left = traced_run(seed=11)
        __, right = traced_run(seed=12)
        diff = diff_traces(left, right)
        assert diff["identical"] is False
        assert diff["first_divergence"] is not None
        assert "round" in diff["first_divergence"]

    def test_prefix_divergence_localized(self):
        left = TraceLog()
        right = TraceLog()
        for log in (left, right):
            log.record(0, "publish", Address((0,)), event_id=1)
        left.record(1, "send", Address((0,)), peer=Address((1,)), event_id=1)
        right.record(1, "send", Address((0,)), peer=Address((2,)), event_id=1)
        diff = diff_traces(left, right)
        assert diff["first_divergence"]["index"] == 1
        assert diff["first_divergence"]["left"]["peer"] == "1"
        assert diff["first_divergence"]["right"]["peer"] == "2"

    def test_length_mismatch(self):
        left = TraceLog()
        right = TraceLog()
        left.record(0, "publish", Address((0,)), event_id=1)
        right.record(0, "publish", Address((0,)), event_id=1)
        right.record(1, "deliver", Address((0,)), event_id=1)
        diff = diff_traces(left, right)
        assert diff["identical"] is False
        assert diff["first_divergence"]["only_in"] == "right"


class TestCliMain:
    def write_trace(self, tmp_path, name="trace.jsonl", **kwargs):
        __, trace = traced_run(**kwargs)
        path = str(tmp_path / name)
        trace.to_jsonl(path)
        return path

    def test_summarize_text(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        assert main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert "delivery_ratio" in out
        assert "rounds" in out

    def test_summarize_json(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        assert main(["summarize", path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "42" in summary["events"]

    def test_diff_exit_codes(self, tmp_path, capsys):
        same_a = self.write_trace(tmp_path, "a.jsonl")
        same_b = self.write_trace(tmp_path, "b.jsonl")
        other = self.write_trace(tmp_path, "c.jsonl", seed=12)
        assert main(["diff", same_a, same_b]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["diff", same_a, other]) == 3
        assert "first divergence" in capsys.readouterr().out

    def test_diff_json(self, tmp_path, capsys):
        a = self.write_trace(tmp_path, "a.jsonl")
        b = self.write_trace(tmp_path, "b.jsonl", seed=12)
        assert main(["diff", a, b, "--json"]) == 3
        diff = json.loads(capsys.readouterr().out)
        assert diff["identical"] is False

    def test_validate_exit_codes(self, tmp_path, capsys):
        good = self.write_trace(tmp_path)
        assert main(["validate", good]) == 0
        assert "schema ok" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "other/v0", "meta": {}}\n')
        assert main(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().out

    def test_render(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        assert main(["render", path, "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "publish" in out
        assert "more records" in out

    def test_missing_file_is_error_exit(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err


def sharded_trace(sampler=None, sink=None):
    """A sharded run observed into one trace; returns (report, trace)."""
    from repro.par.subtree import (
        build_regular_spec,
        run_sharded_dissemination,
    )

    spec = build_regular_spec(
        4,
        3,
        0.35,
        config=PmcastConfig(fanout=3, redundancy=2),
        sim_config=SimConfig(
            seed=5, loss_probability=0.05, crash_fraction=0.05
        ),
        event_id=7,
    )
    trace = TraceLog()
    report = run_sharded_dissemination(
        spec, observer=Observer(trace=trace, sink=sink, sampler=sampler)
    )
    return report, trace


class TestShardedSummaries:
    """The sharded kernel's single trace: count-based header, gz
    transparency, sampled estimates."""

    def test_unsampled_shard_trace_reproduces_report(self, tmp_path):
        report, trace = sharded_trace()
        path = str(tmp_path / "sharded.jsonl")
        assert trace.to_jsonl(path) == 551
        assert main(["validate", path]) == 0
        entry = summarize_trace(path)["events"]["7"]
        # Exact with no sampler — count-based path, not the
        # interested-list path (the header carries counts only).
        assert "interested" not in trace.meta
        assert entry["estimated"] is False
        assert entry["delivery_ratio"] == pytest.approx(
            report.delivery_ratio
        )
        assert entry["false_reception_ratio"] == pytest.approx(
            report.false_reception_ratio
        )

    def test_sampled_trace_estimates_within_tolerance(self):
        from repro.obs.sampling import TraceSampler

        report, trace = sharded_trace(TraceSampler(0.5))
        # The records the parent's rate-0.5 shard files held.
        assert len(trace) == 340
        summary = summarize_trace(trace)
        entry = summary["events"]["7"]
        assert entry["estimated"] is True
        assert entry["delivery_ratio"] == pytest.approx(
            report.delivery_ratio, abs=0.25
        )
        assert summary["sampling"]["rate"] == 0.5
        assert "kind_counts_estimated" in summary
        rate = summary["sampling"]["rate"]
        for kind, count in summary["kind_counts"].items():
            assert summary["kind_counts_estimated"][kind] == (
                pytest.approx(count / rate, abs=0.01)
            )

    def test_gz_roundtrip(self, tmp_path):
        __, trace = traced_run(loss=0.05)
        plain = str(tmp_path / "trace.jsonl")
        gzipped = str(tmp_path / "trace.jsonl.gz")
        trace.to_jsonl(plain)
        trace.to_jsonl(gzipped)
        assert summarize_trace(gzipped) == summarize_trace(plain)
        assert main(["validate", gzipped]) == 0

    def test_sharded_run_streams_into_gz_sink(self, tmp_path):
        from repro.obs import JsonlSink

        path = str(tmp_path / "sharded.jsonl.gz")
        with JsonlSink(path) as sink:
            __, trace = sharded_trace(sink=sink)
            assert sink.records_written == len(trace)
        assert main(["validate", path]) == 0
        assert list(TraceLog.from_jsonl(path)) == list(trace)

    def test_removed_merge_and_multi_path_are_usage_errors(self, capsys):
        for argv in (["merge", "out.jsonl", "a.jsonl"],
                     ["summarize", "a.jsonl", "b.jsonl"]):
            with pytest.raises(SystemExit) as raised:
                main(argv)
            assert raised.value.code == 2
        capsys.readouterr()

    def test_sampled_engine_trace_estimates(self):
        from repro.obs.sampling import TraceSampler

        space = AddressSpace.regular(4, 3)
        addresses = space.enumerate_regular(4)
        members = bernoulli_interests(
            addresses, 0.3, derive_rng(11, "golden-int")
        )
        group = PmcastGroup.build(
            members, PmcastConfig(fanout=2, redundancy=2)
        )
        trace = TraceLog()
        report = run_dissemination(
            group,
            addresses[0],
            Event({"cli": 1}, event_id=42),
            SimConfig(seed=11, loss_probability=0.05),
            observer=Observer(trace=trace, sampler=TraceSampler(0.6)),
        )
        entry = summarize_trace(trace)["events"]["42"]
        assert entry["estimated"] is True
        assert entry["delivery_ratio"] == pytest.approx(
            report.delivery_ratio, abs=0.3
        )
