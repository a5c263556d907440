"""Tests for the ``repro.obs.timeline/v1`` wall-clock plane.

Two properties carry the design: timelines are **out of band** (a timed
run is bit-identical to an untimed one — zero RNG, nothing digested)
and **cheap** (per-span overhead bounded, so they stay on at n = 10⁶).
"""

import time

import pytest

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import ObservabilityError
from repro.interests.events import Event
from repro.obs import Observer, TraceLog
from repro.obs.timeline import (
    NULL_SPAN,
    NULL_TIMELINE,
    TIMELINE_SCHEMA,
    TimelineRecorder,
    load_timeline,
)
from repro.sim import PmcastGroup, run_dissemination
from repro.sim.rng import derive_rng
from repro.sim.runtime import GroupRuntime
from repro.sim.workload import bernoulli_interests


def _members(seed=11, arity=3, depth=3, rate=0.3):
    addresses = AddressSpace.regular(arity, depth).enumerate_regular(arity)
    return addresses, bernoulli_interests(
        addresses, rate, derive_rng(seed, "timeline-int")
    )


class TestRecorder:
    def test_span_records_phase_subsystem_round(self):
        timeline = TimelineRecorder(meta={"producer": "test"})
        with timeline.span("fan_out", "engine", 3):
            pass
        with timeline.span("exchange", "engine", 3):
            pass
        spans = timeline.spans()
        assert [s["phase"] for s in spans] == ["fan_out", "exchange"]
        assert all(s["subsystem"] == "engine" for s in spans)
        assert all(s["round"] == 3 for s in spans)
        assert all(s["seconds"] >= 0 for s in spans)

    def test_span_recorded_on_exception(self):
        timeline = TimelineRecorder()
        with pytest.raises(RuntimeError):
            with timeline.span("fan_out", "engine", 1):
                raise RuntimeError("boom")
        assert len(timeline.spans()) == 1

    def test_totals_aggregate_per_subsystem_phase(self):
        timeline = TimelineRecorder()
        for round_index in range(4):
            with timeline.span("fan_out", "engine", round_index):
                pass
        totals = timeline.totals()
        assert set(totals) == {("engine", "fan_out")}
        assert totals[("engine", "fan_out")] >= 0

    def test_memory_probe_carries_rss(self):
        timeline = TimelineRecorder()
        entry = timeline.probe_memory(subsystem="test", round_index=9)
        assert entry["type"] == "memory"
        assert entry["rss_kb"] is None or entry["rss_kb"] > 0

    def test_jsonl_round_trip(self, tmp_path):
        timeline = TimelineRecorder(meta={"producer": "test", "seed": 4})
        with timeline.span("exchange", "subtree", 0):
            pass
        timeline.probe_memory(subsystem="subtree")
        path = str(tmp_path / "timeline.jsonl.gz")
        assert timeline.to_jsonl(path) == 2
        meta, entries = load_timeline(path)
        assert meta == {"producer": "test", "seed": 4}
        assert [e["type"] for e in entries] == ["span", "memory"]

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other/v0", "meta": {}}\n')
        with pytest.raises(ObservabilityError):
            load_timeline(str(path))
        assert TIMELINE_SCHEMA == "repro.obs.timeline/v1"

    def test_null_span_is_reusable(self):
        for __ in range(3):
            with NULL_SPAN:
                pass

    def test_null_timeline_is_the_untimed_default(self):
        assert Observer().timeline is NULL_TIMELINE
        assert NULL_TIMELINE.span("fan_out", "engine", 3) is NULL_SPAN
        assert NULL_TIMELINE.probe_memory(subsystem="engine") is None
        recorder = TimelineRecorder()
        assert Observer(timeline=recorder).timeline is recorder


class TestOutOfBand:
    """A timed run must be bit-identical to an untimed one."""

    def _run(self, timeline=None, trace=None):
        addresses, members = _members()
        group = PmcastGroup.build(
            members, PmcastConfig(fanout=2, redundancy=2)
        )
        report = run_dissemination(
            group,
            addresses[0],
            Event({"t": 1}, event_id=5),
            SimConfig(seed=7, loss_probability=0.05),
            trace=trace,
            timeline=timeline,
        )
        return report

    def test_engine_report_and_trace_identical_with_timeline(self):
        plain = self._run()
        trace_off = TraceLog()
        self._run(trace=trace_off)
        timeline = TimelineRecorder()
        trace_on = TraceLog()
        timed = self._run(timeline=timeline, trace=trace_on)
        assert timed == plain
        assert [r.to_dict() for r in trace_on] == [
            r.to_dict() for r in trace_off
        ]
        assert len(timeline.spans()) > 0

    def test_runtime_rounds_identical_with_timeline(self):
        addresses, members = _members()

        def run(observer=None):
            runtime = GroupRuntime(
                members,
                config=PmcastConfig(fanout=2, redundancy=2),
                sim_config=SimConfig(seed=3),
                observer=observer,
            )
            event = Event({"t": 1}, event_id=6)
            runtime.publish(addresses[0], event)
            rounds = runtime.run_until_idle(max_rounds=64)
            return rounds, sorted(
                str(a) for a in runtime.delivered_to(event)
            )

        plain = run()
        timeline = TimelineRecorder()
        timed = run(Observer(timeline=timeline))
        assert timed == plain
        phases = {s["phase"] for s in timeline.spans()}
        assert phases == {"fan_out", "exchange", "membership"}
        assert all(
            s["subsystem"] == "runtime" for s in timeline.spans()
        )


class TestOverheadBound:
    def test_span_overhead_is_bounded(self):
        """10k spans must stay far under a per-record trace's cost.

        The bound is deliberately loose (50µs/span amortized — two
        orders of magnitude above the observed cost) so CI noise cannot
        trip it, while an accidental O(entries) scan per span still
        fails instantly.
        """
        timeline = TimelineRecorder()
        spans = 10_000
        started = time.perf_counter()
        for index in range(spans):
            with timeline.span("fan_out", "bench", index):
                pass
        elapsed = time.perf_counter() - started
        assert len(timeline) == spans
        assert elapsed < spans * 50e-6, (
            f"{elapsed / spans * 1e6:.1f}µs per span"
        )
