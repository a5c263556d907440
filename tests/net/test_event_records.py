"""Round-less trace records (ISSUE 9 satellite regression).

:class:`TraceRecord` historically assumed every record carries a
round number.  Event-driven runtimes
have no rounds — their records are keyed by ``time_us`` instead of a
fabricated round.  These tests pin the whole pipeline: construction,
ordering, serialization, file validation and summarize.
"""

import json

import pytest

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import SimulationError
from repro.interests.events import Event
from repro.net import (
    JitteredSchedule,
    RoundSchedule,
    StragglerSchedule,
    run_sim_dissemination,
)
from repro.obs import Observer
from repro.obs.cli import summarize_trace
from repro.obs.sink import read_trace, validate_trace
from repro.obs.trace import TraceLog, TraceRecord
from repro.sim import PmcastGroup, bernoulli_interests, derive_rng, run_dissemination

A1 = Address.parse("0.0.1")
A2 = Address.parse("0.0.2")


class TestRecordConstruction:
    def test_round_less_record_requires_time_us(self):
        with pytest.raises(SimulationError):
            TraceRecord(None, "timer_fire", A1, None, 7, 0)

    def test_round_less_record_with_time_us_is_valid(self):
        record = TraceRecord(None, "recv", A1, A2, 7, 1, time_us=1500)
        assert record.round is None
        assert record.time_us == 1500

    def test_negative_time_us_rejected(self):
        with pytest.raises(SimulationError):
            TraceRecord(None, "timer_fire", A1, None, 7, 0, time_us=-1)

    def test_new_event_kinds_are_known(self):
        TraceRecord(None, "recv", A1, A2, 7, 1, time_us=10)
        TraceRecord(None, "timer_fire", A1, None, 7, 0, time_us=10)
        TraceRecord(None, "send", A1, A2, 7, 1, time_us=10)

    def test_round_keyed_records_unchanged(self):
        record = TraceRecord(3, "send", A1, A2, 7, 1)
        assert record.round == 3
        assert record.time_us is None


class TestOrdering:
    def test_order_key_separates_domains(self):
        # Round-keyed and time-keyed records never interleave: the
        # leading element keeps the domains apart.
        round_keyed = TraceRecord(5, "send", A1, A2, 7, 1)
        timed = TraceRecord(None, "send", A1, A2, 7, 1, time_us=3)
        assert round_keyed.order_key() == (0, 5)
        assert timed.order_key() == (1, 3)
        assert round_keyed.order_key() < timed.order_key()

    def test_sorting_a_mixed_stream_is_stable(self):
        records = [
            TraceRecord(None, "timer_fire", A1, None, 7, 0, time_us=200),
            TraceRecord(2, "send", A1, A2, 7, 1),
            TraceRecord(None, "recv", A2, A1, 7, 1, time_us=100),
            TraceRecord(0, "publish", A1, None, 7, 0),
        ]
        ordered = sorted(records, key=TraceRecord.order_key)
        assert [r.order_key() for r in ordered] == [
            (0, 0), (0, 2), (1, 100), (1, 200),
        ]


class TestSerialization:
    def test_round_less_round_trips_through_dict(self):
        record = TraceRecord(None, "recv", A1, A2, 9, 2, time_us=4242)
        rebuilt = TraceRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert rebuilt == record

    def test_render_shows_timestamp_for_round_less(self):
        line = TraceRecord(
            None, "timer_fire", A1, None, 7, 0, time_us=300
        ).render()
        assert "t+300us" in line

    def test_from_dict_rejects_round_less_without_time(self):
        with pytest.raises(SimulationError):
            TraceRecord.from_dict(
                {
                    "round": None,
                    "kind": "timer_fire",
                    "process": "0.0.1",
                    "peer": None,
                    "event_id": 7,
                    "depth": 0,
                }
            )


def _write_event_trace(path, times):
    trace = TraceLog()
    trace.annotate(producer="test")
    trace.record(0, "publish", A1, event_id=7)
    for stamp in times:
        trace.record(
            None, "timer_fire", A1, event_id=7, time_us=stamp
        )
    trace.to_jsonl(str(path))
    return trace


class TestFileValidation:
    def test_round_less_records_validate(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_event_trace(path, [100, 200, 200, 300])
        count, problems = validate_trace(str(path))
        assert problems == []
        assert count == 5

    def test_time_regression_is_flagged(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        _write_event_trace(path, [300, 100])
        __, problems = validate_trace(str(path))
        assert problems

    def test_mixed_domains_validate_independently(self, tmp_path):
        # Round-keyed records stay monotone in round, round-less ones
        # in time_us; the two interleaved must not cross-contaminate.
        path = tmp_path / "mixed.jsonl"
        trace = TraceLog()
        trace.record(0, "publish", A1, event_id=7)
        trace.record(None, "timer_fire", A1, event_id=7, time_us=500)
        trace.record(1, "send", A1, peer=A2, event_id=7, depth=1)
        trace.record(None, "timer_fire", A1, event_id=7, time_us=900)
        trace.to_jsonl(str(path))
        __, problems = validate_trace(str(path))
        assert problems == []

    def test_round_trip_through_read_trace(self, tmp_path):
        path = tmp_path / "events.jsonl"
        original = _write_event_trace(path, [100, 200])
        loaded = read_trace(str(path))
        assert list(loaded) == list(original)


class TestAnalysis:
    def test_summarize_counts_event_records(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_event_trace(path, [100, 200, 300])
        summary = summarize_trace(str(path))
        assert summary["event_records"] == 3
        assert summary["records"] == 4


class TestEventLoopWritesThemWhenItHasNoRounds:
    """``run_sim_dissemination`` derives what ``event_records=`` used to
    ask: ``timer_fire`` records and the ``net`` header block are written
    iff the traced schedule is not round-synchronous."""

    PERIOD_US = 100_000

    def arguments(self):
        addresses = AddressSpace.regular(4, 3).enumerate_regular(4)
        members = bernoulli_interests(addresses, 0.3, derive_rng(11, "ev"))
        return (
            PmcastGroup.build(members, PmcastConfig(fanout=2, redundancy=2)),
            addresses[0],
            Event({"ev": 1}, event_id=42),
            SimConfig(seed=11, loss_probability=0.05),
        )

    def run(self, schedule, tmp_path):
        trace = TraceLog()
        run_sim_dissemination(
            *self.arguments(), schedule=schedule,
            observer=Observer(trace=trace),
        )
        path = str(tmp_path / "loop.jsonl")
        trace.to_jsonl(path)
        return trace, path

    @pytest.mark.parametrize("schedule", [
        JitteredSchedule(jitter=0.4, seed=3, period_us=PERIOD_US),
        StragglerSchedule(fraction=0.25, factor=2, seed=3,
                          period_us=PERIOD_US),
    ], ids=["jittered", "straggler"])
    def test_on_without_being_asked(self, schedule, tmp_path):
        trace, path = self.run(schedule, tmp_path)
        count, problems = validate_trace(path)
        assert problems == [] and count == len(trace)
        fires = trace.filter(kind="timer_fire")
        assert summarize_trace(path)["event_records"] == len(fires) > 0
        assert all(
            record.round is None and record.time_us > 0 for record in fires
        )
        assert trace.meta["net"] == {
            "schedule": repr(schedule),
            "period_us": self.PERIOD_US,
            "latency_us": self.PERIOD_US // 2,
        }

    @pytest.mark.parametrize("schedule", [
        RoundSchedule(period_us=PERIOD_US),
        JitteredSchedule(jitter=0.0, seed=3, period_us=PERIOD_US),
    ], ids=["round", "zero_jitter"])
    def test_off_so_the_trace_is_the_engines(self, schedule, tmp_path):
        trace, path = self.run(schedule, tmp_path)
        assert "event_records" not in summarize_trace(path)
        assert "net" not in trace.meta
        engine = TraceLog()
        run_dissemination(*self.arguments(), trace=engine)
        engine_path = str(tmp_path / "engine.jsonl")
        engine.to_jsonl(engine_path)
        with open(path, "rb") as ours, open(engine_path, "rb") as theirs:
            assert ours.read() == theirs.read()
