"""Tests for the structured dissemination trace."""

import pytest

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import SimulationError
from repro.interests import Event, StaticInterest
from repro.sim import (
    PmcastGroup,
    TraceLog,
    TraceRecord,
    run_dissemination,
)


class TestTraceLog:
    def test_record_and_filter(self):
        log = TraceLog()
        log.record(1, "send", Address((0, 0)), peer=Address((0, 1)),
                   event_id=5, depth=2)
        log.record(1, "receive", Address((0, 1)), peer=Address((0, 0)),
                   event_id=5, depth=2)
        log.record(2, "deliver", Address((0, 1)), event_id=5)
        assert len(log) == 3
        assert len(log.filter(kind="send")) == 1
        assert len(log.filter(kind="receive")) == 1
        assert len(log.filter(kind="deliver")) == 1
        assert log.filter(process=Address((0, 1)), kind="deliver")

    def test_unknown_kind_rejected(self):
        log = TraceLog()
        with pytest.raises(SimulationError):
            log.record(0, "teleport", Address((0,)))
        # Rejected before allocation: nothing was appended or indexed.
        assert len(log) == 0
        assert log.counts() == {}

    def test_negative_round_rejected(self):
        with pytest.raises(SimulationError):
            TraceRecord(-1, "send", Address((0,)), Address((1,)), 1, 0)

    def test_negative_depth_rejected(self):
        with pytest.raises(SimulationError):
            TraceRecord(0, "send", Address((0,)), Address((1,)), 1, -2)

    def test_value_round_trips_through_dict(self):
        original = TraceRecord(
            3, "pull", Address((0, 1)), Address((1, 0)), 0, 0, value=4
        )
        data = original.to_dict()
        assert data["value"] == 4
        assert TraceRecord.from_dict(data) == original
        # Zero values are omitted from the dict but restored on load.
        quiet = TraceRecord(3, "pull", Address((0, 1)), Address((1, 0)), 0, 0)
        assert "value" not in quiet.to_dict()
        assert TraceRecord.from_dict(quiet.to_dict()).value == 0

    def test_malformed_dict_rejected(self):
        with pytest.raises(SimulationError):
            TraceRecord.from_dict({"kind": "send"})

    def test_annotate_merges_meta(self):
        log = TraceLog()
        log.annotate(seed=7)
        log.annotate(rounds=12, seed=8)
        assert log.meta == {"seed": 8, "rounds": 12}

    def test_render(self):
        log = TraceLog()
        log.record(1, "send", Address((0, 0)), peer=Address((0, 1)),
                   event_id=5, depth=2)
        text = log.render()
        assert "send" in text and "0.0 -> 0.1" in text and "@d2" in text

    def test_render_truncation(self):
        log = TraceLog()
        for round_index in range(5):
            log.record(round_index, "publish", Address((0,)), event_id=1)
        text = log.render(limit=2)
        assert "3 more records" in text


class TestEngineTracing:
    def run_traced(self, loss=0.0):
        space = AddressSpace.regular(3, 2)
        members = {
            address: StaticInterest(True)
            for address in space.enumerate_regular(3)
        }
        group = PmcastGroup.build(
            members, PmcastConfig(fanout=2, redundancy=2,
                                  min_rounds_per_depth=2)
        )
        trace = TraceLog()
        event = Event({}, event_id=321)
        report = run_dissemination(
            group, sorted(members)[0], event,
            SimConfig(seed=17, loss_probability=loss), trace=trace,
        )
        return report, trace, event

    def test_trace_matches_report_counts(self):
        report, trace, event = self.run_traced()
        counts = trace.counts()
        assert counts["send"] + counts.get("loss", 0) == report.messages_sent
        assert len(trace.filter(kind="receive")) == counts["send"]
        # One delivery record per delivered process (incl. publisher).
        assert len(trace.filter(kind="deliver")) == report.delivered_interested

    def test_losses_recorded(self):
        report, trace, __ = self.run_traced(loss=0.3)
        assert len(trace.filter(kind="loss")) == report.messages_lost
        assert len(trace.filter(kind="send")) == (
            report.messages_sent - report.messages_lost
        )

    def test_chronological_order(self):
        __, trace, __ = self.run_traced()
        rounds = [record.round for record in trace]
        assert rounds == sorted(rounds)

    def test_publish_record_first(self):
        __, trace, event = self.run_traced()
        first = next(iter(trace))
        assert first.kind == "publish"
        assert first.event_id == event.event_id

    def test_every_delivery_preceded_by_receive_or_publish(self):
        __, trace, event = self.run_traced()
        received_by = set()
        published_by = set()
        for record in trace:
            if record.kind == "receive":
                received_by.add(record.process)
            elif record.kind == "publish":
                published_by.add(record.process)
            elif record.kind == "deliver":
                assert record.process in received_by | published_by

    def test_no_trace_means_no_overhead_path(self):
        # The untraced code path still works (regression guard).
        space = AddressSpace.regular(2, 2)
        members = {
            address: StaticInterest(True)
            for address in space.enumerate_regular(2)
        }
        group = PmcastGroup.build(members, PmcastConfig(redundancy=1))
        report = run_dissemination(
            group, sorted(members)[0], Event({}, event_id=1),
            SimConfig(seed=1),
        )
        assert report.group_size == 4
