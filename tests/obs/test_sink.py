"""Tests for the streaming JSONL sink and the trace loaders."""

import gzip
import json

import pytest

from repro.addressing import Address
from repro.errors import ObservabilityError
from repro.obs import JsonlSink, TraceLog, TraceRecord
from repro.obs.sink import read_trace, validate_trace
from repro.obs.trace import TRACE_SCHEMA
from tests.traces import write_jsonl


def record(round=0, kind="send", process=(0, 0), peer=(0, 1), **kwargs):
    return TraceRecord(
        round,
        kind,
        Address(process),
        None if peer is None else Address(peer),
        kwargs.get("event_id", 1),
        kwargs.get("depth", 1),
        kwargs.get("value", 0),
    )


def lines_of(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def header_line(path):
    return lines_of(path)[0]


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlSink(path, meta={"seed": 7}) as sink:
            sink.append(record(round=1))
            sink.append(record(round=2, kind="receive",
                               process=(0, 1), peer=(0, 0), value=3))
        log = read_trace(path)
        assert len(log) == 2
        assert log.meta == {"seed": 7}
        records = list(log)
        assert records[0].kind == "send"
        assert records[1].value == 3

    def test_matches_tracelog_to_jsonl(self, tmp_path):
        """Sink output and TraceLog.to_jsonl are the same format."""
        sink_path = str(tmp_path / "sink.jsonl")
        log_path = str(tmp_path / "log.jsonl")
        records = [record(round=1), record(round=2, peer=None, kind="crash")]
        with JsonlSink(sink_path, meta={"a": 1}) as sink:
            for item in records:
                sink.append(item)
        log = TraceLog()
        log.annotate(a=1)
        for item in records:
            log.append(item)
        write_jsonl(log, log_path)
        with open(sink_path) as left, open(log_path) as right:
            assert left.read() == right.read()

    @pytest.mark.parametrize(
        "name, count",
        [("plain.jsonl", 3), ("packed.jsonl.gz", 3), ("empty.jsonl", 0)],
    )
    def test_to_jsonl_is_a_sink_capture(self, tmp_path, name, count):
        """TraceLog.to_jsonl writes through the sink: its bytes (for a
        .gz path, its decompressed bytes) are a sink capture's."""
        records = [
            record(round=1),
            record(round=2, peer=None, kind="crash"),
            record(round=2, kind="receive", process=(0, 1), peer=(0, 0)),
        ][:count]
        log = TraceLog()
        log.annotate(seed=3, size=9)
        for item in records:
            log.append(item)
        log_path, sink_path = str(tmp_path / name), str(tmp_path / f"sink-{name}")
        assert write_jsonl(log, log_path) == count
        with JsonlSink(sink_path, meta={"seed": 3, "size": 9}) as sink:
            for item in records:
                sink.append(item)
        read = gzip.open if name.endswith(".gz") else open
        with read(log_path, "rb") as left, read(sink_path, "rb") as right:
            written = left.read()
            assert written == right.read()
        assert len(written.splitlines()) == 1 + count

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "trace.jsonl"))
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ObservabilityError):
            sink.append(record())

    def test_annotate_affects_next_header(self, tmp_path):
        """Once the header is out, annotations merge into the one
        header-shaped closing line; the loader folds it in last."""
        path = str(tmp_path / "trace.jsonl")
        with JsonlSink(path, meta={"n": 1}) as sink:
            sink.append(record(round=0))
            sink.annotate(late=True, n=2)
            sink.append(record(round=1))
            sink.annotate(later=True)
        header, __, __, closing = lines_of(path)
        assert header["meta"] == {"n": 1}
        assert closing["meta"] == {"late": True, "n": 2, "later": True}
        assert read_trace(path).meta == {"n": 2, "late": True, "later": True}

    def test_header_waits_for_the_first_record(self, tmp_path):
        """What a run annotates before it emits anything — the sampling
        block, the dissemination header — is in the header line; the
        parent wrote ``meta == {}`` at construction."""
        path = str(tmp_path / "trace.jsonl")
        with JsonlSink(path) as sink:
            sink.annotate(sampling={"rate": 0.5}, producer="test")
            sink.append(record(round=1))
            sink.annotate(rounds=13)
        header, only, closing = lines_of(path)
        assert header["meta"] == {"sampling": {"rate": 0.5}, "producer": "test"}
        assert only["kind"] == "send"
        assert closing == {"schema": TRACE_SCHEMA, "meta": {"rounds": 13}}
        expected = {"sampling": {"rate": 0.5}, "producer": "test", "rounds": 13}
        log = read_trace(path)
        assert log.meta == expected and len(log) == 1
        assert validate_trace(path) == (1, [])

    def test_recordless_sink_still_writes_its_header(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlSink(path, meta={"seed": 7}) as sink:
            sink.annotate(rounds=0)
        assert lines_of(path) == [
            {"schema": TRACE_SCHEMA, "meta": {"seed": 7, "rounds": 0}}
        ]
        assert validate_trace(path) == (0, [])

    def test_closing_line_with_a_foreign_schema_is_a_problem(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"schema": TRACE_SCHEMA, "meta": {}}) + "\n"
            + json.dumps(record().to_dict()) + "\n"
            + json.dumps({"schema": "other/v9", "meta": {"rounds": 1}}) + "\n"
        )
        count, problems = validate_trace(str(path))
        assert count == 1 and len(problems) == 1 and "other/v9" in problems[0]
        with pytest.raises(ObservabilityError):
            read_trace(str(path))


class TestLoaders:
    def test_read_trace_rebuilds_indexes(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        log = TraceLog()
        log.record(0, "publish", Address((0, 0)), event_id=5)
        log.record(1, "deliver", Address((0, 1)), event_id=5)
        write_jsonl(log, path)
        loaded = read_trace(path)
        (delivery,) = loaded.filter(kind="deliver", event_id=5)
        assert (delivery.round, delivery.process) == (1, Address((0, 1)))
        assert loaded.counts() == {"deliver": 1, "publish": 1}

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_trace(str(tmp_path / "nope.jsonl"))

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "other/v9", "meta": {}}) + "\n")
        with pytest.raises(ObservabilityError):
            read_trace(str(path))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"round": 0}\n')
        with pytest.raises(ObservabilityError):
            read_trace(str(path))


class TestValidateTrace:
    def header(self):
        return json.dumps({"schema": TRACE_SCHEMA, "meta": {}}) + "\n"

    def test_clean_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        log = TraceLog()
        log.record(0, "publish", Address((0,)))
        log.record(1, "send", Address((0,)), peer=Address((1,)))
        write_jsonl(log, path)
        count, problems = validate_trace(path)
        assert count == 2
        assert problems == []

    def test_collects_every_problem(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [
            self.header(),
            "not json at all\n",
            json.dumps({"round": 0, "kind": "teleport",
                        "process": "0.0", "peer": None}) + "\n",
            json.dumps({"round": 5, "kind": "send",
                        "process": "0.0", "peer": "0.1"}) + "\n",
            json.dumps({"round": 2, "kind": "send",
                        "process": "0.0", "peer": "0.1"}) + "\n",
        ]
        path.write_text("".join(lines))
        count, problems = validate_trace(str(path))
        assert count == 2  # the two well-formed send records
        assert len(problems) == 3
        assert "not JSON" in problems[0]
        assert "teleport" in problems[1]
        assert "backwards" in problems[2]

    def test_bad_header_short_circuits(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("{}\n")
        count, problems = validate_trace(str(path))
        assert count == 0
        assert problems

    def test_unreadable_file(self, tmp_path):
        count, problems = validate_trace(str(tmp_path / "nope.jsonl"))
        assert count == 0
        assert "cannot read" in problems[0]
