"""Trace files for tests: a ``TraceLog`` written as a sink writes it."""

from repro.obs import JsonlSink


def write_jsonl(log, path):
    """Write ``log`` (header with its meta, then every record) as a
    JSONL trace file; a ``.gz`` path is compressed.  Returns the record
    count."""
    with JsonlSink(path, meta=log.meta) as sink:
        for record in log:
            sink.append(record)
    return len(log)
