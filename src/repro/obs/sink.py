"""The streaming JSONL trace sink and the trace loaders.

A paper-scale run produces hundreds of thousands of records; keeping
them all in memory (a :class:`~repro.obs.trace.TraceLog`) is fine for
tests but wrong for long-lived captures.  :class:`JsonlSink` streams
records straight to disk — one JSON object per line, after a header
line carrying the schema tag and run metadata.  It takes the same
``append`` / ``annotate`` calls as a ``TraceLog``, so either is an
:class:`~repro.obs.probes.Observer`'s trace destination.  The header is
written with the file's first record, so it carries everything
annotated before the run emitted anything; what is annotated later
(the final round count, a fault plan's tallies) goes into one more
header-shaped line when the file is closed, which the loaders fold
into the metadata.

The loaders are the inverse: :func:`read_trace` materializes a file as
a ``TraceLog``, and :func:`validate_trace` checks a file against the
schema without materializing anything (the CI smoke job runs it via
the ``python -m repro.obs validate`` CLI).
"""

from __future__ import annotations

import gzip
import json
from typing import Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.trace import TRACE_SCHEMA, TraceLog, TraceRecord

__all__ = [
    "JsonlSink",
    "open_text",
    "read_trace",
    "validate_trace",
]


def open_text(path: str, mode: str = "r"):
    """Open a text file, transparently gzipped when it ends ``.gz``.

    Every loader and writer in the observability plane goes through
    this helper, so traces and timelines can be stored compressed
    without any caller caring.
    """
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


class JsonlSink:
    """A streaming JSONL trace writer.

    Args:
        path: the trace file to write.
        meta: run metadata written into the header line (extended by
            :meth:`annotate`).

    The sink is also a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, path: str, meta: Optional[Dict[str, object]] = None):
        self._path = path
        self._meta = dict(meta or {})
        #: What was annotated since the header was written (``None``
        #: while the header itself is still pending).
        self._late: Optional[Dict[str, object]] = None
        self._handle = open_text(self._path, "w")

    def _write_meta(self, meta: Dict[str, object]) -> None:
        header = {"schema": TRACE_SCHEMA, "meta": meta}
        self._handle.write(json.dumps(header, sort_keys=True) + "\n")

    def _finish_file(self) -> None:
        """Write the pending header or the closing line, then close."""
        if self._late is None:
            self._write_meta(self._meta)
        elif self._late:
            self._write_meta(self._late)
        self._late = None
        self._handle.close()

    def annotate(self, **meta: object) -> None:
        """Extend the run metadata: into the header while it is still
        pending, else into the file's closing line."""
        self._meta.update(meta)
        if self._late is not None:
            self._late.update(meta)

    def append(self, record: TraceRecord) -> None:
        """Write one record (the header first, if still pending)."""
        if self._handle is None:
            raise ObservabilityError(f"sink {self._path} is closed")
        if self._late is None:
            self._write_meta(self._meta)
            self._late = {}
        self._handle.write(json.dumps(record.to_dict(), sort_keys=True))
        self._handle.write("\n")

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._handle is not None:
            self._finish_file()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _read_header(line: str, path: str) -> Dict[str, object]:
    """The metadata dict of a trace file's header line."""
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise ObservabilityError(f"{path}: header line is not JSON") from exc
    if not isinstance(header, dict) or "schema" not in header:
        raise ObservabilityError(f"{path}: first line is not a trace header")
    if header["schema"] != TRACE_SCHEMA:
        raise ObservabilityError(
            f"{path}: unsupported trace schema {header['schema']!r} "
            f"(expected {TRACE_SCHEMA})"
        )
    meta = header.get("meta", {})
    return meta if isinstance(meta, dict) else {}


def _is_closing_line(data: object) -> bool:
    """A header-shaped line after the first: what a sink's run
    annotated after its first record.  Never a record."""
    return isinstance(data, dict) and "schema" in data and "kind" not in data


def read_trace(path: str) -> TraceLog:
    """Load a whole JSONL trace file into an indexed :class:`TraceLog`,
    its metadata the header's extended by any closing line."""
    log = TraceLog()
    with open_text(path, "r") as handle:
        log.meta.update(_read_header(handle.readline(), path))
        for number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise ObservabilityError(
                    f"{path}:{number}: not JSON"
                ) from exc
            if _is_closing_line(data):
                log.meta.update(_read_header(line, path))
            else:
                log.append(TraceRecord.from_dict(data))
    return log


def validate_trace(path: str) -> Tuple[int, List[str]]:
    """Check a trace file against the schema, without materializing it.

    Returns ``(records_seen, problems)``; an empty problem list means
    the file is a well-formed :data:`TRACE_SCHEMA` trace.  Unlike
    :func:`read_trace`, validation collects every problem instead of raising on
    the first one.
    """
    problems: List[str] = []
    count = 0
    try:
        with open_text(path, "r") as handle:
            try:
                _read_header(handle.readline(), path)
            except ObservabilityError as exc:
                return 0, [str(exc)]
            # Round-keyed and event-keyed records each have their own
            # ordering domain: rounds must be monotone among round-keyed
            # records, timestamps among round-less ones.  A producer may
            # interleave the two.
            last_round: Optional[int] = None
            last_time: Optional[int] = None
            for number, line in enumerate(handle, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    if _is_closing_line(data):
                        _read_header(line, path)
                        continue
                    record = TraceRecord.from_dict(data)
                except ValueError:
                    problems.append(f"line {number}: not JSON")
                    continue
                except Exception as exc:  # SimulationError, AddressError
                    problems.append(f"line {number}: {exc}")
                    continue
                count += 1
                if record.round is not None:
                    if last_round is not None and record.round < last_round:
                        problems.append(
                            f"line {number}: round {record.round} goes "
                            f"backwards (after {last_round})"
                        )
                    last_round = record.round
                else:
                    if last_time is not None and (
                        record.time_us is not None
                        and record.time_us < last_time
                    ):
                        problems.append(
                            f"line {number}: time_us {record.time_us} goes "
                            f"backwards (after {last_time})"
                        )
                    last_time = record.time_us
    except OSError as exc:
        return 0, [f"cannot read {path}: {exc}"]
    return count, problems
