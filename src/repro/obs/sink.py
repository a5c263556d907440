"""Streaming JSONL trace sinks and loaders.

A paper-scale run produces hundreds of thousands of records; keeping
them all in memory (a :class:`~repro.obs.trace.TraceLog`) is fine for
tests but wrong for long-lived captures.  :class:`JsonlSink` streams
records straight to disk — one JSON object per line, after a header
line carrying the schema tag and run metadata — with an optional
per-file capacity and rotation, so a runaway run rolls files instead of
filling the disk.

The loaders are the inverse: :func:`iter_records` streams a file,
:func:`read_trace` materializes it as a ``TraceLog``, and
:func:`validate_trace` checks a file against the schema without
materializing anything (the CI smoke job runs it via the
``python -m repro.obs validate`` CLI).
"""

from __future__ import annotations

import gzip
import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.trace import TRACE_SCHEMA, TraceLog, TraceRecord

__all__ = [
    "JsonlSink",
    "open_text",
    "iter_records",
    "read_trace",
    "read_meta",
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
    """A streaming JSONL trace writer with capacity-based rotation.

    Args:
        path: the trace file to write.
        capacity: records per file; when reached, the file is rotated
            (``path`` -> ``path.1`` -> ``path.2`` ...) and a fresh one
            is started.  ``None`` disables rotation.
        keep: how many rotated files to keep (older ones are deleted).
        meta: run metadata written into every file's header line.

    The sink is also a context manager; :meth:`close` is idempotent.
    """

    def __init__(
        self,
        path: str,
        capacity: Optional[int] = None,
        keep: int = 3,
        meta: Optional[Dict[str, object]] = None,
    ):
        if capacity is not None and capacity < 1:
            raise ObservabilityError(f"capacity {capacity} must be >= 1")
        if keep < 1:
            raise ObservabilityError(f"keep {keep} must be >= 1")
        self._path = path
        self._capacity = capacity
        self._keep = keep
        self._meta = dict(meta or {})
        self._handle = None
        self._in_file = 0
        self._total = 0
        self._rotations = 0
        self._open()

    def _open(self) -> None:
        self._handle = open_text(self._path, "w")
        header = {"schema": TRACE_SCHEMA, "meta": self._meta}
        self._handle.write(json.dumps(header, sort_keys=True) + "\n")
        self._in_file = 0

    def _rotate(self) -> None:
        self._handle.close()
        for index in range(self._keep, 0, -1):
            older = f"{self._path}.{index}"
            if index == self._keep:
                if os.path.exists(older):
                    os.remove(older)
                continue
            if os.path.exists(older):
                os.replace(older, f"{self._path}.{index + 1}")
        os.replace(self._path, f"{self._path}.1")
        self._rotations += 1
        self._open()

    @property
    def path(self) -> str:
        """The live trace file."""
        return self._path

    @property
    def records_written(self) -> int:
        """Total records emitted across all rotations."""
        return self._total

    @property
    def rotations(self) -> int:
        """How many times the file has been rotated."""
        return self._rotations

    def annotate(self, **meta: object) -> None:
        """Extend the metadata used for *future* file headers."""
        self._meta.update(meta)

    def emit(self, record: TraceRecord) -> None:
        """Write one record, rotating first if the file is full."""
        if self._handle is None:
            raise ObservabilityError(f"sink {self._path} is closed")
        if self._capacity is not None and self._in_file >= self._capacity:
            self._rotate()
        self._handle.write(json.dumps(record.to_dict(), sort_keys=True))
        self._handle.write("\n")
        self._in_file += 1
        self._total += 1

    def close(self) -> None:
        """Flush and close the live file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _read_header(line: str, path: str) -> Dict[str, object]:
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise ObservabilityError(f"{path}: header is not JSON") from exc
    if not isinstance(header, dict) or "schema" not in header:
        raise ObservabilityError(f"{path}: first line is not a trace header")
    if header["schema"] != TRACE_SCHEMA:
        raise ObservabilityError(
            f"{path}: unsupported trace schema {header['schema']!r} "
            f"(expected {TRACE_SCHEMA})"
        )
    return header


def read_meta(path: str) -> Dict[str, object]:
    """The metadata dict from a trace file's header line."""
    with open_text(path, "r") as handle:
        header = _read_header(handle.readline(), path)
    meta = header.get("meta", {})
    return meta if isinstance(meta, dict) else {}


def iter_records(path: str) -> Iterator[TraceRecord]:
    """Stream the records of a JSONL trace file, validating the header."""
    with open_text(path, "r") as handle:
        _read_header(handle.readline(), path)
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
            yield TraceRecord.from_dict(data)


def read_trace(path: str) -> TraceLog:
    """Load a whole JSONL trace file into an indexed :class:`TraceLog`."""
    log = TraceLog()
    log.meta = read_meta(path)
    for record in iter_records(path):
        log.append(record)
    return log


def validate_trace(path: str) -> Tuple[int, List[str]]:
    """Check a trace file against the schema, without materializing it.

    Returns ``(records_seen, problems)``; an empty problem list means
    the file is a well-formed :data:`TRACE_SCHEMA` trace.  Unlike the
    loaders, validation collects every problem instead of raising on
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
            # ordering domain (TraceRecord.order_key): rounds must be
            # monotone among round-keyed records, timestamps among
            # round-less ones.  A producer may interleave the two.
            last_round: Optional[int] = None
            last_time: Optional[int] = None
            for number, line in enumerate(handle, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = TraceRecord.from_dict(json.loads(line))
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
