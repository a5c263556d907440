"""Wall-clock phase timelines: the ``repro.obs.timeline/v1`` schema.

The trace plane answers *what the protocol did*; this module answers
*where the time and memory went*.  A :class:`TimelineRecorder` collects
**spans** — one wall-clock interval per ``(subsystem, phase)`` per
round, e.g. the fan-out loop of round 12 or the envelope exchange of
wave 3 — plus point-in-time **memory probes** (RSS from ``/proc``).

Timelines are strictly out of band:

* **Zero RNG.**  Only ``time.perf_counter`` and ``/proc`` reads — a
  timed run is bit-identical to an untimed one (pinned by the golden
  tests alongside the :data:`~repro.obs.registry.NULL_REGISTRY`
  contract).
* **Never digested.**  Wall-clock values are machine noise; no bench
  digest, report digest, or RNG stream folds them in.
* **O(rounds) volume.**  Instrumented loops open a handful of spans
  per round regardless of group size, and the per-span cost is pinned
  by a test — timelines stay on at n = 10⁶.

The JSONL layout mirrors the trace plane: a header line carrying
:data:`TIMELINE_SCHEMA` and run metadata, then one JSON object per
span/probe.  ``.gz`` paths are transparently compressed.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError

__all__ = [
    "TIMELINE_SCHEMA",
    "PHASES",
    "NULL_SPAN",
    "NULL_TIMELINE",
    "TimelineRecorder",
    "load_timeline",
]

#: The versioned schema identifier stamped on every timeline file.
TIMELINE_SCHEMA = "repro.obs.timeline/v1"

#: The canonical per-round phases instrumented code uses.  The schema
#: does not restrict phases to this tuple (subsystems may add their
#: own), but analyzers can rely on these names where they appear.
PHASES = ("membership", "fan_out", "exchange", "memory")

#: A shared reusable no-op context manager: what
#: :data:`NULL_TIMELINE` hands out, so untimed loops pay nothing.
NULL_SPAN = contextlib.nullcontext()


def _rss_kb() -> Optional[int]:
    """Resident set size right now in KiB (None where /proc is absent)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError):  # pragma: no cover - non-Linux
        return None
    return None


class TimelineRecorder:
    """An append-only collector of wall-clock spans and memory probes.

    Args:
        meta: run metadata written into the JSONL header.

    One recorder may span several measured components (the bench suite
    threads one through every scenario); spans carry their subsystem so
    the rollup stays attributable.
    """

    def __init__(self, meta: Optional[Dict[str, object]] = None):
        self.meta: Dict[str, object] = dict(meta or {})
        self._entries: List[Dict[str, Any]] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(
        self,
        phase: str,
        subsystem: str,
        round_index: Optional[int] = None,
    ) -> Iterator[None]:
        """Time one phase: ``with timeline.span("fan_out", "engine", r):``.

        The span is recorded even when the body raises — a crashed
        round still shows where its time went.
        """
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            self._entries.append(
                {
                    "type": "span",
                    "phase": phase,
                    "subsystem": subsystem,
                    "round": round_index,
                    "start": round(started - self._origin, 6),
                    "seconds": round(ended - started, 6),
                }
            )

    def probe_memory(
        self,
        subsystem: str = "process",
        round_index: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Record one point-in-time memory snapshot (and return it)."""
        entry: Dict[str, Any] = {
            "type": "memory",
            "phase": "memory",
            "subsystem": subsystem,
            "round": round_index,
            "start": round(time.perf_counter() - self._origin, 6),
            "rss_kb": _rss_kb(),
        }
        self._entries.append(entry)
        return entry

    def spans(self) -> List[Dict[str, Any]]:
        """Only the wall-clock spans."""
        return [e for e in self._entries if e["type"] == "span"]

    def totals(self) -> Dict[Tuple[str, str], float]:
        """Aggregate seconds per ``(subsystem, phase)``."""
        out: Dict[Tuple[str, str], float] = {}
        for entry in self._entries:
            if entry["type"] != "span":
                continue
            key = (entry["subsystem"], entry["phase"])
            out[key] = round(out.get(key, 0.0) + entry["seconds"], 6)
        return out

    def to_jsonl(self, path: str) -> int:
        """Write header + entries as JSONL; returns entries written.

        A ``.gz`` suffix selects transparent gzip compression.
        """
        from repro.obs.sink import open_text

        with open_text(path, "w") as handle:
            header = {"schema": TIMELINE_SCHEMA, "meta": self.meta}
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for entry in self._entries:
                handle.write(json.dumps(entry, sort_keys=True))
                handle.write("\n")
        return len(self._entries)


class _NullTimeline:
    """The disabled recorder: spans are :data:`NULL_SPAN`, probes no-ops."""

    __slots__ = ()

    def span(
        self,
        phase: str,
        subsystem: str,
        round_index: Optional[int] = None,
    ) -> ContextManager[None]:
        return NULL_SPAN

    def probe_memory(
        self,
        subsystem: str = "process",
        round_index: Optional[int] = None,
    ) -> None:
        return None


#: The shared disabled timeline: instrumented loops write
#: ``with timeline.span(...):`` unconditionally, and an
#: :class:`~repro.obs.probes.Observer` without a recorder carries this.
NULL_TIMELINE = _NullTimeline()


def load_timeline(path: str) -> Tuple[Dict[str, object], List[Dict[str, Any]]]:
    """Read a timeline file back as ``(meta, entries)``.

    Raises:
        ObservabilityError: on a missing/foreign header or non-JSON
            entry line.
    """
    from repro.obs.sink import open_text

    entries: List[Dict[str, Any]] = []
    with open_text(path, "r") as handle:
        try:
            header = json.loads(handle.readline())
        except ValueError as exc:
            raise ObservabilityError(f"{path}: header is not JSON") from exc
        if not isinstance(header, dict) or header.get("schema") != TIMELINE_SCHEMA:
            raise ObservabilityError(
                f"{path}: not a {TIMELINE_SCHEMA} timeline"
            )
        for number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except ValueError as exc:
                raise ObservabilityError(
                    f"{path}:{number}: not JSON"
                ) from exc
    meta = header.get("meta", {})
    return (meta if isinstance(meta, dict) else {}), entries
