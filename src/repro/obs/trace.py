"""The unified, versioned trace record schema.

Debugging a probabilistic protocol needs more than end-of-run counters:
*which* delegate forwarded the event at which depth, which membership
round repaired which view, where a lost message cut a subtree off.  A
:class:`TraceRecord` is one protocol action; a :class:`TraceLog` is an
append-only, indexed log of them.

One schema covers both planes of the system:

* **dissemination** records (``publish | send | loss | receive |
  deliver``) from :func:`repro.sim.engine.run_dissemination` and
  :meth:`repro.sim.runtime.GroupRuntime.step`;
* **membership** records (``join | leave | crash | suspect | exclude |
  pull | refresh``) from the runtime's churn entry points, failure
  detection and anti-entropy;
* **fault-injection** records (``fault_loss | fault_delay |
  fault_release | fault_partition | fault_heal | fault_crash``) from
  a fault plan's link (:mod:`repro.faults`), so a degraded run's
  trace explains *which* scripted fault did the damage;
* **variant control-plane** records (``pull_request | pull_reply |
  view_shuffle``) from the :mod:`repro.variants` strategies — pull
  recovery traffic and lpbcast view shuffles, one record per control
  envelope (``value`` 1 = arrived, 0 = dropped by the network;
  ``view_shuffle`` is receiver-side, ``value`` = entries merged);
* **event-plane** records (``recv | timer_fire``) from the
  :mod:`repro.net` runtimes, where no global round exists.  These
  records carry ``round = None`` and are ordered by ``time_us``, a
  wall-clock (or virtual-clock) microsecond timestamp.  Any record
  *may* carry ``time_us`` alongside its round; a record with
  ``round = None`` *must*.

Records serialize to single JSON objects (see :mod:`repro.obs.sink`),
tagged :data:`TRACE_SCHEMA` so offline tooling can reject traces it
does not understand.  The ``time_us`` key and the event-plane kinds
are additive within ``repro.obs.trace/v1``: every record a prior
producer wrote is still valid, and consumers that predate the key
ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Collection, Dict, Iterator, List, Optional

from repro.addressing import Address
from repro.errors import SimulationError

__all__ = [
    "KINDS",
    "TRACE_SCHEMA",
    "TraceRecord",
    "TraceLog",
    "dissemination_counts",
    "dissemination_meta",
]

#: The versioned record schema identifier stamped on every JSONL trace.
TRACE_SCHEMA = "repro.obs.trace/v1"

#: Every record kind: dissemination plane, membership plane, fault plane.
KINDS = (
    "publish",
    "send",
    "loss",
    "receive",
    "deliver",
    "join",
    "leave",
    "crash",
    "suspect",
    "exclude",
    "pull",
    "refresh",
    "fault_loss",
    "fault_delay",
    "fault_release",
    "fault_partition",
    "fault_heal",
    "fault_crash",
    "pull_request",
    "pull_reply",
    "view_shuffle",
    "recv",
    "timer_fire",
)

_KIND_SET = frozenset(KINDS)

#: Kinds whose ``peer`` is a destination (rendered ``->``).
_PEER_OUT = frozenset(
    (
        "send",
        "loss",
        "pull",
        "fault_loss",
        "fault_delay",
        "fault_release",
        "fault_partition",
        "fault_heal",
        "pull_request",
        "pull_reply",
    )
)
#: Kinds whose ``peer`` is a source or object (rendered ``<-``).
_PEER_IN = frozenset(("receive", "suspect", "view_shuffle", "recv"))


def dissemination_counts(
    producer: str,
    publisher: object,
    event_id: int,
    group_size: int,
    interested_count: int,
    publisher_interested: bool,
    seed: int,
) -> Dict[str, Any]:
    """:func:`dissemination_meta` without the ``interested`` list.

    What a producer at a scale where a million-address list has no place
    in a header writes (the sharded kernel): ``summarize`` reproduces
    the report's ratios from the counts and the records alone.
    """
    return {
        "producer": producer,
        "publisher": str(publisher),
        "event_id": event_id,
        "group_size": group_size,
        "interested_count": interested_count,
        "uninterested_count": group_size
        - interested_count
        - (0 if publisher_interested else 1),
        "publisher_interested": publisher_interested,
        "seed": seed,
    }


def dissemination_meta(
    producer: str,
    publisher: Address,
    event_id: int,
    group_size: int,
    interested: Collection[Address],
    seed: int,
) -> Dict[str, Any]:
    """The header a single-event dissemination run annotates its trace with.

    Carries what ``python -m repro.obs summarize`` needs to reproduce
    the run's report ratios — the interested ground truth before anybody
    crashed, with the publisher counted on neither side of the
    false-reception ratio.  Every execution style of one run (scalar
    engine, array kernel, event-driven runtimes) writes this same
    header, so offline tooling cannot tell the producers apart by it.
    """
    meta = dissemination_counts(
        producer,
        publisher,
        event_id,
        group_size,
        len(interested),
        publisher in interested,
        seed,
    )
    meta["interested"] = sorted(str(address) for address in interested)
    return meta


@dataclass(frozen=True)
class TraceRecord:
    """One protocol action.

    Attributes:
        round: the simulation round (0 = before the first round), or
            ``None`` for event-driven records that have no round — an
            asynchronous runtime must not fabricate one.  A round-less
            record is ordered by :attr:`time_us` instead.
        kind: one of :data:`KINDS`.
        process: the acting process (sender for sends/losses, receiver
            for receives/deliveries, publisher for publishes, the
            gossiper for pulls, the accuser for suspicions, the
            affected member for membership records).
        peer: the other end (destination for sends/losses, sender for
            receives, the pulled peer for pulls, the suspected process
            for suspicions; None otherwise).
        event_id: the event concerned (0 for membership records).
        depth: the Figure 3 depth the gossip was tagged with (0 where
            depth is not meaningful).
        value: a kind-specific magnitude — view lines updated for
            ``pull``, tables touched for ``refresh``, accusation count
            for ``exclude``, cause code for ``fault_loss`` (1 = burst,
            2 = partition), hold duration in rounds for
            ``fault_delay``; 0 elsewhere.
        time_us: microseconds since the run started (virtual or wall
            clock), the ordering key for event-driven records.  ``None``
            for purely round-keyed records.  Required when ``round`` is
            ``None``.
    """

    round: Optional[int]
    kind: str
    process: Address
    peer: Optional[Address]
    event_id: int
    depth: int
    value: int = 0
    time_us: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_SET:
            raise SimulationError(f"unknown trace kind {self.kind!r}")
        if self.round is None:
            if self.time_us is None:
                raise SimulationError(
                    f"round-less {self.kind!r} record needs time_us"
                )
        elif self.round < 0:
            raise SimulationError(f"negative round {self.round}")
        if self.time_us is not None and self.time_us < 0:
            raise SimulationError(f"negative time_us {self.time_us}")
        if self.depth < 0:
            raise SimulationError(f"negative depth {self.depth}")

    def render(self) -> str:
        """One human-readable line."""
        peer = f" -> {self.peer}" if self.kind in _PEER_OUT else (
            f" <- {self.peer}" if self.kind in _PEER_IN else ""
        )
        depth = f" @d{self.depth}" if self.depth else ""
        event = f" (event {self.event_id})" if self.event_id else ""
        value = f" [{self.value}]" if self.value else ""
        stamp = (
            f"{self.round:>4}" if self.round is not None
            else f"t+{self.time_us}us"
        )
        return (
            f"[{stamp}] {self.kind:<7} {self.process}{peer}"
            f"{depth}{event}{value}"
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (``value``/``time_us`` omitted when unset)."""
        out: Dict[str, object] = {
            "round": self.round,
            "kind": self.kind,
            "process": str(self.process),
            "peer": None if self.peer is None else str(self.peer),
            "event_id": self.event_id,
            "depth": self.depth,
        }
        if self.value:
            out["value"] = self.value
        if self.time_us is not None:
            out["time_us"] = self.time_us
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Raises:
            SimulationError: if required fields are missing or invalid.
        """
        try:
            peer = data.get("peer")
            round_value = data["round"]
            time_us = data.get("time_us")
            return cls(
                round=None if round_value is None else int(round_value),  # type: ignore[arg-type]
                kind=str(data["kind"]),
                process=Address.parse(str(data["process"])),
                peer=None if peer is None else Address.parse(str(peer)),
                event_id=int(data.get("event_id", 0)),  # type: ignore[arg-type]
                depth=int(data.get("depth", 0)),  # type: ignore[arg-type]
                value=int(data.get("value", 0)),  # type: ignore[arg-type]
                time_us=None if time_us is None else int(time_us),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed trace record {data!r}") from exc


class TraceLog:
    """An append-only log of :class:`TraceRecord` s, indexed by kind.

    The per-kind index is maintained incrementally, so :meth:`filter`
    by kind and :meth:`counts` never rescan the whole log.
    """

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []
        self._by_kind: Dict[str, List[TraceRecord]] = {}
        #: Run-level metadata carried into the JSONL header (see
        #: :meth:`annotate`): publisher, interest ground truth, final
        #: round count — whatever the producer knows and analyzers need.
        self.meta: Dict[str, object] = {}

    def record(
        self,
        round: Optional[int],
        kind: str,
        process: Address,
        peer: Optional[Address] = None,
        event_id: int = 0,
        depth: int = 0,
        value: int = 0,
        time_us: Optional[int] = None,
    ) -> None:
        """Validate and append one record.

        The kind is checked *before* the record is allocated: a typo'd
        probe fails fast without touching the log.
        """
        if kind not in _KIND_SET:
            raise SimulationError(f"unknown trace kind {kind!r}")
        self.append(
            TraceRecord(
                round, kind, process, peer, event_id, depth, value, time_us
            )
        )

    def append(self, record: TraceRecord) -> None:
        """Append an already-built record, maintaining the kind index."""
        self._records.append(record)
        per_kind = self._by_kind.get(record.kind)
        if per_kind is None:
            per_kind = self._by_kind[record.kind] = []
        per_kind.append(record)

    def annotate(self, **meta: object) -> None:
        """Merge run-level metadata into :attr:`meta`."""
        self.meta.update(meta)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def counts(self) -> Dict[str, int]:
        """Record count per kind (only kinds that occurred)."""
        return {
            kind: len(records)
            for kind, records in sorted(self._by_kind.items())
        }

    def filter(
        self,
        kind: Optional[str] = None,
        process: Optional[Address] = None,
        event_id: Optional[int] = None,
    ) -> List[TraceRecord]:
        """Records matching every given criterion.

        Filtering by ``kind`` starts from the per-kind index instead of
        scanning the full log.
        """
        if kind is not None:
            candidates = self._by_kind.get(kind, [])
        else:
            candidates = self._records
        return [
            record
            for record in candidates
            if (process is None or record.process == process)
            and (event_id is None or record.event_id == event_id)
        ]

    def render(self, limit: Optional[int] = None) -> str:
        """The timeline as text, optionally truncated to ``limit`` lines."""
        records = self._records if limit is None else self._records[:limit]
        lines = [record.render() for record in records]
        if limit is not None and len(self._records) > limit:
            lines.append(f"... {len(self._records) - limit} more records")
        return "\n".join(lines)
