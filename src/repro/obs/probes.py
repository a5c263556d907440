"""The :class:`Observer`: one handle bundling metrics and trace output.

Components that want to be observable take a single ``observer``
argument instead of separate registry/trace plumbing:

* :attr:`Observer.registry` hands out counters/gauges/histograms (the
  shared :data:`~repro.obs.registry.NULL_REGISTRY` when metrics are
  off);
* :meth:`Observer.emit` appends one :class:`~repro.obs.trace.
  TraceRecord` to the observer's one trace destination — an in-memory
  :class:`~repro.obs.trace.TraceLog` or a streaming
  :class:`~repro.obs.sink.JsonlSink`, both of which take ``append``
  and ``annotate`` — filtered through the optional
  :class:`~repro.obs.sampling.TraceSampler` first;
* :attr:`Observer.tracing` is the cheap guard hot loops check before
  assembling per-record arguments;
* :attr:`Observer.timeline` is the
  :class:`~repro.obs.timeline.TimelineRecorder` instrumented loops
  open wall-clock phase spans on (the shared
  :data:`~repro.obs.timeline.NULL_TIMELINE` when timing is off).

The module-level :data:`NULL_OBSERVER` is fully disabled: its registry
is the null registry and ``emit`` returns immediately.  Observation
never draws randomness, so an observed run is bit-identical to an
unobserved one — sampling decisions are SHA-256 of the record key, and
timelines only read the wall clock.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.addressing import Address
from repro.errors import ObservabilityError
from repro.obs.registry import MetricsRegistry, registry_or_null
from repro.obs.sampling import TraceSampler
from repro.obs.sink import JsonlSink
from repro.obs.timeline import NULL_TIMELINE, TimelineRecorder
from repro.obs.trace import TraceLog, TraceRecord

__all__ = ["Observer", "NULL_OBSERVER", "fold_shorthands"]


class Observer:
    """A metrics registry plus optional trace/timeline destinations.

    Args:
        registry: instrument store; ``None`` selects the shared null
            registry (all instruments no-op).
        trace: the destination receiving every record — an in-memory
            :class:`TraceLog` or a streaming :class:`JsonlSink`.
        sampler: an optional :class:`TraceSampler`; when set, a record
            reaches the destination only if its ``(kind, process,
            event_id)`` key survives the hash decision, and the
            sampling block is stamped into the destination's metadata
            so offline tooling can rescale.
        timeline: an optional :class:`TimelineRecorder` for wall-clock
            phase spans (out of band: never sampled, never traced);
            ``None`` selects the shared null timeline.
    """

    __slots__ = ("registry", "trace", "sampler", "timeline")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[Union[TraceLog, JsonlSink]] = None,
        sampler: Optional[TraceSampler] = None,
        timeline: Optional[TimelineRecorder] = None,
    ):
        self.registry = registry_or_null(registry)
        self.trace = trace
        self.sampler = sampler
        self.timeline = NULL_TIMELINE if timeline is None else timeline
        if sampler is not None and trace is not None:
            trace.annotate(sampling=sampler.meta())

    @property
    def tracing(self) -> bool:
        """True when a trace destination is attached."""
        return self.trace is not None

    @property
    def enabled(self) -> bool:
        """True when anything (metrics or tracing) is switched on."""
        return self.registry.enabled or self.tracing

    def emit(
        self,
        round: int,
        kind: str,
        process: Address,
        peer: Optional[Address] = None,
        event_id: int = 0,
        depth: int = 0,
        value: int = 0,
        time_us: Optional[int] = None,
    ) -> None:
        """Record one protocol action on the trace destination.

        The one place a running driver's record is built: hot loops
        read ``observer.emit if observer.tracing else None`` once and
        call that.
        """
        if self.trace is None:
            return
        if self.sampler is not None and not self.sampler.keep(
            kind, process, event_id
        ):
            return
        self.trace.append(
            TraceRecord(
                round, kind, process, peer, event_id, depth, value, time_us
            )
        )

    def annotate(self, **meta: object) -> None:
        """Attach run metadata to the trace destination."""
        if self.trace is not None:
            self.trace.annotate(**meta)


#: The shared disabled observer: the default for every component.
NULL_OBSERVER = Observer()


def fold_shorthands(
    observer: Optional[Observer],
    trace: Optional[TraceLog] = None,
    timeline: Optional[TimelineRecorder] = None,
) -> Observer:
    """The observer a driver runs under, its shorthands folded in.

    A few entry points still take ``trace=`` / ``timeline=`` beside
    ``observer=`` (the frozen ledger passes them); each calls this on
    its first line and from there on knows only the observer.  A
    shorthand is a destination the observer does not name yet — naming
    one twice is an error, not a precedence rule.
    """
    if observer is None:
        observer = NULL_OBSERVER
    if trace is None and timeline is None:
        return observer
    if trace is not None and observer.trace is not None:
        raise ObservabilityError(
            "trace= given twice: as an argument and on the observer"
        )
    if timeline is not None and observer.timeline is not NULL_TIMELINE:
        raise ObservabilityError(
            "timeline= given twice: as an argument and on the observer"
        )
    return Observer(
        registry=observer.registry,
        trace=observer.trace if trace is None else trace,
        sampler=observer.sampler,
        timeline=observer.timeline if timeline is None else timeline,
    )
