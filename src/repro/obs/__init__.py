"""repro.obs — the unified observability layer.

pmcast's guarantees are probabilistic; debugging a missed delivery or a
false reception means seeing which delegate gossiped at which depth,
which membership round repaired which view, and which cache served
which match.  This subpackage is that substrate:

* :mod:`repro.obs.registry` — counters/gauges/histograms labeled by
  subsystem, with a zero-overhead null implementation
  (:data:`NULL_REGISTRY`) when disabled;
* :mod:`repro.obs.trace` — the versioned record schema
  (:data:`TRACE_SCHEMA`) and the in-memory, kind-indexed
  :class:`TraceLog`;
* :mod:`repro.obs.probes` — the :class:`Observer` handle components
  take to emit records and counters through one argument, into one
  trace destination (a ``TraceLog`` or a ``JsonlSink``);
* :mod:`repro.obs.sink` — the streaming JSONL :class:`JsonlSink`, the
  :func:`read_trace` loader and schema validation;
* :mod:`repro.obs.sampling` — deterministic hash-based trace sampling
  (:class:`TraceSampler`), so million-member kernels emit
  O(rate · n · rounds) records with bit-identical sampled subsets at
  any worker count;
* :mod:`repro.obs.timeline` — the ``repro.obs.timeline/v1`` wall-clock
  phase-span schema (:class:`TimelineRecorder`) plus RSS probes,
  strictly out of band;
* :mod:`repro.obs.cli` — ``python -m repro.obs
  summarize|diff|validate|render`` for offline analysis.

See ``docs/OBSERVABILITY.md`` for the record schema and examples.
"""

from repro.obs.probes import NULL_OBSERVER, Observer
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.sampling import (
    SAMPLING_SCHEME,
    TraceSampler,
    keep_mask,
    rescale,
)
from repro.obs.sink import (
    JsonlSink,
    open_text,
    read_trace,
    validate_trace,
)
from repro.obs.timeline import (
    NULL_SPAN,
    NULL_TIMELINE,
    TIMELINE_SCHEMA,
    TimelineRecorder,
    load_timeline,
)
from repro.obs.trace import KINDS, TRACE_SCHEMA, TraceLog, TraceRecord

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Observer",
    "NULL_OBSERVER",
    "JsonlSink",
    "open_text",
    "read_trace",
    "validate_trace",
    "SAMPLING_SCHEME",
    "TraceSampler",
    "keep_mask",
    "rescale",
    "NULL_SPAN",
    "NULL_TIMELINE",
    "TIMELINE_SCHEMA",
    "TimelineRecorder",
    "load_timeline",
    "KINDS",
    "TRACE_SCHEMA",
    "TraceLog",
    "TraceRecord",
]
