"""The instrumentation registry: counters, gauges, histograms.

Probabilistic protocols are debugged with *numbers*: how many pulls a
membership round performed, how often the digest fast path fired, how
many match-cache lookups hit.  Before this module those counters were
scattered ad-hoc attributes (``CacheStats``, ``active_count``) scraped
via ``getattr`` duck-typing; the registry makes them first-class.

Design constraints, in order:

1. **Zero perturbation.**  Instruments never touch randomness, so an
   instrumented run is bit-identical to an uninstrumented one (the
   golden-seed tests pin this).
2. **Near-zero overhead when disabled.**  :data:`NULL_REGISTRY` hands
   out shared no-op instruments; a hot loop holding a ``Counter``
   reference pays one no-op method call, nothing else.
3. **No double bookkeeping.**  Subsystems that already maintain live
   counters (e.g. :class:`~repro.core.context.CacheStats`) register a
   *collector* — a callable returning a snapshot dict — instead of
   mirroring every increment.

Instruments are labeled ``(subsystem, name)``; :meth:`MetricsRegistry.
snapshot` rolls everything up into a plain nested dict for reports,
JSON output and benchmark harnesses.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
]

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("subsystem", "name", "_value")

    def __init__(self, subsystem: str, name: str):
        self.subsystem = subsystem
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.subsystem}.{self.name}={self._value})"


class Gauge:
    """A value that goes up and down (sizes, levels, last-seen)."""

    __slots__ = ("subsystem", "name", "_value")

    def __init__(self, subsystem: str, name: str):
        self.subsystem = subsystem
        self.name = name
        self._value: Number = 0

    def set(self, value: Number) -> None:
        """Record the current level."""
        self._value = value

    @property
    def value(self) -> Number:
        """The current level."""
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.subsystem}.{self.name}={self._value})"


#: Default histogram bucket upper bounds: 1..64 rounds-ish, powers of 2.
DEFAULT_BOUNDS = (1, 2, 4, 8, 16, 32, 64)


class Histogram:
    """A fixed-bucket histogram (e.g. delivery latency in rounds).

    ``bounds`` are inclusive upper bounds of the finite buckets; one
    overflow bucket catches everything beyond the last bound.
    """

    __slots__ = ("subsystem", "name", "bounds", "_counts", "_count", "_sum")

    def __init__(
        self,
        subsystem: str,
        name: str,
        bounds: Sequence[Number] = DEFAULT_BOUNDS,
    ):
        if not bounds or list(bounds) != sorted(bounds):
            raise ObservabilityError(
                f"histogram bounds must be non-empty and sorted: {bounds!r}"
            )
        self.subsystem = subsystem
        self.name = name
        self.bounds = tuple(bounds)
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum: Number = 0

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self._count += 1
        self._sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self._counts[index] += 1
                return
        self._counts[-1] += 1

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def as_dict(self) -> Dict[str, object]:
        """A plain-dict snapshot."""
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": round(self.mean, 4),
            "bounds": list(self.bounds),
            "buckets": list(self._counts),
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({self.subsystem}.{self.name} "
            f"count={self._count} mean={self.mean:.2f})"
        )


class MetricsRegistry:
    """Get-or-create instrument store, labeled by ``(subsystem, name)``.

    Asking twice for the same label returns the same instrument, so any
    number of components may share a counter without coordination.
    Asking for an existing label with a different instrument type is an
    error — silent aliasing would corrupt both series.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str], object] = {}
        self._collectors: Dict[str, Callable[[], Dict[str, object]]] = {}

    def _get_or_create(self, kind: type, subsystem: str, name: str, *args):
        key = (subsystem, name)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = kind(subsystem, name, *args)
            self._instruments[key] = instrument
        elif type(instrument) is not kind:
            raise ObservabilityError(
                f"{subsystem}.{name} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, subsystem: str, name: str) -> Counter:
        """The counter labeled ``(subsystem, name)``, created on demand."""
        return self._get_or_create(Counter, subsystem, name)

    def gauge(self, subsystem: str, name: str) -> Gauge:
        """The gauge labeled ``(subsystem, name)``, created on demand."""
        return self._get_or_create(Gauge, subsystem, name)

    def histogram(
        self,
        subsystem: str,
        name: str,
        bounds: Sequence[Number] = DEFAULT_BOUNDS,
    ) -> Histogram:
        """The histogram labeled ``(subsystem, name)``, created on demand."""
        return self._get_or_create(Histogram, subsystem, name, bounds)

    def register_collector(
        self, subsystem: str, collect: Callable[[], Dict[str, object]]
    ) -> None:
        """Register a live-state snapshot source for ``subsystem``.

        ``collect()`` is called at :meth:`snapshot` time and its dict is
        merged under the subsystem key — the way components with their
        own internal counters (cache stats, active sets) publish them
        without double bookkeeping.  Re-registering a subsystem replaces
        its collector (a rebuilt component supersedes the old one).
        """
        self._collectors[subsystem] = collect

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Roll every instrument and collector up into nested dicts."""
        out: Dict[str, Dict[str, object]] = {}
        for (subsystem, name), instrument in sorted(self._instruments.items()):
            bucket = out.setdefault(subsystem, {})
            if isinstance(instrument, Histogram):
                bucket[name] = instrument.as_dict()
            else:
                bucket[name] = instrument.value  # type: ignore[attr-defined]
        for subsystem, collect in sorted(self._collectors.items()):
            out.setdefault(subsystem, {}).update(collect())
        return out


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: Number) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The disabled registry: shared no-op counters and histograms.

    Handing out one shared instrument per type keeps the disabled path
    allocation-free: a component may create its instruments in a loop
    without ever growing memory, and every ``inc``/``observe`` is a
    single no-op method call.  Gauges are asked for only under
    ``registry.enabled``.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null", "counter")
        self._histogram = _NullHistogram("null", "histogram")

    def counter(self, subsystem: str, name: str) -> Counter:
        return self._counter

    def histogram(
        self,
        subsystem: str,
        name: str,
        bounds: Sequence[Number] = DEFAULT_BOUNDS,
    ) -> Histogram:
        return self._histogram

    def register_collector(
        self, subsystem: str, collect: Callable[[], Dict[str, object]]
    ) -> None:
        pass


#: The shared disabled registry: the default everywhere.
NULL_REGISTRY = NullRegistry()


def registry_or_null(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """``registry`` if given, else the shared null registry."""
    return NULL_REGISTRY if registry is None else registry
