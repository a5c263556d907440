"""Order-independent merging of per-worker metric deltas.

The executor's join point receives one :data:`~repro.par.worker.
MetricsDelta` per completed chunk, in *completion* order — which under
a process pool is nondeterministic.  Every merge operation here is
therefore commutative and associative:

* **counters** add;
* **histograms** add bucket-wise (:meth:`repro.obs.registry.Histogram.
  merge`);
* **gauges** take the maximum — "last write wins" would re-introduce
  scheduling order, and for the level-style gauges trial code records
  (peak buffer sizes, widest round counts) the maximum is the honest
  cross-worker aggregate.

Merging the same deltas in any order into a fresh registry yields the
same :meth:`~repro.obs.registry.MetricsRegistry.snapshot`, which is
what makes ``jobs=N`` metric reports comparable with ``jobs=1`` runs.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.registry import MetricsRegistry
from repro.par.worker import MetricsDelta

__all__ = ["merge_delta", "merge_deltas"]


def merge_delta(registry: MetricsRegistry, delta: MetricsDelta) -> None:
    """Fold one worker delta into ``registry``."""
    for (subsystem, name), value in delta.get("counters", {}).items():
        registry.counter(subsystem, name).inc(value)  # type: ignore[arg-type]
    for (subsystem, name), value in delta.get("gauges", {}).items():
        gauge = registry.gauge(subsystem, name)
        gauge.set(max(gauge.value, value))  # type: ignore[type-var]
    for (subsystem, name), snapshot in delta.get("histograms", {}).items():
        histogram = registry.histogram(
            subsystem, name, bounds=tuple(snapshot["bounds"])
        )
        histogram.merge(snapshot)


def merge_deltas(
    registry: MetricsRegistry, deltas: Iterable[MetricsDelta]
) -> MetricsRegistry:
    """Fold many worker deltas into ``registry`` and return it."""
    for delta in deltas:
        merge_delta(registry, delta)
    return registry
