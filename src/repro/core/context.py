"""Per-run gossip context: randomness plus memoized table matching.

Matching an event against a whole view table "is a costly operation"
(§3.3); within one dissemination the result is identical for every
process sharing the table, so the context memoizes
:func:`repro.core.rate.match_table`.  This is a cache of a
deterministic function — semantics are unchanged.

The cache has two layers, with different lifetimes:

* **Verdict layer** — ``(interest.fingerprint(), event_id) -> bool``.
  A verdict depends only on the interest's *structure* and the event,
  so it survives membership churn: when a join rebuilds every table on
  a prefix path, the regrouped interests in the new rows are almost all
  structurally unchanged, and their verdicts are served from cache.
* **Table layer** — ``table.cache_token -> {event_id -> TableMatch}``.
  A :class:`~repro.core.rate.TableMatch` embeds the table's delegate
  list, so it dies with the table *state*: any mutation advances
  :attr:`~repro.membership.views.ViewTable.cache_token` and thereby
  invalidates only that table's entries — churn on one prefix path no
  longer cold-starts matching for the whole group.  The Figure 3 line 7
  round bounds are memoized on the match itself
  (:meth:`~repro.core.rate.TableMatch.round_bound`), so they share this
  lifetime.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.rate import TableMatch, match_table
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.membership.views import ViewTable
from repro.obs.registry import MetricsRegistry

__all__ = ["CacheStats", "GossipContext"]

_MISS = object()


@dataclass
class CacheStats:
    """Counters for the two match-cache layers (inspection only).

    ``table_*`` counts :meth:`GossipContext.table_match` lookups;
    ``verdict_*`` counts per-interest verdicts evaluated while filling
    table misses.  ``invalidations`` counts explicit invalidation calls
    (global or per-table); ``invalidation_causes`` breaks the
    membership-driven ones down by what triggered them (``join`` /
    ``leave`` / ``crash`` / ``interest-update``), as reported via
    :meth:`GossipContext.note_invalidation`.
    """

    table_hits: int = 0
    table_misses: int = 0
    verdict_hits: int = 0
    verdict_misses: int = 0
    invalidations: int = 0
    invalidation_causes: Dict[str, int] = field(default_factory=dict)

    @property
    def table_hit_rate(self) -> float:
        """Fraction of table lookups served from cache (0.0 when idle)."""
        total = self.table_hits + self.table_misses
        return self.table_hits / total if total else 0.0

    @property
    def verdict_hit_rate(self) -> float:
        """Fraction of interest verdicts served from cache."""
        total = self.verdict_hits + self.verdict_misses
        return self.verdict_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """A plain-dict snapshot (benchmark reports, logging)."""
        return {
            "table_hits": self.table_hits,
            "table_misses": self.table_misses,
            "table_hit_rate": round(self.table_hit_rate, 4),
            "verdict_hits": self.verdict_hits,
            "verdict_misses": self.verdict_misses,
            "verdict_hit_rate": round(self.verdict_hit_rate, 4),
            "invalidations": self.invalidations,
            "invalidation_causes": dict(self.invalidation_causes),
        }


class GossipContext:
    """Shared state for one group of gossiping nodes.

    Args:
        rng: the random stream used for destination selection.
        threshold_h: the §5.3 tuning threshold applied by every node
            (a group-wide parameter: all processes of a subgroup must
            inflate identically for the tuning to be consistent).
        registry: an optional :class:`~repro.obs.registry.
            MetricsRegistry`; when given, the live :class:`CacheStats`
            are published under the ``match_cache`` subsystem via a
            snapshot collector — no per-hit double bookkeeping, and
            harnesses read the counters from the registry instead of
            scraping ``cache_stats`` off the context.
    """

    def __init__(
        self,
        rng: random.Random,
        threshold_h: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.rng = rng
        self._threshold_h = threshold_h
        # id(table) -> (cache_token, {event_id -> TableMatch}).
        # The token check makes a recycled id harmless — a different
        # table (or a mutated state of this one) never token-matches.
        self._tables: Dict[int, Tuple[int, Dict[int, TableMatch]]] = {}
        # (interest fingerprint, event_id) -> verdict.
        self._verdicts: Dict[Tuple[int, int], bool] = {}
        self._stats = CacheStats()
        if registry is not None:
            registry.register_collector(
                "match_cache", self._stats.as_dict
            )

    def fork(self, rng: random.Random) -> "GossipContext":
        """A sibling sharing this context's match cache, owning ``rng``.

        For drivers whose processes do not share a random stream (the
        UDP runtime): table matches (round bounds included), verdicts
        and their counters depend only on (table state, event), never
        on who asks, so every process of a run reads and fills the same
        memos while drawing destinations from its own stream.
        """
        sibling = copy.copy(self)
        sibling.rng = rng
        return sibling

    @property
    def cache_stats(self) -> CacheStats:
        """Live hit/miss counters for both cache layers."""
        return self._stats

    def _verdict(self, interest: Interest, event: Event) -> bool:
        key = (interest.fingerprint(), event.event_id)
        cached = self._verdicts.get(key, _MISS)
        if cached is _MISS:
            self._stats.verdict_misses += 1
            cached = interest.matches(event)
            self._verdicts[key] = cached
        else:
            self._stats.verdict_hits += 1
        return cached

    def table_match(self, table: ViewTable, event: Event) -> TableMatch:
        """Memoized ``match_table(table, event, threshold_h)``."""
        token = table.cache_token
        entry = self._tables.get(id(table))
        if entry is None or entry[0] != token:
            entry = (token, {})
            self._tables[id(table)] = entry
        per_event = entry[1]
        match = per_event.get(event.event_id)
        if match is None:
            self._stats.table_misses += 1
            match = match_table(
                table, event, self._threshold_h, verdict=self._verdict
            )
            per_event[event.event_id] = match
        else:
            self._stats.table_hits += 1
        return match

    def invalidate_table(self, table: ViewTable) -> None:
        """Drop memos for one table only.

        With token keying this is belt-and-braces — a mutated table
        already misses — but it lets long-lived runs release entries
        for tables being discarded outright.
        """
        self._stats.invalidations += 1
        self._tables.pop(id(table), None)

    def note_invalidation(self, cause: str) -> None:
        """Attribute a membership-driven cache invalidation to a cause.

        The runtime reports why it is refreshing views (``join`` /
        ``leave`` / ``crash`` / ``interest-update``); the breakdown
        surfaces in the ``match_cache`` registry snapshot so a run's
        cache churn can be traced back to the churn plane driving it.
        Purely observational: no cache entries are touched here.
        """
        causes = self._stats.invalidation_causes
        causes[cause] = causes.get(cause, 0) + 1
