"""Tests for the memoizing GossipContext."""

import random

from repro.addressing import Address, Prefix
from repro.config import PmcastConfig
from repro.core import GossipContext, rate
from repro.interests import Event, StaticInterest
from repro.membership import ViewRow, ViewTable

CONFIG = PmcastConfig(fanout=2, redundancy=1)


def make_table():
    rows = [
        ViewRow(i, (Address((0, i)),), StaticInterest(i % 2 == 0), 1)
        for i in range(4)
    ]
    return ViewTable(Prefix((0,)), 2, rows)


class TestGossipContext:
    def test_match_is_cached(self):
        context = GossipContext(random.Random(0))
        table = make_table()
        event = Event({})
        first = context.table_match(table, event)
        second = context.table_match(table, event)
        assert first is second

    def test_distinct_events_not_conflated(self):
        context = GossipContext(random.Random(0))
        table = make_table()
        a = context.table_match(table, Event({}))
        b = context.table_match(table, Event({}))
        assert a is not b          # different event ids

    def test_threshold_applied(self):
        context = GossipContext(random.Random(0), threshold_h=4)
        table = make_table()
        match = context.table_match(table, Event({}))
        assert match.inflated
        assert len(match.matching) == 4


class TestKeyedCache:
    def test_mutation_invalidates_without_global_invalidate(self):
        context = GossipContext(random.Random(0))
        table = make_table()
        event = Event({})
        first = context.table_match(table, event)
        table.upsert(
            ViewRow(9, (Address((0, 9)),), StaticInterest(True), 1)
        )
        fresh = context.table_match(table, event)
        assert fresh is not first
        assert Address((0, 9)) in fresh.matching

    def test_in_place_replace_cannot_serve_stale_match(self):
        """The id()-reuse hazard, pinned deterministically.

        ``replace_rows`` reuses the very same object (same ``id``) for
        entirely new content — the strongest form of identity reuse a
        recycled allocation could produce.  The cache must miss.
        """
        new_rows = [
            ViewRow(7, (Address((0, 7)),), StaticInterest(True), 1)
        ]
        event = Event({})

        keyed = GossipContext(random.Random(0))
        table = make_table()
        stale = keyed.table_match(table, event)
        table.replace_rows(new_rows)
        fresh = keyed.table_match(table, event)
        assert fresh is not stale
        assert fresh.matching == {Address((0, 7))}

    def test_verdicts_survive_churn_and_invalidate(self):
        context = GossipContext(random.Random(0))
        table = make_table()
        event = Event({})
        context.table_match(table, event)
        misses = context.cache_stats.verdict_misses
        # A structurally identical table (fresh object, fresh token)
        # reuses every interest verdict.
        rebuilt = make_table()
        context.table_match(rebuilt, event)
        assert context.cache_stats.verdict_misses == misses
        assert context.cache_stats.verdict_hits > 0

    def test_negative_verdicts_are_cached(self):
        context = GossipContext(random.Random(0))
        rows = [
            ViewRow(0, (Address((0, 0)),), StaticInterest(False), 1)
        ]
        table = ViewTable(Prefix((0,)), 2, rows)
        event = Event({})
        context.table_match(table, event)
        table.upsert(rows[0].with_timestamp(1))
        context.table_match(table, event)
        # The False verdict must hit on the second lookup; a falsy-vs-
        # missing confusion would recount it as a miss.
        assert context.cache_stats.verdict_misses == 1
        assert context.cache_stats.verdict_hits == 1

    def test_cache_stats_counters(self):
        context = GossipContext(random.Random(0))
        table = make_table()
        event = Event({})
        context.table_match(table, event)
        context.table_match(table, event)
        stats = context.cache_stats
        assert stats.table_misses == 1
        assert stats.table_hits == 1
        assert stats.table_hit_rate == 0.5
        snapshot = stats.as_dict()
        assert snapshot["table_hits"] == 1
        assert snapshot["invalidations"] == 0

    def test_round_bound_memo_per_table_state(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            rate, "depth_round_bound", lambda *args: calls.append(args) or 7
        )
        context = GossipContext(random.Random(0))
        table = make_table()
        event = Event({})
        match = context.table_match(table, event)
        assert match.round_bound(1.0, CONFIG) == 7
        assert context.table_match(table, event).round_bound(1.0, CONFIG) == 7
        assert calls == [(4, 1.0, CONFIG)]
        match.round_bound(0.5, CONFIG)
        assert len(calls) == 2                  # one entry per rate
        table.upsert(
            ViewRow(9, (Address((0, 9)),), StaticInterest(True), 1)
        )
        context.table_match(table, event).round_bound(1.0, CONFIG)
        assert calls[-1] == (5, 1.0, CONFIG)    # a new table state


class TestFork:
    def test_siblings_share_the_match_cache(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            rate, "depth_round_bound", lambda *args: calls.append(args) or 7
        )
        root = GossipContext(random.Random(0), threshold_h=4)
        left = root.fork(random.Random(1))
        right = root.fork(random.Random(2))
        table = make_table()
        event = Event({})
        left_match, right_match, root_match = (
            context.table_match(table, event)
            for context in (left, right, root)
        )
        match = left_match
        assert right_match is match and root_match is match
        assert match.inflated                   # the threshold came along
        # The round bounds ride on the shared match: computed once.
        for sibling_match in (left_match, right_match, root_match):
            assert sibling_match.round_bound(1.0, CONFIG) == 7
        assert len(calls) == 1
        # A structurally identical table: every verdict is a shared hit.
        verdict_misses = root.cache_stats.verdict_misses
        right.table_match(make_table(), event)
        stats = root.cache_stats
        assert stats is left.cache_stats is right.cache_stats
        assert (stats.table_misses, stats.table_hits) == (2, 2)
        assert stats.verdict_misses == verdict_misses
        # Invalidation through one sibling is seen by the others.
        left.invalidate_table(table)
        assert right.table_match(table, event) is not match

    def test_siblings_never_share_a_stream(self):
        root = GossipContext(random.Random(0))
        mine, theirs = random.Random(1), random.Random(2)
        left, right = root.fork(mine), root.fork(theirs)
        assert left.rng is mine and right.rng is theirs
        assert root.rng is not mine and root.rng is not theirs
        before = (root.rng.getstate(), theirs.getstate())
        left.rng.random()
        assert (root.rng.getstate(), theirs.getstate()) == before
