"""Tests for the memoizing GossipContext."""

import random

from repro.addressing import Address, Prefix
from repro.core import GossipContext
from repro.interests import Event, StaticInterest
from repro.membership import ViewRow, ViewTable


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

    def test_round_bound_memo_per_table_state(self):
        context = GossipContext(random.Random(0))
        table = make_table()
        calls = []
        bound = context.round_bound_memo(
            table, 1.0, "cfg", lambda: calls.append(1) or 7
        )
        again = context.round_bound_memo(
            table, 1.0, "cfg", lambda: calls.append(1) or 7
        )
        assert bound == again == 7
        assert len(calls) == 1
        table.upsert(
            ViewRow(9, (Address((0, 9)),), StaticInterest(True), 1)
        )
        context.round_bound_memo(
            table, 1.0, "cfg", lambda: calls.append(1) or 9
        )
        assert len(calls) == 2


class TestFork:
    def test_siblings_share_the_match_cache(self):
        root = GossipContext(random.Random(0), threshold_h=4)
        left = root.fork(random.Random(1))
        right = root.fork(random.Random(2))
        table = make_table()
        event = Event({})
        match = left.table_match(table, event)
        assert right.table_match(table, event) is match
        assert root.table_match(table, event) is match
        assert match.inflated                   # the threshold came along
        calls = []
        for context in (left, right, root):
            bound = context.round_bound_memo(
                table, 1.0, "cfg", lambda: calls.append(1) or 7
            )
            assert bound == 7
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
