"""Tests for GETRATE (Figure 3, lines 28-33), the tuned audience and
the draw primitive a GOSSIP firing and a membership round consume."""

import random
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.addressing import Address, Prefix
from repro.core.rate import match_table, sample_positions, sample_positions_each
from repro.errors import ProtocolError
from repro.interests import Event, StaticInterest
from repro.membership import ViewRow, ViewTable


def table_with_flags(flags, redundancy=2):
    """An inner-depth table: one row per flag, R delegates each."""
    rows = []
    for infix, interested in enumerate(flags):
        delegates = tuple(
            Address((0, infix, index)) for index in range(redundancy)
        )
        rows.append(
            ViewRow(infix, delegates, StaticInterest(interested), 3)
        )
    return ViewTable(Prefix((0,)), 3, rows)


def leaf_table(flags):
    rows = [
        ViewRow(infix, (Address((0, 0, infix)),), StaticInterest(flag), 1)
        for infix, flag in enumerate(flags)
    ]
    return ViewTable(Prefix((0, 0)), 3, rows)


class TestMatchTable:
    def test_rate_counts_delegate_entries(self):
        table = table_with_flags([True, False, True, False])
        match = match_table(table, Event({}))
        # hits / (|view| * R) = 4 / 8
        assert match.rate == pytest.approx(0.5)
        assert match.natural_hits == 4
        assert match.total == 8

    def test_leaf_rate_counts_processes(self):
        table = leaf_table([True, False, False, False])
        match = match_table(table, Event({}))
        assert match.rate == pytest.approx(0.25)
        assert match.total == 4

    def test_matching_set_is_row_based(self):
        table = table_with_flags([True, False])
        match = match_table(table, Event({}))
        assert Address((0, 0, 0)) in match.matching
        assert Address((0, 0, 1)) in match.matching
        assert Address((0, 1, 0)) not in match.matching

    def test_entries_in_view_order(self):
        table = table_with_flags([True, True])
        match = match_table(table, Event({}))
        assert match.entries == (
            Address((0, 0, 0)),
            Address((0, 0, 1)),
            Address((0, 1, 0)),
            Address((0, 1, 1)),
        )

    def test_zero_rate(self):
        table = table_with_flags([False, False])
        match = match_table(table, Event({}))
        assert match.rate == 0.0
        assert match.matching == frozenset()

    def test_empty_table_rejected(self):
        table = ViewTable(Prefix((0,)), 3, [])
        with pytest.raises(ProtocolError):
            match_table(table, Event({}))

    def test_negative_threshold_rejected(self):
        table = table_with_flags([True])
        with pytest.raises(ProtocolError):
            match_table(table, Event({}), threshold_h=-1)


class TestTunedMatching:
    def test_inflation_below_threshold(self):
        # One interested row out of four; h=3 conscripts the first 3
        # entries of the view in addition.
        table = table_with_flags([False, False, True, False])
        match = match_table(table, Event({}), threshold_h=3)
        assert match.inflated
        assert match.natural_hits == 2          # one row, R=2 delegates
        # First 3 entries: (0,0,0), (0,0,1), (0,1,0) plus row-2 matches.
        assert Address((0, 0, 0)) in match.matching
        assert Address((0, 1, 0)) in match.matching
        assert Address((0, 2, 0)) in match.matching
        assert len(match.matching) == 5
        assert match.rate == pytest.approx(5 / 8)

    def test_no_inflation_at_or_above_threshold(self):
        table = table_with_flags([True, True, False])
        match = match_table(table, Event({}), threshold_h=3)
        # natural_hits = 4 >= h = 3: untouched.
        assert not match.inflated
        assert match.rate == pytest.approx(4 / 6)

    def test_inflation_is_deterministic_view_order(self):
        # "the h first processes in its view" — all subgroup members
        # inflate identically without agreement.
        table_a = table_with_flags([False, False, False])
        table_b = table_with_flags([False, False, False])
        match_a = match_table(table_a, Event({}), threshold_h=2)
        match_b = match_table(table_b, Event({}), threshold_h=2)
        assert match_a.matching == match_b.matching

    def test_zero_threshold_disables_tuning(self):
        table = table_with_flags([False, False])
        match = match_table(table, Event({}), threshold_h=0)
        assert not match.inflated
        assert match.rate == 0.0

    def test_rate_propagates_inflated_audience(self):
        table = table_with_flags([False] * 6)
        match = match_table(table, Event({}), threshold_h=4)
        assert match.rate == pytest.approx(4 / 12)


class _RandomOnly(random.Random):
    """Overrides ``random()`` alone: CPython then draws integers by
    ``_randbelow_without_getrandbits``, a different stream."""

    def random(self):
        return super().random()


class _OwnBits(random.Random):
    """Overrides ``getrandbits``: CPython keeps
    ``_randbelow_with_getrandbits`` over the override."""

    def getrandbits(self, k):
        return super().getrandbits(k) ^ ((1 << k) - 1)


seeds = st.integers(0, 2**64)


class TestDrawPrimitive:
    """``sample_positions_each`` inlines CPython's
    ``_randbelow_with_getrandbits``: same values, same final state as
    ``random.Random`` one call at a time.  At ``k = 1`` it is
    ``_randbelow`` for each size (a membership round's peer draws);
    ``sample_positions`` is its one-size call."""

    @settings(max_examples=300, deadline=None)
    @given(seed=seeds, n=st.integers(0, 5000), data=st.data())
    def test_sample_positions_is_random_sample(self, seed, n, data):
        k = data.draw(st.integers(0, min(n, 12)), label="k")
        reference, rng = random.Random(seed), random.Random(seed)
        assert sample_positions(rng, n, k) == reference.sample(range(n), k)
        assert rng.getstate() == reference.getstate()

    @settings(max_examples=300, deadline=None)
    @given(
        seed=seeds,
        # Both sides of the pool / selection-set switch (setsize is 21
        # up to k = 5 and grows past it).
        sizes=st.lists(
            st.one_of(st.integers(1, 30), st.integers(1, 300)), max_size=40
        ),
        k=st.integers(0, 8),
    )
    @example(seed=0, sizes=[65, 66, 21, 22, 65, 21, 66, 22], k=3)
    def test_each_is_one_random_sample_per_size(self, seed, sizes, k):
        reference, rng = random.Random(seed), random.Random(seed)
        expected = list(
            chain.from_iterable(
                reference.sample(range(n), min(k, n)) for n in sizes
            )
        )
        assert sample_positions_each(rng, sizes, k) == expected
        assert rng.getstate() == reference.getstate()

    @settings(max_examples=300, deadline=None)
    @given(
        seed=seeds,
        sizes=st.lists(
            st.one_of(st.integers(1, 40), st.integers(1, 2**70)), max_size=60
        ),
    )
    def test_randbelow_each_is_sequential_randbelow(self, seed, sizes):
        reference, rng = random.Random(seed), random.Random(seed)
        expected = [reference._randbelow(size) for size in sizes]
        assert sample_positions_each(rng, sizes, 1) == expected
        assert rng.getstate() == reference.getstate()

    @settings(max_examples=50, deadline=None)
    @given(seed=seeds, sizes=st.lists(st.integers(1, 100), max_size=20))
    def test_an_overridden_getrandbits_is_drawn_from(self, seed, sizes):
        reference, rng = _OwnBits(seed), _OwnBits(seed)
        assert sample_positions_each(rng, sizes, 1) == [
            reference._randbelow(s) for s in sizes
        ]
        assert sample_positions(rng, 50, 4) == reference.sample(range(50), 4)

    def test_a_random_only_class_is_refused(self):
        rng = _RandomOnly(0)
        assert type(rng)._randbelow is not random.Random._randbelow
        state = rng.getstate()
        with pytest.raises(TypeError):
            sample_positions(rng, 10, 3)
        with pytest.raises(TypeError):
            sample_positions_each(rng, [3, 4], 1)
        with pytest.raises(TypeError):
            sample_positions_each(rng, [30, 4], 3)
        with pytest.raises(TypeError):
            sample_positions_each(object(), [3], 1)
        assert rng.getstate() == state

    @pytest.mark.parametrize("sizes", [[0], [4, 0, 2], [3, -1]])
    def test_randbelow_each_rejects_sizes_below_one(self, sizes):
        rng = random.Random(0)
        state = rng.getstate()
        for k in (1, 3):
            with pytest.raises(ValueError):
                sample_positions_each(rng, sizes, k)
        assert rng.getstate() == state

    def test_no_sizes_draw_nothing(self):
        rng = random.Random(0)
        state = rng.getstate()
        assert sample_positions_each(rng, [], 1) == []
        assert sample_positions_each(rng, [], 3) == []
        assert rng.getstate() == state
