"""Tests for per-depth view tables (§2.3, Figure 2)."""

import pytest

from repro.addressing import Address, Prefix
from repro.errors import MembershipError
from repro.interests import Event, StaticInterest, Subscription, gt
from repro.membership import ViewRow, ViewTable


def row(infix, delegates, interested=True, count=3, timestamp=0):
    return ViewRow(
        infix=infix,
        delegates=tuple(Address(d) for d in delegates),
        interest=StaticInterest(interested),
        process_count=count,
        timestamp=timestamp,
    )


class TestViewRow:
    def test_validation(self):
        with pytest.raises(MembershipError):
            ViewRow(-1, (Address((1, 1)),), StaticInterest(True), 1)
        with pytest.raises(MembershipError):
            ViewRow(0, (), StaticInterest(True), 1)
        with pytest.raises(MembershipError):
            ViewRow(0, (Address((1, 1)),), StaticInterest(True), 0)

    def test_with_timestamp(self):
        fresh = row(1, [(1, 0)]).with_timestamp(9)
        assert fresh.timestamp == 9


class TestViewTable:
    def make_table(self):
        return ViewTable(
            Prefix((1,)),
            tree_depth=3,
            rows=[
                row(0, [(1, 0, 0), (1, 0, 1)], interested=True),
                row(1, [(1, 1, 0), (1, 1, 1)], interested=False),
                row(2, [(1, 2, 0), (1, 2, 1)], interested=True),
            ],
        )

    def test_row_and_entry_counts(self):
        table = self.make_table()
        assert table.row_count == 3
        assert table.entry_count == 6
        assert len(table) == 3

    def test_depth_properties(self):
        table = self.make_table()
        assert table.depth == 2
        assert not table.is_leaf_level
        leaf = ViewTable(Prefix((1, 2)), 3, [row(0, [(1, 2, 0)], count=1)])
        assert leaf.is_leaf_level

    def test_rows_sorted_by_infix(self):
        table = ViewTable(
            Prefix((1,)),
            3,
            rows=[row(2, [(1, 2, 0)]), row(0, [(1, 0, 0)])],
        )
        assert [r.infix for r in table.rows()] == [0, 2]

    def test_duplicate_infix_rejected(self):
        with pytest.raises(MembershipError):
            ViewTable(
                Prefix((1,)), 3, rows=[row(0, [(1, 0, 0)]), row(0, [(1, 0, 1)])]
            )

    def test_prefix_depth_must_fit_tree(self):
        with pytest.raises(MembershipError):
            ViewTable(Prefix((1, 2, 3)), 3)

    def test_entries_flatten_delegates_with_rows(self):
        table = self.make_table()
        entries = table.entries()
        assert len(entries) == 6
        assert entries[0][0] == Address((1, 0, 0))
        assert entries[0][1].infix == 0

    def test_matching_rows(self):
        table = self.make_table()
        matching = table.matching_rows(Event({}))
        assert [r.infix for r in matching] == [0, 2]

    def test_row_access_and_discard(self):
        table = self.make_table()
        assert table.row(1).infix == 1
        table.discard(1)
        assert not table.has_row(1)
        with pytest.raises(MembershipError):
            table.row(1)

    def test_upsert_replaces(self):
        table = self.make_table()
        table.upsert(row(1, [(1, 1, 5)], timestamp=7))
        assert table.row(1).timestamp == 7
        assert table.row(1).delegates == (Address((1, 1, 5)),)

    def test_digest(self):
        table = ViewTable(
            Prefix((1,)),
            3,
            rows=[row(0, [(1, 0, 0)], timestamp=4), row(1, [(1, 1, 0)])],
        )
        assert table.digest() == {0: 4, 1: 0}

    def test_clone_is_independent(self):
        table = self.make_table()
        clone = table.clone()
        clone.discard(0)
        assert table.has_row(0)

    def test_content_based_rows(self):
        table = ViewTable(
            Prefix((1, 2)),
            3,
            rows=[
                ViewRow(0, (Address((1, 2, 0)),), Subscription({"b": gt(3)}), 1),
                ViewRow(1, (Address((1, 2, 1)),), Subscription({"b": gt(7)}), 1),
            ],
        )
        assert [r.infix for r in table.matching_rows(Event({"b": 5}))] == [0]


class TestViewTableCaching:
    def make_table(self):
        return TestViewTable.make_table(self)

    def test_addresses_sorted_within_each_row(self):
        """Regression: the docstring promises (infix, address) order.

        Delegates are stored in election order (smallest subtree
        members first), which is *usually* sorted — but a row built
        from anti-entropy updates or hand-assembled fixtures need not
        be, and addresses() must sort per row regardless.
        """
        table = ViewTable(
            Prefix((1,)),
            3,
            rows=[
                row(1, [(1, 1, 9), (1, 1, 0)]),
                row(0, [(1, 0, 5), (1, 0, 2)]),
            ],
        )
        assert table.addresses() == [
            Address((1, 0, 2)),
            Address((1, 0, 5)),
            Address((1, 1, 0)),
            Address((1, 1, 9)),
        ]

    def test_flattened_forms_are_memoized(self):
        table = self.make_table()
        assert table.rows() is table.rows()
        assert table.entries() is table.entries()
        assert table.addresses() is table.addresses()
        assert table.digest() is table.digest()

    def test_mutations_invalidate_memos(self):
        table = self.make_table()
        before = table.addresses()
        table.upsert(row(7, [(1, 7, 0)]))
        after = table.addresses()
        assert after is not before
        assert Address((1, 7, 0)) in after
        table.discard(7)
        assert Address((1, 7, 0)) not in table.addresses()
        assert table.entry_count == 6

    def test_noop_discard_keeps_token(self):
        table = self.make_table()
        token = table.cache_token
        table.discard(99)
        assert table.cache_token == token

    def test_cache_token_advances_and_is_never_shared(self):
        table = self.make_table()
        other = self.make_table()
        assert table.cache_token != other.cache_token
        seen = {table.cache_token}
        table.upsert(row(5, [(1, 5, 0)]))
        assert table.cache_token not in seen
        seen.add(table.cache_token)
        table.replace_rows([row(0, [(1, 0, 0)])])
        assert table.cache_token not in seen

    def test_replace_rows_keeps_identity_swaps_content(self):
        table = self.make_table()
        table_id = id(table)
        table.replace_rows([row(4, [(1, 4, 0)], count=2)])
        assert id(table) == table_id
        assert table.row_count == 1
        assert table.row(4).process_count == 2

    def test_replace_rows_rejects_duplicate_infix(self):
        table = self.make_table()
        with pytest.raises(MembershipError):
            table.replace_rows([row(1, [(1, 1, 0)]), row(1, [(1, 1, 1)])])
        # The failed swap must not have corrupted the table.
        assert table.row_count == 3


class TestFrozenVersions:
    def make_table(self):
        return TestViewTable.make_table(self)

    def test_every_write_through_a_frozen_table_raises(self):
        table = self.make_table()
        assert table.freeze() is table
        token = table.cache_token
        with pytest.raises(MembershipError):
            table.upsert(row(0, [(1, 0, 0)], timestamp=9))
        with pytest.raises(MembershipError):
            table.discard(0)
        with pytest.raises(MembershipError):
            table.replace_rows([row(0, [(1, 0, 0)])])
        assert table.cache_token == token and table.row_count == 3
        # A clone is its holder's own again.
        table.clone().discard(0)

    def test_snapshot_is_one_frozen_copy_per_state(self):
        table = self.make_table()
        first = table.snapshot()
        assert first is not table and first is table.snapshot()
        assert first.snapshot() is first
        assert first.rows() == table.rows()
        table.upsert(row(0, [(1, 0, 0), (1, 0, 1)], timestamp=4))
        second = table.snapshot()
        assert second is not first
        assert first.row(0).timestamp == 0 and second.row(0).timestamp == 4
        assert len({table.cache_token, first.cache_token, second.cache_token}) == 3

    def test_copies_carry_the_structure_token_until_structure_changes(self):
        table = self.make_table()
        addresses = table.addresses()
        copies = [
            table.clone(),
            table.snapshot(),
            table.overlay([row(1, [(1, 1, 0), (1, 1, 1)], timestamp=8)]),
        ]
        for copy in copies:
            assert copy.addresses_token == table.addresses_token
            assert copy.addresses() is addresses
        assert copies[2].row(1).timestamp == 8
        assert table.row(1).timestamp == 0
        moved = table.overlay([row(1, [(1, 1, 5)]), row(9, [(1, 9, 0)])])
        assert moved.addresses_token != table.addresses_token
        assert Address((1, 9, 0)) in moved.addresses()
        assert moved.entry_count == 6
        with pytest.raises(MembershipError):
            moved.discard(9)
