"""Tests for view derivation and the Eq 2 / Eq 12 knowledge accounting."""

import pytest

from repro.addressing import Address, AddressSpace, Prefix
from repro.errors import MembershipError
from repro.interests import (
    Event,
    StaticInterest,
    Subscription,
    gt,
)
from repro.membership import (
    MembershipTree,
    build_all_views,
    build_process_views,
    build_view,
    known_process_count,
    regular_total_view_size,
    regular_view_sizes,
)


def regular_tree(arity=3, depth=3, redundancy=2, interest=None):
    space = AddressSpace.regular(arity, depth)
    members = {
        address: interest or StaticInterest(True)
        for address in space.enumerate_regular(arity)
    }
    return MembershipTree.build(members, redundancy=redundancy)


class TestBuildView:
    def test_inner_view_rows(self):
        tree = regular_tree()
        table = build_view(tree, Prefix((1,)))
        assert len(table.rows()) == 3
        assert sum(len(row.delegates) for row in table.rows()) == 6   # R=2 delegates per row
        assert all(row.process_count == 3 for row in table.rows())

    def test_leaf_view_rows_are_individuals(self):
        tree = regular_tree()
        table = build_view(tree, Prefix((1, 2)))
        assert len(table.rows()) == 3
        assert sum(len(row.delegates) for row in table.rows()) == 3
        assert all(len(row.delegates) == 1 for row in table.rows())

    def test_row_interest_is_subtree_union(self):
        space = AddressSpace.regular(2, 2)
        members = {
            Address((0, 0)): Subscription({"b": gt(5)}),
            Address((0, 1)): Subscription({"b": gt(0)}),
            Address((1, 0)): Subscription({"b": gt(100)}),
            Address((1, 1)): Subscription({"b": gt(100)}),
        }
        tree = MembershipTree.build(members, redundancy=1)
        table = build_view(tree, Prefix(()))
        assert table.row(0).interest.matches(Event({"b": 1}))
        assert not table.row(1).interest.matches(Event({"b": 1}))

    def test_unpopulated_prefix_rejected(self):
        tree = regular_tree()
        with pytest.raises(MembershipError):
            build_view(tree, Prefix((9,)))

    def test_timestamp_stamped(self):
        tree = regular_tree()
        table = build_view(tree, Prefix(()), timestamp=42)
        assert all(row.timestamp == 42 for row in table.rows())


class TestBuildProcessViews:
    def test_one_table_per_depth(self):
        tree = regular_tree()
        views = build_process_views(tree, Address((1, 2, 0)))
        assert sorted(views) == [1, 2, 3]
        assert views[1].prefix == Prefix(())
        assert views[2].prefix == Prefix((1,))
        assert views[3].prefix == Prefix((1, 2))

    def test_nonmember_rejected(self):
        tree = regular_tree()
        with pytest.raises(MembershipError):
            build_process_views(tree, Address((9, 9, 9)))


class TestBuildAllViews:
    def test_covers_every_populated_prefix(self):
        tree = regular_tree()
        tables = build_all_views(tree)
        # 1 root + 3 depth-2 + 9 depth-3 prefixes
        assert len(tables) == 13

    def test_shared_tables_match_per_process_views(self):
        tree = regular_tree()
        tables = build_all_views(tree)
        address = Address((2, 1, 0))
        views = build_process_views(tree, address)
        for depth, table in views.items():
            shared = tables[address.prefix(depth)]
            assert [r.infix for r in shared.rows()] == [
                r.infix for r in table.rows()
            ]


class TestKnowledgeAccounting:
    def test_eq2_matches_eq12_on_regular_tree(self):
        # In a regular tree every process knows m = R a (d-1) + a.
        for arity, depth, redundancy in [(3, 3, 2), (4, 2, 3), (2, 4, 2)]:
            tree = regular_tree(arity, depth, redundancy)
            expected = regular_total_view_size(arity, depth, redundancy)
            for address in list(tree.members())[:5]:
                assert known_process_count(tree, address) == expected

    def test_regular_view_sizes_eq12(self):
        assert regular_view_sizes(22, 3, 3) == [66, 66, 22]
        assert regular_total_view_size(22, 3, 3) == 154

    def test_view_size_sublinear(self):
        # m in O(d R n^(1/d)): the whole point of membership scalability.
        small = regular_total_view_size(10, 3, 3)    # n = 1 000
        large = regular_total_view_size(22, 3, 3)    # n = 10 648
        assert large / small < (22 ** 3 / 10 ** 3) ** 0.5

    def test_irregular_tree_counts(self):
        members = {
            Address((0, 0, 0)): StaticInterest(True),
            Address((0, 0, 1)): StaticInterest(True),
            Address((0, 1, 0)): StaticInterest(True),
            Address((1, 0, 0)): StaticInterest(True),
        }
        tree = MembershipTree.build(members, redundancy=1)
        # 0.0.0 knows: depth-3 neighbors |0.0| = 2, plus R*|0| = 2 rows
        # at depth 2, plus R*|empty| = 2 rows at depth 1.
        assert known_process_count(tree, Address((0, 0, 0))) == 2 + 2 + 2

    def test_invalid_eq12_arguments(self):
        with pytest.raises(MembershipError):
            regular_view_sizes(0, 3, 3)


class TestRefreshedRows:
    """Incremental path refresh must equal a from-scratch rebuild."""

    def assert_equivalent(self, tree, existing, address, timestamp):
        from repro.membership import refreshed_rows

        for prefix in address.prefixes():
            if not tree.is_populated(prefix):
                continue
            changed = address.components[len(prefix.components)]
            incremental = refreshed_rows(
                tree, prefix, existing[prefix], changed, timestamp
            )
            scratch = build_view(tree, prefix, timestamp).rows()
            assert incremental == scratch

    def test_join_equals_rebuild_on_every_path_table(self):
        tree = regular_tree(arity=3, depth=3)
        existing = build_all_views(tree, timestamp=1)
        newcomer = Address((1, 1, 9))
        tree.add(newcomer, StaticInterest(False))
        self.assert_equivalent(tree, existing, newcomer, timestamp=2)

    def test_leave_equals_rebuild_on_every_path_table(self):
        tree = regular_tree(arity=3, depth=3)
        existing = build_all_views(tree, timestamp=1)
        departed = Address((2, 0, 1))
        tree.remove(departed)
        self.assert_equivalent(tree, existing, departed, timestamp=2)

    def test_delegate_departure_reelects_in_changed_row_only(self):
        from repro.membership import refreshed_rows

        tree = regular_tree(arity=3, depth=3)
        root = Prefix(())
        existing = build_view(tree, root, timestamp=1)
        departed = Address((0, 0, 0))   # smallest address: delegate of 0
        tree.remove(departed)
        rows = refreshed_rows(tree, root, existing, 0, timestamp=2)
        by_infix = {row.infix: row for row in rows}
        assert departed not in by_infix[0].delegates
        assert all(row.timestamp == 2 for row in rows)
        # Untouched siblings kept their (still valid) delegates.
        assert by_infix[1].delegates == existing.row(1).delegates

    def test_unpopulated_prefix_rejected(self):
        from repro.membership import refreshed_rows

        tree = regular_tree(arity=2, depth=2)
        existing = build_view(tree, Prefix((0,)), timestamp=0)
        tree.remove(Address((0, 0)))
        tree.remove(Address((0, 1)))
        with pytest.raises(MembershipError):
            refreshed_rows(tree, Prefix((0,)), existing, 0, timestamp=1)


class TestRefreshPath:
    """The in-place path refresh shared by GroupRuntime and PubSubSystem."""

    def test_join_refreshes_in_place_and_creates_the_new_prefix(self):
        from repro.membership import refresh_path

        tree = regular_tree(arity=3, depth=3)
        tables = build_all_views(tree, timestamp=1)
        before = dict(tables)
        newcomer = Address((1, 5, 0))       # subgroup 1.5 is new
        tree.add(newcomer, StaticInterest(False))
        written, created, dropped = refresh_path(
            tree, tables, newcomer, timestamp=2
        )
        assert [t.prefix for t in written] == list(newcomer.prefixes())
        assert [t.prefix for t in created] == [Prefix((1, 5))]
        assert dropped == []
        for prefix in newcomer.prefixes():
            if prefix in before:
                assert tables[prefix] is before[prefix]
            assert (
                tables[prefix].rows() == build_view(tree, prefix, 2).rows()
            )

    def test_leave_drops_the_emptied_prefix(self):
        from repro.membership import refresh_path

        tree = regular_tree(arity=2, depth=2)
        tables = build_all_views(tree, timestamp=1)
        emptied = tables[Prefix((0,))]
        tree.remove(Address((0, 0)))
        refresh_path(tree, tables, Address((0, 0)), timestamp=2)
        assert tables[Prefix((0,))] is emptied
        tree.remove(Address((0, 1)))
        written, created, dropped = refresh_path(
            tree, tables, Address((0, 1)), timestamp=3
        )
        assert dropped == [emptied] and Prefix((0,)) not in tables
        assert [t.prefix for t in written] == [Prefix(())] and created == []
        assert tables[Prefix(())].rows() == build_view(tree, Prefix(()), 3).rows()
