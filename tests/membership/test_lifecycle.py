"""Tests for the join/leave protocols (§2.3) and GroupDirectory."""

import pytest

from repro.addressing import Address, AddressSpace, Prefix
from repro.errors import MembershipError
from repro.interests import StaticInterest
from repro.membership import (
    GroupDirectory,
    MembershipTree,
    join,
    leave,
)
from repro.membership.knowledge import build_view


def make_directory(arity=3, depth=3, redundancy=2):
    space = AddressSpace.regular(arity, depth)
    members = {
        address: StaticInterest(True)
        for address in space.enumerate_regular(arity)
    }
    tree = MembershipTree.build(members, redundancy=redundancy)
    return GroupDirectory(tree)


class TestGroupDirectory:
    def test_tables_cover_populated_prefixes(self):
        directory = make_directory()
        assert directory.table(Prefix(())).row_count == 3
        assert directory.table(Prefix((1, 2))).row_count == 3

    def test_unknown_prefix_rejected(self):
        directory = make_directory()
        with pytest.raises(MembershipError):
            directory.table(Prefix((9,)))

    def test_clock_ticks(self):
        directory = make_directory()
        first = directory.tick()
        assert directory.tick() == first + 1

    def test_path_is_the_tables_on_the_prefix_path(self):
        directory = make_directory()
        address = Address((2, 0, 1))
        path = directory.path(address)
        assert sorted(path) == [1, 2, 3]
        for prefix in address.prefixes():
            assert path[prefix.depth] is directory.table(prefix)


class TestOneStore:
    """The directory refreshes its tables in place: every table held
    before a join or leave is still the directory's, and the path's
    rows are a fresh build's at the new clock."""

    @staticmethod
    def _check(directory, held, changed):
        for prefix, table in held.items():
            if directory.tree.is_populated(prefix):
                assert directory.table(prefix) is table
        for prefix in changed.prefixes():
            if directory.tree.is_populated(prefix):
                fresh = build_view(directory.tree, prefix, directory.clock)
                assert directory.table(prefix).rows() == fresh.rows()

    def test_join_and_leave_keep_every_held_table(self):
        directory = make_directory()
        new_leaf = Prefix((0, 4))
        for change, address in (
            (join, Address((1, 2, 3))),  # into a populated leaf subgroup
            (join, Address((0, 4, 0))),  # populates new_leaf
            (leave, Address((2, 2, 2))),
            (leave, Address((0, 4, 0))),  # empties new_leaf again
        ):
            held = dict(directory.tables)
            if change is join:
                join(directory, Address((0, 0, 0)), address, StaticInterest(False))
            else:
                leave(directory, address)
            self._check(directory, held, address)
            assert (new_leaf in directory.tables) == (
                Address((0, 4, 0)) in directory.tree
            )


class TestJoin:
    def test_join_adds_member_and_updates_views(self):
        directory = make_directory()
        newcomer = Address((1, 2, 3))
        result = join(
            directory, Address((0, 0, 0)), newcomer, StaticInterest(True)
        )
        assert newcomer in directory.tree
        assert result.new_member == newcomer
        # The newcomer's leaf view now lists 4 neighbors (3 old + self).
        assert directory.table(Prefix((1, 2))).row_count == 4
        # Transmitted views cover every depth.
        assert sorted(result.views) == [1, 2, 3]

    def test_join_contact_trace_walks_prefix_path(self):
        directory = make_directory()
        newcomer = Address((2, 1, 3))
        contact = Address((0, 0, 0))
        result = join(directory, contact, newcomer, StaticInterest(True))
        trace = result.contact_trace
        assert trace[0] == contact
        # Root delegates (the overall R smallest) come first...
        assert Address((0, 0, 1)) in trace
        # ...then the delegates of the newcomer's subtrees...
        assert Address((2, 0, 0)) in trace       # delegates of prefix (2,)
        assert Address((2, 1, 0)) in trace       # delegates of prefix (2,1)
        # ...and finally all immediate depth-d neighbors.
        for neighbor in [Address((2, 1, 0)), Address((2, 1, 1)), Address((2, 1, 2))]:
            assert neighbor in trace

    def test_join_into_empty_subtree(self):
        directory = make_directory()
        newcomer = Address((2, 2, 3))
        # Remove the whole 2.2 subtree first.
        for last in range(3):
            leave(directory, Address((2, 2, last)))
        result = join(
            directory, Address((0, 0, 0)), newcomer, StaticInterest(True)
        )
        assert directory.table(Prefix((2, 2))).row_count == 1
        assert newcomer in directory.tree
        assert result.contact_trace  # at least the contact itself

    def test_join_refreshes_timestamps(self):
        directory = make_directory()
        before = directory.table(Prefix((1, 2))).rows()[0].timestamp
        join(
            directory, Address((0, 0, 0)), Address((1, 2, 3)),
            StaticInterest(True),
        )
        after = directory.table(Prefix((1, 2))).rows()[0].timestamp
        assert after > before

    def test_join_duplicate_rejected(self):
        directory = make_directory()
        with pytest.raises(MembershipError):
            join(
                directory, Address((0, 0, 0)), Address((1, 1, 1)),
                StaticInterest(True),
            )

    def test_join_unknown_contact_rejected(self):
        directory = make_directory()
        with pytest.raises(MembershipError):
            join(
                directory, Address((9, 9, 9)), Address((1, 2, 3)),
                StaticInterest(True),
            )

    def test_join_wrong_depth_rejected(self):
        directory = make_directory()
        with pytest.raises(MembershipError):
            join(
                directory, Address((0, 0, 0)), Address((1, 2)),
                StaticInterest(True),
            )


class TestLeave:
    def test_leave_removes_and_informs_neighbors(self):
        directory = make_directory()
        leaver = Address((1, 1, 1))
        informed = leave(directory, leaver)
        assert leaver not in directory.tree
        assert set(informed) == {Address((1, 1, 0)), Address((1, 1, 2))}
        assert directory.table(Prefix((1, 1))).row_count == 2

    def test_leave_of_delegate_promotes_next(self):
        directory = make_directory()
        # 0.0.0 is a root delegate; after it leaves, 0.0.1 and 0.0.2
        # are the two smallest in subtree 0.
        leave(directory, Address((0, 0, 0)))
        root_row = directory.table(Prefix(())).row(0)
        assert root_row.delegates == (Address((0, 0, 1)), Address((0, 0, 2)))

    def test_leave_last_member_drops_table(self):
        directory = make_directory(arity=2, depth=2, redundancy=1)
        leave(directory, Address((1, 0)))
        leave(directory, Address((1, 1)))
        with pytest.raises(MembershipError):
            directory.table(Prefix((1,)))
        assert directory.table(Prefix(())).row_count == 1

    def test_leave_nonmember_rejected(self):
        directory = make_directory()
        with pytest.raises(MembershipError):
            leave(directory, Address((9, 9, 9)))
