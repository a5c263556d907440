"""Tests for GroupDirectory and the join/leave that refresh it (§2.3).

A join or leave is the tree change plus
:meth:`GroupDirectory.refresh_path`, as :class:`GroupRuntime` and
:class:`PubSubSystem` run it.
"""

import pytest

from repro.addressing import Address, AddressSpace, Prefix
from repro.config import PmcastConfig
from repro.errors import MembershipError, SimulationError
from repro.interests import StaticInterest
from repro.membership import GroupDirectory, MembershipTree
from repro.membership.knowledge import build_view
from repro.sim.runtime import GroupRuntime


def make_members(arity=3, depth=3):
    space = AddressSpace.regular(arity, depth)
    return {
        address: StaticInterest(True)
        for address in space.enumerate_regular(arity)
    }


def make_directory(arity=3, depth=3, redundancy=2):
    tree = MembershipTree.build(make_members(arity, depth), redundancy=redundancy)
    return GroupDirectory(tree)


def make_runtime(arity=3, depth=3, redundancy=2):
    return GroupRuntime(
        make_members(arity, depth), config=PmcastConfig(redundancy=redundancy)
    )


class TestGroupDirectory:
    def test_tables_cover_populated_prefixes(self):
        directory = make_directory()
        assert len(directory._tables[Prefix(())].rows()) == 3
        assert len(directory._tables[Prefix((1, 2))].rows()) == 3

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
            assert path[prefix.depth] is directory._tables[prefix]


class TestOneStore:
    """The directory refreshes its tables in place: every table held
    before a join or leave is still the directory's, and the path's
    rows are a fresh build's at the new clock."""

    @staticmethod
    def _check(directory, held, changed):
        for prefix, table in held.items():
            if directory._tree.is_populated(prefix):
                assert directory._tables[prefix] is table
        for prefix in changed.prefixes():
            if directory._tree.is_populated(prefix):
                fresh = build_view(directory._tree, prefix, directory._clock)
                assert directory._tables[prefix].rows() == fresh.rows()

    def test_join_and_leave_keep_every_held_table(self):
        directory = make_directory()
        new_leaf = Prefix((0, 4))
        for joins, address in (
            (True, Address((1, 2, 3))),  # into a populated leaf subgroup
            (True, Address((0, 4, 0))),  # populates new_leaf
            (False, Address((2, 2, 2))),
            (False, Address((0, 4, 0))),  # empties new_leaf again
        ):
            held = dict(directory.tables)
            if joins:
                directory._tree.add(address, StaticInterest(False))
            else:
                directory._tree.remove(address)
            directory.refresh_path(address)
            self._check(directory, held, address)
            assert (new_leaf in directory.tables) == (
                Address((0, 4, 0)) in directory._tree
            )


class TestJoin:
    def test_join_adds_member_and_updates_views(self):
        runtime = make_runtime()
        newcomer = Address((1, 2, 3))
        runtime.join(newcomer, StaticInterest(True))
        assert newcomer in runtime.tree
        # The newcomer's leaf view now lists 4 neighbors (3 old + self).
        assert len(runtime._directory._tables[Prefix((1, 2))].rows()) == 4
        # Its replica holds a table at every depth.
        assert sorted(runtime._replica(newcomer).tables) == [1, 2, 3]

    def test_join_into_empty_subtree(self):
        runtime = make_runtime()
        newcomer = Address((2, 2, 3))
        # Remove the whole 2.2 subtree first.
        for last in range(3):
            runtime.leave(Address((2, 2, last)))
        runtime.join(newcomer, StaticInterest(True))
        assert len(runtime._directory._tables[Prefix((2, 2))].rows()) == 1
        assert newcomer in runtime.tree
        assert runtime.node(newcomer).alive

    def test_join_refreshes_timestamps(self):
        runtime = make_runtime()
        table = runtime._directory._tables[Prefix((1, 2))]
        before = table.rows()[0].timestamp
        runtime.join(Address((1, 2, 3)), StaticInterest(True))
        after = table.rows()[0].timestamp
        assert after > before

    def test_join_duplicate_rejected(self):
        runtime = make_runtime()
        with pytest.raises(SimulationError):
            runtime.join(Address((1, 1, 1)), StaticInterest(True))

    def test_join_wrong_depth_rejected(self):
        runtime = make_runtime()
        with pytest.raises(MembershipError):
            runtime.join(Address((1, 2)), StaticInterest(True))


class TestLeave:
    def test_leave_removes_and_informs_neighbors(self):
        runtime = make_runtime()
        leaver = Address((1, 1, 1))
        runtime.leave(leaver)
        assert leaver not in runtime.tree
        assert set(runtime.tree.subtree_members(Prefix((1, 1)))) == {
            Address((1, 1, 0)), Address((1, 1, 2)),
        }
        assert len(runtime._directory._tables[Prefix((1, 1))].rows()) == 2

    def test_leave_of_delegate_promotes_next(self):
        runtime = make_runtime()
        # 0.0.0 is a root delegate; after it leaves, 0.0.1 and 0.0.2
        # are the two smallest in subtree 0.
        runtime.leave(Address((0, 0, 0)))
        root_row = runtime._directory._tables[Prefix(())].row(0)
        assert root_row.delegates == (Address((0, 0, 1)), Address((0, 0, 2)))

    def test_leave_last_member_drops_table(self):
        runtime = make_runtime(arity=2, depth=2, redundancy=1)
        runtime.leave(Address((1, 0)))
        runtime.leave(Address((1, 1)))
        assert Prefix((1,)) not in runtime._directory._tables
        assert len(runtime._directory._tables[Prefix(())].rows()) == 1

    def test_leave_nonmember_rejected(self):
        runtime = make_runtime()
        with pytest.raises(SimulationError):
            runtime.leave(Address((9, 9, 9)))
