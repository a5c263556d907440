"""Tests for MembershipTree: delegate election and subgroup structure."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing import Address, AddressSpace, Prefix
from repro.errors import MembershipError
from repro.interests import StaticInterest
from repro.membership import MembershipTree


def regular_tree(arity=3, depth=3, redundancy=2):
    space = AddressSpace.regular(arity, depth)
    members = {
        address: StaticInterest(True)
        for address in space.enumerate_regular(arity)
    }
    return MembershipTree.build(members, redundancy=redundancy)


class TestConstruction:
    def test_build_counts(self):
        tree = regular_tree()
        assert tree.size == 27
        assert tree.depth == 3
        assert tree.redundancy == 2

    def test_empty_build_rejected(self):
        with pytest.raises(MembershipError):
            MembershipTree.build({}, redundancy=2)

    def test_mixed_depths_rejected(self):
        with pytest.raises(MembershipError):
            MembershipTree.build(
                {
                    Address((1, 2)): StaticInterest(True),
                    Address((1, 2, 3)): StaticInterest(True),
                },
                redundancy=2,
            )

    def test_duplicate_add_rejected(self):
        tree = regular_tree()
        with pytest.raises(MembershipError):
            tree.add(Address((0, 0, 0)), StaticInterest(True))

    def test_wrong_depth_add_rejected(self):
        tree = regular_tree()
        with pytest.raises(MembershipError):
            tree.add(Address((0, 0)), StaticInterest(True))

    def test_invalid_parameters(self):
        with pytest.raises(MembershipError):
            MembershipTree(depth=0, redundancy=2)
        with pytest.raises(MembershipError):
            MembershipTree(depth=3, redundancy=0)


class TestSubgroups:
    def test_subtree_members_sorted(self):
        tree = regular_tree()
        members = tree.subtree_members(Prefix((1, 2)))
        assert list(members) == sorted(members)
        assert len(members) == 3

    def test_subtree_size_eq4(self):
        tree = regular_tree()
        # ||prefix of depth 2|| = a^(d-1) = 9 in a regular a=3 tree.
        assert tree.subtree_size(Prefix((1,))) == 9
        assert tree.subtree_size(Prefix(())) == 27

    def test_populated_children(self):
        tree = regular_tree()
        assert tree.populated_children(Prefix(())) == [0, 1, 2]
        assert tree.populated_children(Prefix((2,))) == [0, 1, 2]

    def test_branch_factor_at_leaf_prefix(self):
        tree = regular_tree()
        assert tree.branch_factor(Prefix((1, 2))) == 3

    def test_unpopulated_prefix(self):
        tree = regular_tree()
        assert not tree.is_populated(Prefix((9,)))
        assert tree.subtree_size(Prefix((9,))) == 0
        assert tree.subtree_members(Prefix((9,))) == ()


class TestDelegateElection:
    def test_delegates_are_r_smallest(self):
        tree = regular_tree(redundancy=2)
        assert tree.delegates(Prefix((1, 2))) == (
            Address((1, 2, 0)),
            Address((1, 2, 1)),
        )

    def test_delegates_of_inner_prefix_are_subtree_minimum(self):
        tree = regular_tree(redundancy=2)
        assert tree.delegates(Prefix((2,))) == (
            Address((2, 0, 0)),
            Address((2, 0, 1)),
        )

    def test_recursive_select_merge_equals_direct_minimum(self):
        """§2.1's select/merge recursion = R smallest of the subtree."""
        tree = regular_tree(arity=3, depth=3, redundancy=2)
        for prefix in [Prefix(()), Prefix((0,)), Prefix((1,))]:
            merged = []
            for child in tree.populated_children(prefix):
                merged.extend(tree.delegates(prefix.child(child)))
            recursive = tuple(sorted(merged)[: tree.redundancy])
            assert recursive == tree.delegates(prefix)

    def test_degraded_subgroup_elects_everyone(self):
        members = {
            Address((0, 0)): StaticInterest(True),
            Address((1, 0)): StaticInterest(True),
        }
        tree = MembershipTree.build(members, redundancy=3)
        assert tree.delegates(Prefix((0,))) == (Address((0, 0)),)

    def test_unpopulated_prefix_rejected(self):
        tree = regular_tree()
        with pytest.raises(MembershipError):
            tree.delegates(Prefix((7,)))

    def test_is_delegate(self):
        tree = regular_tree(redundancy=2)
        assert tree.is_delegate(Address((0, 0, 0)), 3)
        assert tree.is_delegate(Address((0, 0, 1)), 3)
        assert not tree.is_delegate(Address((0, 0, 2)), 3)
        # Delegate of its leaf group but not further up.
        assert tree.is_delegate(Address((2, 2, 0)), 3)
        assert not tree.is_delegate(Address((2, 2, 0)), 2)


class TestMutation:
    def test_remove_updates_all_prefixes(self):
        tree = regular_tree()
        tree.remove(Address((0, 0, 0)))
        assert tree.size == 26
        assert tree.subtree_size(Prefix((0, 0))) == 2
        assert Address((0, 0, 1)) == tree.delegates(Prefix((0, 0)))[0]

    def test_remove_last_member_of_subtree_depopulates(self):
        members = {
            Address((0, 0)): StaticInterest(True),
            Address((1, 0)): StaticInterest(True),
        }
        tree = MembershipTree.build(members, redundancy=1)
        tree.remove(Address((1, 0)))
        assert not tree.is_populated(Prefix((1,)))
        assert tree.populated_children(Prefix(())) == [0]

    def test_remove_nonmember_rejected(self):
        tree = regular_tree()
        with pytest.raises(MembershipError):
            tree.remove(Address((9, 9, 9)))

    def test_update_interest(self):
        tree = regular_tree()
        address = Address((1, 1, 1))
        tree.update_interest(address, StaticInterest(False))
        assert not tree.interest_of(address).interested

    def test_interest_of_nonmember_rejected(self):
        tree = regular_tree()
        with pytest.raises(MembershipError):
            tree.interest_of(Address((9, 9, 9)))


@st.composite
def member_sets(draw):
    count = draw(st.integers(2, 24))
    components = st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
    )
    addresses = draw(
        st.lists(components, min_size=count, max_size=count, unique=True)
    )
    return [Address(a) for a in addresses]


class TestElectionProperties:
    @given(member_sets())
    @settings(max_examples=60)
    def test_election_is_insertion_order_independent(self, addresses):
        interests = {a: StaticInterest(True) for a in addresses}
        tree_a = MembershipTree(depth=3, redundancy=2)
        tree_b = MembershipTree(depth=3, redundancy=2)
        for address in addresses:
            tree_a.add(address, interests[address])
        for address in reversed(addresses):
            tree_b.add(address, interests[address])
        for address in addresses:
            for depth in range(1, 4):
                prefix = address.prefix(depth)
                assert tree_a.delegates(prefix) == tree_b.delegates(prefix)

    @given(member_sets())
    @settings(max_examples=60)
    def test_delegate_of_depth_i_is_delegate_of_all_deeper(self, addresses):
        tree = MembershipTree.build(
            {a: StaticInterest(True) for a in addresses}, redundancy=2
        )
        for address in addresses:
            was_delegate = True
            for depth in range(2, 4):
                is_delegate = tree.is_delegate(address, depth)
                if not was_delegate:
                    assert not is_delegate or True  # deeper is allowed
                was_delegate = is_delegate
            # Direct statement: delegate at depth i => delegate at i+1.
            for depth in range(2, 3):
                if tree.is_delegate(address, depth):
                    assert tree.is_delegate(address, depth + 1)

    @given(member_sets())
    @settings(max_examples=60)
    def test_add_then_remove_restores_delegates(self, addresses):
        base = addresses[:-1]
        extra = addresses[-1]
        tree = MembershipTree.build(
            {a: StaticInterest(True) for a in base}, redundancy=2
        )
        before = {
            prefix: tree.delegates(prefix)
            for address in base
            for prefix in address.prefixes()
        }
        tree.add(extra, StaticInterest(True))
        tree.remove(extra)
        for prefix, delegates in before.items():
            assert tree.delegates(prefix) == delegates


def added_one_by_one(members, redundancy):
    """The reference tree: one ``add`` (the join path) per member, in
    mapping order."""
    depth = next(iter(members)).depth
    tree = MembershipTree(depth=depth, redundancy=redundancy)
    for address, interest in members.items():
        tree.add(address, interest)
    return tree


@st.composite
def shuffled_members(draw):
    """An irregular member map of a drawn depth, in a drawn order."""
    depth = draw(st.integers(1, 4))
    components = st.tuples(*[st.integers(0, 3)] * depth)
    addresses = draw(
        st.lists(components, min_size=1, max_size=40, unique=True)
    )
    addresses = draw(st.permutations([Address(a) for a in addresses]))
    return {
        address: StaticInterest(draw(st.booleans())) for address in addresses
    }


class TestBulkBuild:
    @given(shuffled_members(), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_build_equals_per_member_adds(self, members, redundancy):
        bulk = MembershipTree.build(members, redundancy=redundancy)
        reference = added_one_by_one(members, redundancy)
        assert list(bulk.members()) == list(reference.members())
        assert list(bulk.members()) == list(members)
        prefixes = {prefix for address in members for prefix in address.prefixes()}
        for prefix in prefixes:
            expected = sorted(a for a in members if prefix.is_prefix_of(a))
            assert list(bulk.subtree_members(prefix)) == expected
            assert list(reference.subtree_members(prefix)) == expected
            assert bulk.delegates(prefix) == reference.delegates(prefix)
            position = len(prefix.components)
            children = sorted({a.components[position] for a in expected})
            assert bulk.populated_children(prefix) == children
            assert reference.populated_children(prefix) == children
        for address, interest in members.items():
            assert bulk.interest_of(address) is interest
