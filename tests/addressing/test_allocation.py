"""Tests for balanced logical address allocation (§2.2)."""

import pytest

from repro.addressing import AddressSpace, Prefix
from repro.addressing.allocation import AddressAllocator
from repro.errors import AddressError
from repro.interests import StaticInterest
from repro.membership import MembershipTree


class TestBasicAllocation:
    def test_addresses_are_unique_and_valid(self):
        space = AddressSpace.regular(3, 3)
        allocator = AddressAllocator(space, min_subgroup=2)
        addresses = [allocator.allocate() for __ in range(20)]
        assert len(set(addresses)) == 20
        assert all(space.validate(address) is address for address in addresses)
        assert all(map(allocator.is_allocated, addresses))

    def test_fills_subgroup_to_minimum_before_opening_sibling(self):
        space = AddressSpace.regular(4, 2)
        allocator = AddressAllocator(space, min_subgroup=3)
        first_three = [allocator.allocate() for __ in range(3)]
        # All three land in the same leaf subgroup.
        prefixes = {address.prefix(2) for address in first_three}
        assert len(prefixes) == 1
        fourth = allocator.allocate()
        # The target is met: the fourth opens a sibling subgroup.
        assert fourth.prefix(2) not in prefixes

    def test_election_assumption_holds_during_growth(self):
        # Every populated leaf subgroup keeps >= R members once it has
        # had the chance to fill (i.e. for all but the newest group).
        space = AddressSpace.regular(4, 3)
        allocator = AddressAllocator(space, min_subgroup=2)
        allocated = [allocator.allocate() for __ in range(30)]
        tree = MembershipTree.build(
            {address: StaticInterest(True) for address in allocated},
            redundancy=2,
        )
        small_groups = 0
        for address in allocated:
            prefix = address.prefix(3)
            if tree.subtree_size(prefix) < 2:
                small_groups += 1
        # At most the most recently opened subgroup may be under R.
        assert small_groups <= 1

    def test_exhaustion(self):
        space = AddressSpace.regular(2, 2)
        allocator = AddressAllocator(space, min_subgroup=1)
        for __ in range(4):
            allocator.allocate()
        with pytest.raises(AddressError):
            allocator.allocate()

    def test_release_and_reuse(self):
        space = AddressSpace.regular(2, 2)
        allocator = AddressAllocator(space, min_subgroup=1)
        addresses = [allocator.allocate() for __ in range(4)]
        allocator.release(addresses[0])
        assert not allocator.is_allocated(addresses[0])
        again = allocator.allocate()
        assert again == addresses[0]

    def test_double_release_rejected(self):
        space = AddressSpace.regular(2, 2)
        allocator = AddressAllocator(space, min_subgroup=1)
        address = allocator.allocate()
        allocator.release(address)
        with pytest.raises(AddressError):
            allocator.release(address)

    def test_invalid_min_subgroup(self):
        with pytest.raises(AddressError):
            AddressAllocator(AddressSpace.regular(2, 2), min_subgroup=0)


class TestHints:
    def test_same_hint_lands_in_same_subgroup(self):
        space = AddressSpace.regular(4, 3)
        allocator = AddressAllocator(space, min_subgroup=2)
        site_a = [allocator.allocate(hint="zurich") for __ in range(3)]
        site_b = [allocator.allocate(hint="geneva") for __ in range(3)]
        assert len({address.prefix(3) for address in site_a}) == 1
        assert len({address.prefix(3) for address in site_b}) == 1
        # Different hints got different subgroups.
        assert site_a[0].prefix(3) != site_b[0].prefix(3)

    def test_hint_overflow_falls_back(self):
        space = AddressSpace.regular(2, 2)   # leaf subgroups of 2
        allocator = AddressAllocator(space, min_subgroup=1)
        pinned = [allocator.allocate(hint="s") for __ in range(3)]
        # The third could not fit the pinned subgroup of capacity 2.
        assert len({address.prefix(2) for address in pinned}) == 2

    def test_population_accounting(self):
        space = AddressSpace.regular(3, 2)
        allocator = AddressAllocator(space, min_subgroup=2)
        for __ in range(4):
            allocator.allocate()
        total = sum(
            allocator.population(Prefix((component,)))
            for component in range(3)
        )
        assert total == 4
