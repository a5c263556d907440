"""Unit tests for AddressSpace (paper §2.2, Eq 1 and Eq 6)."""

import pytest

from repro.addressing import Address, AddressSpace
from repro.errors import AddressError


class TestConstruction:
    def test_regular_space(self):
        space = AddressSpace.regular(22, 3)
        assert space.arities == (22, 22, 22)
        assert space.depth == 3
        assert space.capacity == 22 ** 3

    def test_ipv4_space_matches_paper(self):
        # "to cover all possible IP addresses, one could choose d = 4
        # and a_i = 2^8"
        space = AddressSpace((2 ** 8,) * 4)
        assert space.depth == 4
        assert space.capacity == 2 ** 32

    def test_mixed_arities(self):
        space = AddressSpace((4, 8, 2))
        assert space.capacity == 64

    def test_zero_arity_rejected(self):
        with pytest.raises(AddressError):
            AddressSpace((4, 0))

    def test_empty_space_rejected(self):
        with pytest.raises(AddressError):
            AddressSpace(())

    def test_zero_depth_regular_rejected(self):
        with pytest.raises(AddressError):
            AddressSpace.regular(4, 0)


class TestMembershipChecks:
    def test_contains_in_range(self):
        space = AddressSpace.regular(4, 2)
        assert space.validate(Address((3, 3))) == Address((3, 3))
        for outside in (Address((4, 0)), Address((0, 0, 0))):
            with pytest.raises(AddressError):
                space.validate(outside)

    def test_validate_raises_with_context(self):
        space = AddressSpace.regular(4, 2)
        with pytest.raises(AddressError, match="x\\(2\\)=9"):
            space.validate(Address((1, 9)))

    def test_validate_passes_through(self):
        space = AddressSpace.regular(4, 2)
        address = Address((1, 2))
        assert space.validate(address) is address


class TestEnumeration:
    def test_enumerate_regular_population(self):
        space = AddressSpace.regular(5, 3)
        population = space.enumerate_regular(3)
        assert len(population) == 27
        assert all(
            max(address.components) <= 2 for address in population
        )

    def test_enumerate_regular_rejects_overflow(self):
        space = AddressSpace.regular(3, 2)
        with pytest.raises(AddressError):
            space.enumerate_regular(4)

