"""Unit tests for Address and Prefix (paper §2.2)."""

import pytest

from repro.addressing import Address, Prefix
from repro.errors import AddressError


class TestAddressConstruction:
    def test_components_round_trip(self):
        address = Address((128, 178, 73, 3))
        assert address.components == (128, 178, 73, 3)
        assert address.depth == 4

    def test_parse_dotted(self):
        assert Address.parse("128.178.73.3") == Address((128, 178, 73, 3))

    def test_parse_rejects_garbage(self):
        with pytest.raises(AddressError):
            Address.parse("128.abc.73")

    def test_empty_address_rejected(self):
        with pytest.raises(AddressError):
            Address(())

    def test_negative_component_rejected(self):
        with pytest.raises(AddressError):
            Address((1, -2, 3))

    def test_non_integer_component_rejected(self):
        with pytest.raises(AddressError):
            Address((1, 2.5, 3))

    def test_bool_component_rejected(self):
        with pytest.raises(AddressError):
            Address((1, True, 3))

    def test_str_round_trip(self):
        assert str(Address.parse("10.0.3")) == "10.0.3"


class TestAddressOrdering:
    def test_lexicographic_order(self):
        assert Address((1, 2, 3)) < Address((1, 2, 4))
        assert Address((1, 2, 3)) < Address((2, 0, 0))
        assert Address((1, 2, 3)) <= Address((1, 2, 3))

    def test_sorting_is_deterministic(self):
        addresses = [Address((2, 0)), Address((1, 9)), Address((1, 2))]
        assert sorted(addresses) == [
            Address((1, 2)),
            Address((1, 9)),
            Address((2, 0)),
        ]

    def test_hash_equvalence(self):
        assert hash(Address((5, 6))) == hash(Address((5, 6)))
        assert Address((5, 6)) in {Address((5, 6))}

    def test_address_not_equal_to_prefix(self):
        assert Address((1, 2)) != Prefix((1, 2))


class TestPrefixes:
    def test_prefix_depths(self):
        address = Address.parse("128.178.73.3")
        assert address.prefix(1) == Prefix(())
        assert address.prefix(2) == Prefix((128,))
        assert address.prefix(4) == Prefix((128, 178, 73))

    def test_prefix_of_depth_i_has_i_minus_1_components(self):
        address = Address((9, 8, 7))
        for depth in range(1, 4):
            assert len(address.prefix(depth).components) == depth - 1
            assert address.prefix(depth).depth == depth

    def test_prefix_out_of_range(self):
        address = Address((1, 2))
        with pytest.raises(AddressError):
            address.prefix(0)
        with pytest.raises(AddressError):
            address.prefix(3)

    def test_prefixes_iterates_all_depths(self):
        address = Address((1, 2, 3))
        prefixes = list(address.prefixes())
        assert prefixes == [Prefix(()), Prefix((1,)), Prefix((1, 2))]

    def test_prefix_child_and_parent(self):
        prefix = Prefix((128,))
        assert prefix.child(178) == Prefix((128, 178))
        assert prefix.child(178).parent() == prefix

    def test_root_prefix_has_no_parent(self):
        with pytest.raises(AddressError):
            Prefix(()).parent()

    def test_is_prefix_of(self):
        prefix = Prefix((128, 178))
        assert prefix.is_prefix_of(Address((128, 178, 73)))
        assert not prefix.is_prefix_of(Address((128, 179, 73)))
        assert Prefix(()).is_prefix_of(Address((5,)))

    def test_prefix_parse_empty_string_is_root(self):
        assert Prefix.parse("") == Prefix(())
        assert Prefix.parse("128.178") == Prefix((128, 178))


class TestComponentAccess:
    def test_one_based_component(self):
        address = Address((10, 20, 30))
        assert address.component(1) == 10
        assert address.component(3) == 30

    def test_component_out_of_range(self):
        with pytest.raises(AddressError):
            Address((10,)).component(2)

