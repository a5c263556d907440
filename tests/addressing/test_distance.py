"""Tests for the paper's address distance (§2.2), incl. ultrametricity."""

import pytest
from hypothesis import given, strategies as st

from repro.addressing import Address, distance, shared_prefix_depth
from repro.errors import AddressError


def addr(*components):
    return Address(components)


class TestSharedPrefixDepth:
    def test_disjoint_addresses_share_root(self):
        assert shared_prefix_depth(addr(1, 2, 3), addr(4, 5, 6)) == 1

    def test_partial_share(self):
        assert shared_prefix_depth(addr(1, 2, 3), addr(1, 9, 9)) == 2
        assert shared_prefix_depth(addr(1, 2, 3), addr(1, 2, 9)) == 3

    def test_equal_addresses_share_depth_d(self):
        assert shared_prefix_depth(addr(1, 2, 3), addr(1, 2, 3)) == 3

    def test_depth_mismatch_rejected(self):
        with pytest.raises(AddressError):
            shared_prefix_depth(addr(1, 2), addr(1, 2, 3))


class TestDistance:
    def test_paper_formula(self):
        # distance = d - i + 1 where i is the shared prefix depth
        assert distance(addr(1, 2, 3), addr(4, 5, 6)) == 3
        assert distance(addr(1, 2, 3), addr(1, 5, 6)) == 2
        assert distance(addr(1, 2, 3), addr(1, 2, 6)) == 1

    def test_equal_addresses_have_distance_zero(self):
        assert distance(addr(1, 2, 3), addr(1, 2, 3)) == 0

    def test_symmetry_example(self):
        a, b = addr(128, 178, 73), addr(128, 9, 73)
        assert distance(a, b) == distance(b, a)

    def test_immediate_neighbors(self):
        # Processes sharing the depth-d prefix are at distance 1.
        a = Address.parse("128.178.73.3")
        b = Address.parse("128.178.73.17")
        assert distance(a, b) == 1


class TestSameSubgroup:
    def test_same_subgroup_by_depth(self):
        # The subgroup of depth i of an address is its prefix of depth
        # i (the root's is empty), so two addresses share it iff they
        # share i - 1 components.
        a, b = addr(1, 2, 3), addr(1, 2, 9)
        for depth in (1, 2, 3):
            assert a.prefix(depth) == b.prefix(depth)
        c = addr(1, 5, 3)
        assert a.prefix(2) == c.prefix(2)
        assert a.prefix(3) != c.prefix(3)


addresses_3 = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
).map(Address)


class TestDistanceProperties:
    @given(addresses_3, addresses_3)
    def test_symmetric(self, a, b):
        assert distance(a, b) == distance(b, a)

    @given(addresses_3, addresses_3)
    def test_zero_iff_equal(self, a, b):
        assert (distance(a, b) == 0) == (a == b)

    @given(addresses_3, addresses_3)
    def test_bounded_by_depth(self, a, b):
        assert 0 <= distance(a, b) <= a.depth

    @given(addresses_3, addresses_3, addresses_3)
    def test_ultrametric_inequality(self, a, b, c):
        # Prefix distances satisfy the strong triangle inequality.
        assert distance(a, c) <= max(distance(a, b), distance(b, c))
