"""The paper's address distance (§2.2).

"The distance between two processes is inverse proportional to the
length of their longest common prefix: if the longest prefix that two
processes share is of depth i, then their distance is given by
d - i + 1.  [...]  A distance of 0 would mean that the two processes
share the same address."

Because prefixes nest, this distance is an *ultrametric*:
``dist(x, z) <= max(dist(x, y), dist(y, z))`` — a property the test
suite checks with hypothesis.
"""

from __future__ import annotations

from repro.addressing.address import Address
from repro.errors import AddressError

__all__ = [
    "shared_prefix_depth",
    "distance",
]


def shared_prefix_depth(left: Address, right: Address) -> int:
    """Depth of the longest prefix shared by the two addresses.

    Two addresses with no common leading component share only the empty
    prefix, of depth 1.  Two distinct addresses differing only in the
    last component share the depth-``d`` prefix.  Equal addresses also
    share the depth-``d`` prefix (their "distance" is then 0, handled by
    :func:`distance`).

    Raises:
        AddressError: if the addresses have different depths.
    """
    if left.depth != right.depth:
        raise AddressError(
            f"addresses {left} and {right} have different depths"
        )
    common = 0
    for mine, theirs in zip(left.components, right.components):
        if mine != theirs:
            break
        common += 1
    return min(common + 1, left.depth)


def distance(left: Address, right: Address) -> int:
    """The paper's distance ``d - i + 1`` (0 for equal addresses)."""
    if left == right:
        return 0
    depth = shared_prefix_depth(left, right)
    return left.depth - depth + 1
