"""The compound spanning tree and delegate election (paper §2.1–2.2).

A :class:`MembershipTree` is the library's authoritative picture of a
group: the set of member addresses with their interests, organized by
prefix.  From it one derives, for every prefix (subgroup):

* the populated child components (``|x(1)...x(i-1)|`` in the paper);
* the member count ``‖x(1)...x(i-1)‖`` (Eq 4);
* the R *delegates* — "chosen deterministically by all processes
  sharing [the prefix], e.g., by taking the R processes with the
  smallest addresses".

Because delegates are the R smallest addresses at every level, the
delegates of a subgroup at any depth are exactly the R smallest member
addresses of the whole subtree — the recursive select/merge procedure
of §2.1 and this direct characterization coincide, which the tests
check explicitly.

The tree is a *model* object: the dissemination protocol never reads
it directly (processes only see their views); the view constructor
(:mod:`repro.membership.knowledge`) and the simulator use it as the
ground truth from which views are derived and against which metrics
are computed.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.addressing import Address, Prefix, component_key
from repro.errors import MembershipError
from repro.interests.subscriptions import Interest

__all__ = ["MembershipTree"]


class _SubtreeIndex:
    """Sorted member addresses per prefix, maintained incrementally.

    The list is kept sorted by :func:`component_key` — the same order
    as plain ``sorted()`` over addresses, but the bisect probes compare
    precomputed int tuples instead of calling ``Address.__lt__``.
    """

    __slots__ = ("members",)

    def __init__(self) -> None:
        self.members: List[Address] = []

    def add(self, address: Address) -> None:
        bisect.insort(self.members, address, key=component_key)

    def remove(self, address: Address) -> None:
        index = bisect.bisect_left(
            self.members, component_key(address), key=component_key
        )
        if index >= len(self.members) or self.members[index] != address:
            raise MembershipError(f"{address} is not in this subtree")
        del self.members[index]


class MembershipTree:
    """Group membership organized by address prefix.

    Args:
        depth: the address depth ``d``; every member address must have
            exactly this many components.
        redundancy: the delegate redundancy factor ``R`` (>= 1; the
            paper recommends ``R > 1``).
    """

    def __init__(self, depth: int, redundancy: int):
        if depth < 1:
            raise MembershipError(f"tree depth {depth} must be >= 1")
        if redundancy < 1:
            raise MembershipError(f"redundancy R={redundancy} must be >= 1")
        self._depth = depth
        self._redundancy = redundancy
        self._interests: Dict[Address, Interest] = {}
        self._index: Dict[Prefix, _SubtreeIndex] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        members: Mapping[Address, Interest],
        redundancy: int,
    ) -> "MembershipTree":
        """Build a tree from a full member -> interest mapping."""
        if not members:
            raise MembershipError("cannot build a tree with no members")
        depths = {address.depth for address in members}
        if len(depths) != 1:
            raise MembershipError(
                f"member addresses have mixed depths {sorted(depths)}"
            )
        tree = cls(depth=depths.pop(), redundancy=redundancy)
        for address, interest in members.items():
            tree.add(address, interest)
        return tree

    def add(self, address: Address, interest: Interest) -> None:
        """Add a member (used by the join protocol and the builder)."""
        if address.depth != self._depth:
            raise MembershipError(
                f"address {address} has depth {address.depth}, "
                f"tree expects {self._depth}"
            )
        if address in self._interests:
            raise MembershipError(f"{address} is already a member")
        self._interests[address] = interest
        for prefix in address.prefixes():
            self._index.setdefault(prefix, _SubtreeIndex()).add(address)

    def remove(self, address: Address) -> None:
        """Remove a member (leave or detected failure)."""
        if address not in self._interests:
            raise MembershipError(f"{address} is not a member")
        del self._interests[address]
        for prefix in address.prefixes():
            index = self._index[prefix]
            index.remove(address)
            if not index.members:
                del self._index[prefix]

    def update_interest(self, address: Address, interest: Interest) -> None:
        """Replace a member's interest (a re-subscription)."""
        if address not in self._interests:
            raise MembershipError(f"{address} is not a member")
        self._interests[address] = interest

    # -- inspection -------------------------------------------------------

    @property
    def depth(self) -> int:
        """The address depth ``d``."""
        return self._depth

    @property
    def redundancy(self) -> int:
        """The delegate redundancy factor ``R``."""
        return self._redundancy

    @property
    def size(self) -> int:
        """Total number of members ``n``."""
        return len(self._interests)

    def members(self) -> Iterator[Address]:
        """All member addresses (unspecified order)."""
        return iter(self._interests)

    def __contains__(self, address: Address) -> bool:
        return address in self._interests

    def interest_of(self, address: Address) -> Interest:
        """The member's own interest."""
        try:
            return self._interests[address]
        except KeyError:
            raise MembershipError(f"{address} is not a member") from None

    def is_populated(self, prefix: Prefix) -> bool:
        """True if at least one member shares ``prefix``."""
        return prefix in self._index

    def subtree_members(self, prefix: Prefix) -> Sequence[Address]:
        """Sorted member addresses sharing ``prefix`` (Eq 4's ``‖·‖`` set)."""
        index = self._index.get(prefix)
        return tuple(index.members) if index else ()

    def subtree_size(self, prefix: Prefix) -> int:
        """``‖prefix‖``: how many processes the subtree contains (Eq 4)."""
        index = self._index.get(prefix)
        return len(index.members) if index else 0

    def populated_children(self, prefix: Prefix) -> List[int]:
        """The populated child components of ``prefix``, sorted.

        This is the paper's ``|x(1)...x(i-1)|`` — "the number of
        different x(i) that can be appended to [the prefix] to denote an
        existing prefix" — returned as the concrete component values.
        """
        if len(prefix.components) >= self._depth:
            raise MembershipError(
                f"prefix {prefix} is already a full-depth prefix"
            )
        index = self._index.get(prefix)
        if index is None:
            return []
        position = len(prefix.components)
        seen = sorted({address.components[position] for address in index.members})
        return seen

    def branch_factor(self, prefix: Prefix) -> int:
        """``|prefix|``: the number of populated child subgroups."""
        if len(prefix.components) == self._depth - 1:
            # Depth-d prefix: children are the processes themselves.
            return self.subtree_size(prefix)
        return len(self.populated_children(prefix))

    # -- delegate election -------------------------------------------------

    def delegates(self, prefix: Prefix) -> Tuple[Address, ...]:
        """The R delegates representing the subgroup of ``prefix``.

        Delegates are the R smallest member addresses of the subtree
        (deterministic, so every member elects the same set without
        agreement).  If the subtree holds fewer than R members, all of
        them are delegates — the paper assumes every populated depth-d
        group has at least R members, but churn can transiently violate
        that, and electing everyone is the only sensible degraded mode.
        """
        index = self._index.get(prefix)
        if index is None:
            raise MembershipError(f"prefix {prefix} is not populated")
        return tuple(index.members[: self._redundancy])

    def is_delegate(self, address: Address, depth: int) -> bool:
        """True if ``address`` is a delegate of its subgroup at ``depth``.

        A delegate "of depth i" represents its subgroup denoted by its
        prefix of depth i and therefore appears in the depth ``i - 1``
        group; by construction a delegate of depth i is also a delegate
        of every depth in ``(i, d]``.
        """
        if not 1 <= depth <= self._depth:
            raise MembershipError(
                f"depth {depth} out of range [1, {self._depth}]"
            )
        return address in self.delegates(address.prefix(depth))

    def highest_depth(self, address: Address) -> int:
        """The shallowest depth at which ``address`` participates.

        Returns 1 if the address is a delegate all the way to the root
        (it appears in the root group), and ``d`` if it is delegate of
        no subgroup (an ordinary leaf process).  A process participates
        in gossip at every depth from this value down to ``d``.
        """
        if address not in self._interests:
            raise MembershipError(f"{address} is not a member")
        shallowest = self._depth
        for depth in range(self._depth - 1, 0, -1):
            # Delegate *of depth* depth+1 appears in the group *at*
            # depth `depth`; stop at the first non-delegacy.
            if self.is_delegate(address, depth + 1):
                shallowest = depth
            else:
                break
        return shallowest

    def group_at(self, prefix: Prefix) -> List[Tuple[int, Tuple[Address, ...]]]:
        """The group of a given depth: per child subgroup, its delegates.

        For a prefix of depth ``i < d`` this returns, for each populated
        child component ``x(i)``, the R delegates representing the child
        subtree — the population of the compound node of §2.1.  For a
        depth-d prefix the "delegates" of each child are the single
        processes themselves.
        """
        depth = prefix.depth
        if depth == self._depth:
            return [
                (address.components[-1], (address,))
                for address in self.subtree_members(prefix)
            ]
        return [
            (child, self.delegates(prefix.child(child)))
            for child in self.populated_children(prefix)
        ]
