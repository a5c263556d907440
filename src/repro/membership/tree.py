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
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.addressing import Address, Prefix, component_key
from repro.errors import MembershipError
from repro.interests.subscriptions import Interest

__all__ = ["MembershipTree"]


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
        # Per populated prefix, its members sorted by component_key (the
        # order of plain sorted() over addresses, with the bisect probes
        # comparing precomputed int tuples instead of calling __lt__).
        self._index: Dict[Prefix, List[Address]] = {}

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
        tree._interests = dict(members)
        # Appending the members in sorted order leaves every prefix's
        # list sorted, so the bulk build needs no insort.
        index = tree._index
        for address in sorted(members, key=component_key):
            for prefix in address.prefixes():
                subtree = index.get(prefix)
                if subtree is None:
                    index[prefix] = [address]
                else:
                    subtree.append(address)
        return tree

    def add(self, address: Address, interest: Interest) -> None:
        """Add a member (the join protocol's path)."""
        if address.depth != self._depth:
            raise MembershipError(
                f"address {address} has depth {address.depth}, "
                f"tree expects {self._depth}"
            )
        if address in self._interests:
            raise MembershipError(f"{address} is already a member")
        self._interests[address] = interest
        for prefix in address.prefixes():
            bisect.insort(
                self._index.setdefault(prefix, []), address, key=component_key
            )

    def remove(self, address: Address) -> None:
        """Remove a member (leave or detected failure)."""
        if address not in self._interests:
            raise MembershipError(f"{address} is not a member")
        del self._interests[address]
        key = component_key(address)
        for prefix in address.prefixes():
            subtree = self._index[prefix]
            if len(subtree) == 1:
                del self._index[prefix]
            else:
                del subtree[bisect.bisect_left(subtree, key, key=component_key)]

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
        return tuple(self._index.get(prefix, ()))

    def subtree_size(self, prefix: Prefix) -> int:
        """``‖prefix‖``: how many processes the subtree contains (Eq 4)."""
        return len(self._index.get(prefix, ()))

    def interests_of(self, addresses: Iterable[Address]) -> Iterator[Interest]:
        """The members' own interests, in the order given."""
        return map(self._interests.__getitem__, addresses)

    def child_subtrees(
        self, prefix: Prefix
    ) -> List[Tuple[int, Sequence[Address]]]:
        """Per populated child component of ``prefix``, in order, the
        sorted members of the child subtree — a process alone below a
        depth-d prefix.

        A child subtree is a run of ``prefix``'s sorted list, so the
        walk steps over that list one child at a time, never one member
        at a time.  The member lists are the tree's own: read them, do
        not keep or change them.
        """
        position = len(prefix.components)
        if position >= self._depth:
            raise MembershipError(
                f"prefix {prefix} is already a full-depth prefix"
            )
        members = self._index.get(prefix, ())
        if position == self._depth - 1:
            return [(address.components[-1], (address,)) for address in members]
        index = self._index
        children = []
        at = 0
        while at < len(members):
            first = members[at]
            subtree = index[first.prefixes()[position + 1]]
            children.append((first.components[position], subtree))
            at += len(subtree)
        return children

    def populated_children(self, prefix: Prefix) -> List[int]:
        """The populated child components of ``prefix``, sorted.

        This is the paper's ``|x(1)...x(i-1)|`` — "the number of
        different x(i) that can be appended to [the prefix] to denote an
        existing prefix" — returned as the concrete component values.
        """
        return [child for child, __ in self.child_subtrees(prefix)]

    def branch_factor(self, prefix: Prefix) -> int:
        """``|prefix|``: the number of populated child subgroups (at a
        depth-d prefix, its processes)."""
        return len(self.child_subtrees(prefix))

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
        members = self._index.get(prefix)
        if members is None:
            raise MembershipError(f"prefix {prefix} is not populated")
        return tuple(members[: self._redundancy])

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
