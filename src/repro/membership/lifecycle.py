"""Join and leave protocols (paper §2.3).

Joining: "When a process decides to join a group, it needs to know at
least one process that is already in that group.  Latter process
contacts the 'lowest' delegates it knows that the joining process will
have.  This is made recursively, until the most immediate delegates of
the new process have been contacted.  Once these neighbors have been
contacted, they transmit their views of the group to the new process."

Leaving: "A process wishing to leave informs a subset of its closest
neighbors.  These remove the leaving process from their views, and this
information successively propagates throughout the concerned subgroup
through subsequent gossips."

These protocols mutate the :class:`MembershipTree` ground truth and
stamp fresh timestamps on every affected view line, so that gossip-pull
anti-entropy (:mod:`repro.membership.gossip_pull`) then spreads the
change to stale replicas — the loose coordination the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.addressing import Address, Prefix
from repro.errors import MembershipError
from repro.interests.regrouping import RegroupPolicy
from repro.interests.subscriptions import Interest
from repro.membership.knowledge import (
    build_all_views,
    build_process_views,
    refresh_path,
)
from repro.membership.tree import MembershipTree
from repro.membership.views import ViewTable

__all__ = ["JoinResult", "GroupDirectory", "join", "leave"]


@dataclass
class JoinResult:
    """Outcome of a join: contact trace and the transmitted views."""

    new_member: Address
    contact_trace: List[Address]
    views: Dict[int, ViewTable] = field(repr=False, default_factory=dict)


class GroupDirectory:
    """The converged shared views of a running group, keyed by prefix.

    The one store of a group's shared tables: it pairs the
    :class:`MembershipTree` with the view tables it induces and keeps a
    logical clock, so every structural change restamps exactly the
    lines on the changed prefix path.  Tables are refreshed in place:
    whoever holds one sees the change without re-wiring, and stale
    per-process replicas catch up via gossip pull.
    """

    def __init__(
        self,
        tree: MembershipTree,
        policy: Optional[RegroupPolicy] = None,
    ):
        self._tree = tree
        self._policy = policy
        self._clock = 0
        self._tables = build_all_views(tree, 0, policy)

    @property
    def tree(self) -> MembershipTree:
        """The membership ground truth."""
        return self._tree

    @property
    def clock(self) -> int:
        """The current logical time (last stamped timestamp)."""
        return self._clock

    @property
    def tables(self) -> Dict[Prefix, ViewTable]:
        """Every populated prefix's table (the live mapping: read only)."""
        return self._tables

    def tick(self) -> int:
        """Advance and return the logical clock."""
        self._clock += 1
        return self._clock

    def table(self, prefix: Prefix) -> ViewTable:
        """The converged table of a populated prefix."""
        try:
            return self._tables[prefix]
        except KeyError:
            raise MembershipError(f"no view for prefix {prefix}") from None

    def path(self, address: Address) -> Dict[int, ViewTable]:
        """The tables on ``address``'s prefix path, by depth: a member's
        whole view (Figure 1's shaded knowledge)."""
        tables = self._tables
        return {prefix.depth: tables[prefix] for prefix in address.prefixes()}

    def refresh_path(self, address: Address) -> Tuple[list, list, list]:
        """Refresh the tables on ``address``'s prefix path in place at a
        new time; ``(written, created, dropped)`` as
        :func:`~repro.membership.knowledge.refresh_path` returns them."""
        return refresh_path(
            self._tree, self._tables, address, self.tick(), self._policy
        )


def join(
    directory: GroupDirectory,
    contact: Address,
    new_address: Address,
    interest: Interest,
) -> JoinResult:
    """Run the join protocol of §2.3 through ``contact``.

    The contact walks the new member's future prefix path from the
    shallowest depth down, at each depth contacting the delegates of the
    deepest *already populated* subgroup the new process will share —
    "recursively, until the most immediate delegates of the new process
    have been contacted".  Those immediate neighbors then transmit the
    (updated) views to the new process.

    Returns:
        a :class:`JoinResult` with the ordered, de-duplicated contact
        trace and the views handed to the newcomer.

    Raises:
        MembershipError: if the contact is not a member or the address
            is already taken.
    """
    tree = directory.tree
    if contact not in tree:
        raise MembershipError(f"contact {contact} is not a member")
    if new_address in tree:
        raise MembershipError(f"{new_address} is already a member")
    if new_address.depth != tree.depth:
        raise MembershipError(
            f"{new_address} has depth {new_address.depth}, "
            f"group uses depth {tree.depth}"
        )

    # Walk down the new process's prefix path while subgroups are
    # populated, collecting the delegates to contact at each depth.
    trace: List[Address] = [contact]
    seen = {contact}
    deepest_populated: Optional[Prefix] = None
    for prefix in new_address.prefixes():
        if not tree.is_populated(prefix):
            break
        deepest_populated = prefix
        for delegate in tree.delegates(prefix):
            if delegate not in seen:
                seen.add(delegate)
                trace.append(delegate)
    if deepest_populated is not None and deepest_populated.depth == tree.depth:
        # The immediate neighbors (whole depth-d subgroup), not only
        # its delegates, learn of the newcomer.
        for neighbor in tree.subtree_members(deepest_populated):
            if neighbor not in seen:
                seen.add(neighbor)
                trace.append(neighbor)

    tree.add(new_address, interest)
    directory.refresh_path(new_address)
    views = build_process_views(tree, new_address, directory.clock)
    return JoinResult(new_member=new_address, contact_trace=trace, views=views)


def leave(directory: GroupDirectory, address: Address) -> List[Address]:
    """Run the leave protocol of §2.3.

    The leaving process informs its closest neighbors (its depth-d
    subgroup); the directory drops it from the tree and re-stamps every
    line on its prefix path so anti-entropy propagates the removal.

    Returns:
        the neighbors that were informed directly.

    Raises:
        MembershipError: if ``address`` is not a member.
    """
    tree = directory.tree
    if address not in tree:
        raise MembershipError(f"{address} is not a member")
    neighbors = [
        member
        for member in tree.subtree_members(address.prefix(tree.depth))
        if member != address
    ]
    tree.remove(address)
    directory.refresh_path(address)
    return neighbors
