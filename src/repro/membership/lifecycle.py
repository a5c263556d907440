"""The group directory: a group's one store of shared view tables (§2.3).

Joining: "When a process decides to join a group, it needs to know at
least one process that is already in that group. [...] Once these
neighbors have been contacted, they transmit their views of the group
to the new process."

Leaving: "A process wishing to leave informs a subset of its closest
neighbors.  These remove the leaving process from their views, and this
information successively propagates throughout the concerned subgroup
through subsequent gossips."

Both change the :class:`MembershipTree` ground truth and restamp every
view line on the changed prefix path: :class:`GroupDirectory` keeps the
tables that result.  Its two callers are the live runtime
(:meth:`repro.sim.runtime.GroupRuntime.join` / ``leave``, whose replicas
then pull the new versions) and the pub/sub facade
(:meth:`repro.pubsub.PubSubSystem.subscribe` / ``unsubscribe``, which
holds the converged tables directly).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.addressing import Address, Prefix
from repro.errors import MembershipError
from repro.interests.regrouping import RegroupPolicy
from repro.membership.knowledge import build_all_views, refresh_path
from repro.membership.tree import MembershipTree
from repro.membership.views import ViewTable

__all__ = ["GroupDirectory"]


class GroupDirectory:
    """The converged shared views of a running group, keyed by prefix.

    The one store of a group's shared tables: it pairs the
    :class:`MembershipTree` with the view tables it induces and keeps a
    logical clock, so every structural change restamps exactly the
    lines on the changed prefix path.  Tables are refreshed in place:
    whoever holds one sees the change without re-wiring.  A
    :class:`~repro.sim.runtime.GroupRuntime` replica holds frozen
    snapshots instead, and gossip pull carries a refreshed version only
    from a replica that holds it: a joiner's, wired at the new clock.
    A leave, an exclusion or an interest update refreshes the directory
    but enters no replica (ROADMAP item 1).
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
