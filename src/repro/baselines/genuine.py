"""Tree-structured genuine multicast: the isolation failure mode (§1).

"One can also modify an existing gossip-based broadcast algorithm to
perform the filtering before gossiping [...] However, such a genuine
multicast would clearly offer a limited reliability.  Indeed, a crucial
intermediate process might not be interested in an event, leading to
the isolation of interested processes."

This baseline runs the *same* pmcast machinery over the *same* tree,
with one change: a view row's interest is the union of the interests of
the row's R **delegates themselves**, not of the whole subtree they
represent.  A delegate uninterested in an event is then never gossiped
to — and every interested process behind it is cut off.  Comparing this
module's delivery ratio with real pmcast quantifies how much of
pmcast's reliability comes from making delegates susceptible on behalf
of the processes they represent.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.addressing import Address, Prefix
from repro.config import PmcastConfig
from repro.errors import SimulationError
from repro.interests.regrouping import regroup
from repro.interests.subscriptions import Interest
from repro.membership.tree import MembershipTree
from repro.membership.views import ViewRow, ViewTable
from repro.sim.group import PmcastGroup

__all__ = ["build_genuine_group"]


def _genuine_view(tree: MembershipTree, prefix: Prefix) -> ViewTable:
    """A view whose rows only reflect the delegates' own interests."""
    leaf = prefix.depth == tree.depth
    rows = []
    for child, members in tree.child_subtrees(prefix):
        delegates = tuple(members[: tree.redundancy])
        interests = tree.interests_of(delegates)
        summary = next(interests) if leaf else regroup(interests)
        rows.append(ViewRow(child, delegates, summary, len(members)))
    return ViewTable(prefix, tree.depth, rows)


def build_genuine_group(
    members: Mapping[Address, Interest],
    config: Optional[PmcastConfig] = None,
) -> PmcastGroup:
    """Wire a group that filters on delegates' own interests.

    Drop-in replacement for :meth:`repro.sim.group.PmcastGroup.build`;
    run it with :func:`repro.sim.engine.run_dissemination` and compare.
    """
    if not members:
        raise SimulationError("cannot build an empty group")
    config = config or PmcastConfig()
    tree = MembershipTree.build(members, redundancy=config.redundancy)
    tables: Dict[Prefix, ViewTable] = {}
    for address in members:
        for prefix in address.prefixes():
            if prefix not in tables:
                tables[prefix] = _genuine_view(tree, prefix)
    return PmcastGroup(tree, tables, config)
