"""Building a runnable pmcast group.

:class:`PmcastGroup` assembles the whole stack for a set of members:
the :class:`~repro.membership.tree.MembershipTree`, the converged view
tables (shared per prefix — every process of a subgroup sees the same
converged table, see :mod:`repro.membership.knowledge`), and one
:class:`~repro.core.node.PmcastNode` per member.
"""

from __future__ import annotations

from itertools import repeat
from operator import contains
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.addressing import Address, Prefix
from repro.config import PmcastConfig
from repro.core import node as node_state
from repro.core.node import PmcastNode
from repro.errors import SimulationError
from repro.interests.events import Event
from repro.interests.regrouping import RegroupPolicy
from repro.interests.subscriptions import Interest
from repro.membership.knowledge import build_all_views
from repro.membership.tree import MembershipTree
from repro.membership.views import ViewTable
from repro.sim.metrics import DisseminationReport

__all__ = ["PmcastGroup", "assemble_pmcast_report"]


class PmcastGroup:
    """A fully wired group of pmcast nodes.

    Build with :meth:`PmcastGroup.build`; then hand it to
    :func:`repro.sim.engine.run_dissemination` (or drive the nodes
    yourself for custom experiments).
    """

    def __init__(
        self,
        tree: MembershipTree,
        tables: Dict[Prefix, ViewTable],
        nodes: Dict[Address, PmcastNode],
        config: PmcastConfig,
    ):
        self._tree = tree
        self._tables = tables
        self._nodes = nodes
        self._config = config
        # The membership of a group object is fixed once it is built
        # (PubSubSystem snapshots a new one per publish), so the sorted
        # order every run asks for several times is read once, off the
        # tree's root list.
        self._sorted = tree.subtree_members(Prefix(()))
        self._in_order = list(map(nodes.__getitem__, self._sorted))

    @classmethod
    def build(
        cls,
        members: Mapping[Address, Interest],
        config: Optional[PmcastConfig] = None,
        regroup_policy: Optional[RegroupPolicy] = None,
    ) -> "PmcastGroup":
        """Wire a group from a member -> interest mapping.

        Args:
            members: every process with its subscription.
            config: protocol parameters (defaults to
                :class:`~repro.config.PmcastConfig`'s defaults).
            regroup_policy: interest-regrouping compaction (exact union
                by default).
        """
        if not members:
            raise SimulationError("cannot build an empty group")
        config = config or PmcastConfig()
        tree = MembershipTree.build(members, redundancy=config.redundancy)
        tables = build_all_views(tree, policy=regroup_policy)
        nodes: Dict[Address, PmcastNode] = {}
        # The members of a leaf subgroup share every table on their
        # prefix path, so the depth -> table mapping is assembled and
        # checked once per subgroup, not once per member.
        wiring: Dict[Prefix, Dict[int, ViewTable]] = {}
        for address, interest in members.items():
            prefixes = address.prefixes()
            views = wiring.get(prefixes[-1])
            if views is None:
                views = {prefix.depth: tables[prefix] for prefix in prefixes}
                PmcastNode.check_views(address, views)
                wiring[prefixes[-1]] = views
            nodes[address] = PmcastNode.wired(address, interest, views, config)
        return cls(tree, tables, nodes, config)

    @property
    def tree(self) -> MembershipTree:
        """The membership ground truth."""
        return self._tree

    @property
    def config(self) -> PmcastConfig:
        """The protocol parameters shared by all nodes."""
        return self._config

    @property
    def size(self) -> int:
        """The number of processes n."""
        return len(self._nodes)

    def node(self, address: Address) -> PmcastNode:
        """The node at ``address``."""
        try:
            return self._nodes[address]
        except KeyError:
            raise SimulationError(f"{address} is not in the group") from None

    def nodes(self) -> Iterator[PmcastNode]:
        """All nodes (unspecified order)."""
        return iter(self._nodes.values())

    def ordered_nodes(self) -> List[PmcastNode]:
        """All nodes in :meth:`addresses` order (a fresh list each call)."""
        return list(self._in_order)

    def nodes_at(self, addresses: Iterable[Address]) -> Iterator[PmcastNode]:
        """The nodes at ``addresses``, in the order given (members only)."""
        return map(self._nodes.__getitem__, addresses)

    def addresses(self) -> List[Address]:
        """All member addresses, sorted (a fresh list each call)."""
        return list(self._sorted)

    def table(self, prefix: Prefix) -> ViewTable:
        """The shared converged view table of a populated prefix."""
        try:
            return self._tables[prefix]
        except KeyError:
            raise SimulationError(f"no view table for prefix {prefix}") from None

    def interested_members(self, event: Event) -> List[Address]:
        """Ground truth: members whose own interest matches ``event``."""
        return [
            address
            for address in self.addresses()
            if self._tree.interest_of(address).matches(event)
        ]


def assemble_pmcast_report(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    interested: set,
    infected_count: int,
    rounds: int,
    infection_curve: Tuple[int, ...],
    messages_by_distance: Tuple[int, ...],
    messages_lost: int,
    crashed: int,
    sent_before: int = 0,
    receptions_before: int = 0,
) -> DisseminationReport:
    """Read a run's outcome back out of the group's nodes.

    The report is a pure function of the node state after the last
    round plus the run-level tallies the caller tracked — shared by
    :meth:`~repro.variants.pmcast.PmcastVariant.finalize`, the compat
    kernel (after its ``restore_outcome`` write-back) and the
    event-driven runtimes in :mod:`repro.net`, so every execution
    style scores a run with the same arithmetic.
    """
    def holding(reader, nodes) -> int:
        """How many of ``nodes`` hold the event in the set ``reader`` reads."""
        return sum(map(contains, map(reader, nodes), repeat(event.event_id)))

    interested_nodes = list(group.nodes_at(interested))
    delivered_interested = holding(node_state.delivered_ids, interested_nodes)
    # The uninterested are the members neither interested nor the
    # publisher: their receptions are everyone's less those two sets'.
    outside = publisher not in interested
    received_uninterested = (
        holding(node_state.received_ids, group.nodes())
        - holding(node_state.received_ids, interested_nodes)
        - (outside and group.node(publisher).has_received(event))
    )
    messages_sent = sum(map(node_state.sent_of, group.nodes())) - sent_before
    receptions = (
        sum(map(node_state.receptions_of, group.nodes())) - receptions_before
    )
    first_receptions = infected_count - 1  # the publisher never receives
    return DisseminationReport(
        group_size=group.size,
        interested=len(interested),
        uninterested=group.size - len(interested) - outside,
        delivered_interested=delivered_interested,
        received_uninterested=received_uninterested,
        received_total=infected_count,
        crashed=crashed,
        rounds=rounds,
        messages_sent=messages_sent,
        messages_lost=messages_lost,
        duplicate_receptions=max(receptions - first_receptions, 0),
        infection_curve=infection_curve,
        messages_by_distance=messages_by_distance,
    )
