"""Building a runnable pmcast group, and scoring a run on it.

:class:`PmcastGroup` is the immutable wiring of a set of members: the
:class:`~repro.membership.tree.MembershipTree`, the converged view
tables (shared per prefix — every process of a subgroup sees the same
converged table, see :mod:`repro.membership.knowledge`), the protocol
parameters, the members already down, and the static columns every run
reads.  It holds no per-run state: a run wires the
:class:`~repro.core.node.PmcastNode` objects it steps from the group
(:meth:`PmcastGroup.node`), or steps arrays, and returns its
:class:`RunOutcome`, which :func:`assemble_pmcast_report` scores.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Collection, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.addressing import Address, Prefix, component_key
from repro.config import PmcastConfig
from repro.core.node import PmcastNode
from repro.errors import SimulationError
from repro.interests.events import Event
from repro.interests.regrouping import RegroupPolicy
from repro.interests.subscriptions import Interest
from repro.membership.knowledge import build_all_views
from repro.membership.tree import MembershipTree
from repro.membership.views import ViewTable
from repro.sim.metrics import DisseminationReport

__all__ = ["PmcastGroup", "RunOutcome", "assemble_pmcast_report"]


class PmcastGroup:
    """The wiring of a pmcast group: what every run on it starts from.

    Build with :meth:`PmcastGroup.build`; then hand it to
    :func:`repro.sim.engine.run_dissemination` (or step the nodes
    :meth:`node` wires yourself for custom experiments).

    Columns over :meth:`addresses` order, read by the array kernel and
    the report: ``index_of`` (address -> index), ``interests``,
    ``table_ids`` (an ``n × d`` array: the id of each member's view
    table per depth, ``tables_by_id`` the table; :meth:`views` per
    member as a mapping), ``components`` (an ``n × d`` array) and ``alive`` (False
    at the members in ``down``).  None of them changes after
    construction.
    """

    def __init__(
        self,
        tree: MembershipTree,
        tables: Dict[Prefix, ViewTable],
        config: PmcastConfig,
        down: Collection[Address] = (),
    ):
        self._tree = tree
        self._tables = tables
        self._config = config
        self._sorted = tree.subtree_members(Prefix(()))
        n = len(self._sorted)
        if not n:
            raise SimulationError("cannot build an empty group")
        self.index_of: Dict[Address, int] = dict(zip(self._sorted, range(n)))
        self._down = frozenset(down)
        stray = self._down - self.index_of.keys()
        if stray:
            raise SimulationError(f"{min(stray)} is not in the group")
        self.interests: List[Interest] = list(tree.interests_of(self._sorted))
        self.components = np.fromiter(
            chain.from_iterable(map(component_key, self._sorted)), np.int64
        ).reshape(n, -1)
        # The members of a leaf subgroup share every table on their
        # prefix path, and, sorted, they are a run of rows: their tables
        # are looked up and checked at a run's first member only.  A
        # table's id is its prefix's place in first-seen order.
        moved = np.any(np.diff(self.components[:, :-1], axis=0) != 0, axis=1)
        self._leaf_of = np.concatenate(([0], np.cumsum(moved)))
        table_id: Dict[Prefix, int] = {}
        self._leaf_views: List[Dict[int, ViewTable]] = []
        leaf_ids: List[List[int]] = []
        for first in np.flatnonzero(np.concatenate(([True], moved))).tolist():
            address = self._sorted[first]
            prefixes = address.prefixes()
            views = {prefix.depth: tables[prefix] for prefix in prefixes}
            PmcastNode.check_views(address, views)
            self._leaf_views.append(views)
            leaf_ids.append([table_id.setdefault(p, len(table_id)) for p in prefixes])
        self.table_ids = np.array(leaf_ids, np.int64)[self._leaf_of]
        self.tables_by_id: List[ViewTable] = [tables[prefix] for prefix in table_id]
        self.alive = np.ones(n, bool)
        for address in self._down:
            self.alive[self.index_of[address]] = False
        for column in (self.components, self.alive, self.table_ids):
            column.flags.writeable = False

    @classmethod
    def build(
        cls,
        members: Mapping[Address, Interest],
        config: Optional[PmcastConfig] = None,
        regroup_policy: Optional[RegroupPolicy] = None,
        down: Collection[Address] = (),
    ) -> "PmcastGroup":
        """Wire a group from a member -> interest mapping.

        Args:
            members: every process with its subscription.
            config: protocol parameters (defaults to
                :class:`~repro.config.PmcastConfig`'s defaults).
            regroup_policy: interest-regrouping compaction (exact union
                by default).
            down: members that have already crashed: still in every
                view (nobody has excluded them), but they never gossip,
                receive or publish.
        """
        if not members:
            raise SimulationError("cannot build an empty group")
        config = config or PmcastConfig()
        tree = MembershipTree.build(members, redundancy=config.redundancy)
        return cls(tree, build_all_views(tree, policy=regroup_policy), config, down)

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
        return len(self._sorted)

    def node(self, address: Address) -> PmcastNode:
        """A fresh, idle node for ``address``, wired from the group's
        tables: alive unless the member is down.  Each call builds a new
        one, so a driver keeps the nodes it steps."""
        index = self.index_of.get(address)
        if index is None:
            raise SimulationError(f"{address} is not in the group")
        node = PmcastNode.wired(address, self.interests[index], self.views(index), self._config)
        node.alive = address not in self._down
        return node

    def views(self, index: int) -> Dict[int, ViewTable]:
        """Member ``index``'s view tables by depth: its leaf subgroup's
        mapping, shared by the subgroup, so read only."""
        return self._leaf_views[self._leaf_of[index]]

    def addresses(self) -> List[Address]:
        """All member addresses, sorted (a fresh list each call)."""
        return list(self._sorted)

    def interest_mask(self, event: Event) -> np.ndarray:
        """Ground truth per member, in :meth:`addresses` order: whether
        its own interest matches ``event``."""
        return np.fromiter(
            (interest.matches(event) for interest in self.interests), bool, self.size
        )

    def interested_members(self, event: Event) -> List[Address]:
        """Ground truth: members whose own interest matches ``event``."""
        return list(compress(self._sorted, self.interest_mask(event)))

    def check_publisher(self, publisher: Address) -> None:
        """Raise :class:`SimulationError` unless ``publisher`` is a live
        member (every driver checks this before its first draw)."""
        if publisher not in self.index_of:
            raise SimulationError(f"{publisher} is not in the group")
        if publisher in self._down:
            raise SimulationError(f"publisher {publisher} has crashed")


class RunOutcome(NamedTuple):
    """One dissemination's per-member state when it ends, as columns
    over :meth:`PmcastGroup.addresses`: whether the member is ``alive``,
    has ``received`` and ``delivered`` the event, how many gossip
    messages it ``sent`` and how many ``receptions`` it had (duplicates
    included), and its leftover buffer entry — ``buf_depth`` (0: none),
    ``buf_rate`` and ``buf_round``."""

    alive: np.ndarray
    received: np.ndarray
    delivered: np.ndarray
    sent: np.ndarray
    receptions: np.ndarray
    buf_depth: np.ndarray
    buf_rate: np.ndarray
    buf_round: np.ndarray

    @classmethod
    def from_nodes(
        cls, group: PmcastGroup, nodes: Iterable[PmcastNode], event: Event
    ) -> "RunOutcome":
        """The outcome of a run that stepped ``nodes`` (one per member it
        touched, wired by :meth:`PmcastGroup.node`): an untouched member
        reads as the group left it."""
        n = group.size
        alive = group.alive.copy()
        received, delivered = np.zeros((2, n), bool)
        sent, receptions, buf_depth, buf_round = np.zeros((4, n), np.int64)
        buf_rate = np.zeros(n)
        index_of = group.index_of
        for node in nodes:
            i = index_of[node.address]
            alive[i] = node.alive
            received[i] = node.has_received(event)
            delivered[i] = node.has_delivered(event)
            sent[i] = node.messages_sent
            receptions[i] = node.receptions
            for depth, entry in node.buffers:
                buf_depth[i], buf_rate[i], buf_round[i] = depth, entry.rate, entry.round
        return cls(alive, received, delivered, sent, receptions, buf_depth, buf_rate, buf_round)


def assemble_pmcast_report(
    group: PmcastGroup,
    publisher: Address,
    outcome: RunOutcome,
    interested: np.ndarray,
    rounds: int,
    infection_curve: Tuple[int, ...],
    messages_by_distance: Tuple[int, ...],
    messages_lost: int,
    crashed: int,
) -> DisseminationReport:
    """Score a run: its outcome, the ground truth ``interested`` (a mask
    in :meth:`PmcastGroup.addresses` order, before anybody crashed) and
    the tallies its driver kept.

    Shared by the scalar loop, the array kernel and the event-driven
    runtimes in :mod:`repro.net`, so every execution style scores a run
    with the same arithmetic.
    """
    outside = not interested[group.index_of[publisher]]
    wanted = int(np.count_nonzero(interested))
    received_total = int(np.count_nonzero(outcome.received))
    received_interested = int(np.count_nonzero(outcome.received & interested))
    first_receptions = received_total - 1  # the publisher never receives
    receptions = int(outcome.receptions.sum())
    return DisseminationReport(
        group_size=group.size,
        interested=wanted,
        uninterested=group.size - wanted - outside,
        delivered_interested=int(np.count_nonzero(outcome.delivered & interested)),
        # The uninterested are the members neither interested nor the
        # publisher, who always holds the event.
        received_uninterested=received_total - received_interested - outside,
        received_total=received_total,
        crashed=crashed,
        rounds=rounds,
        messages_sent=int(outcome.sent.sum()),
        messages_lost=messages_lost,
        duplicate_receptions=max(receptions - first_receptions, 0),
        infection_curve=infection_curve,
        messages_by_distance=messages_by_distance,
    )
