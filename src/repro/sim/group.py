"""Building a runnable pmcast group, and scoring a run on it.

:class:`PmcastGroup` is the immutable wiring of a set of members: the
:class:`~repro.membership.tree.MembershipTree`, the converged view
tables (shared per prefix — every process of a subgroup sees the same
converged table, see :mod:`repro.membership.knowledge` — and held as
columns over the sorted members, a leaf table object built only when
asked for), the protocol parameters, the members already down, and the
static columns every run reads.  It holds no per-run state: a run wires the
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
from repro.interests.columns import VerdictColumns
from repro.membership.knowledge import build_view
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
    ``components`` (an ``n × d`` array) and ``alive`` (False at the
    members in ``down``).

    **Tables as member runs.**  Sorted, the members of a subgroup are a
    run of indices, so every view table is a slice of the members: a
    leaf table's rows are its leaf subgroup's run, and an inner row's
    delegates are the first R members of its child's run (§2.1).  The
    group derives every table's entries from the sorted members in one
    array pass, as the columns a static run wires from:

    - ``table_ids`` (``n × d``): the id of each member's table per
      depth, in the order the sorted members first reach them, and
      ``table_depth``, each id's depth (a list);
    - ``entries`` (member indices, every table's entries in view order,
      table after table) with ``entry_bounds``, and ``entry_interest``,
      each entry's row interest as a position in ``verdicts``;
    - ``row_interest`` with ``row_bounds``: each table's row interests
      as positions, compiled once per group into ``verdicts``;
    - ``interest_at``: each member's own interest as a position in
      ``verdicts``;
    - ``own`` (``n × d``): where each member is an entry of its own
      table per depth (-1: it is not) — at a leaf, ``index − run
      start``.

    Entries ascend by index, so a table's flood order (§6, address
    order) is its entry order.

    **Tables as objects.**  Inner tables are built with the group.  A
    leaf table, one :class:`~repro.membership.views.ViewRow` per member,
    is built by :func:`~repro.membership.knowledge.build_view` the first
    time something asks for it — :meth:`views`, :meth:`node` or
    :meth:`table` (by id) — unless it was given: explicit tables are
    used as given, once checked to be the tree's runs.  Nothing here
    changes after construction.
    """

    def __init__(
        self,
        tree: MembershipTree,
        tables: Dict[Prefix, ViewTable],
        config: PmcastConfig,
        down: Collection[Address] = (),
    ):
        """``tables`` holds a table per populated inner prefix, and may
        hold leaf tables too (:meth:`build` gives none)."""
        self._tree = tree
        self._tables = dict(tables)
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
        self._check_given()
        self._wire_columns(tree.redundancy)
        self._views: Dict[int, Dict[int, ViewTable]] = {}
        self.alive = np.ones(n, bool)
        for address in self._down:
            self.alive[self.index_of[address]] = False
        for column in (
            self.components, self.alive, self.table_ids, self.entries, self.entry_bounds,
            self.entry_interest, self.row_interest, self.row_bounds, self.interest_at, self.own,
        ):
            column.flags.writeable = False

    def _wire_columns(self, redundancy: int) -> None:
        """The table columns (see the class docstring), in one pass per
        depth over the sorted members."""
        components = self.components
        n, d = components.shape
        # Where each member leaves the previous one's prefix: the first
        # component they differ in (-1 at the first member).
        change = np.full(n, -1, np.int64)
        change[1:] = np.argmax(components[1:] != components[:-1], axis=1)
        # starts[k]: where a run of members sharing k components begins.
        # A depth-k table is a run sharing k - 1, its rows runs sharing k
        # (a member each, at the leaf depth).
        starts = [change < k for k in range(d + 1)]
        runs = [np.cumsum(start) - 1 for start in starts]
        heads = [np.flatnonzero(start) for start in starts]
        # A table's id is its place in the order the members first reach
        # it: by first member, then depth.
        first = np.concatenate(heads[:d])
        depth = np.repeat(np.arange(1, d + 1), [len(h) for h in heads[:d]])
        order = np.lexsort((depth, first))
        id_of = np.empty(len(order), np.int64)
        id_of[order] = np.arange(len(order))
        self._first, self.table_depth = first[order].tolist(), depth[order].tolist()
        offsets = np.cumsum([0] + [len(h) for h in heads[:d]])
        self.table_ids = np.stack([id_of[offsets[k] + runs[k]] for k in range(d)], axis=1)
        # Row interests: an inner row's from its table, a leaf row's the
        # member's own.  Inner tables come depth after depth, each in
        # member order, so their rows line up with heads[1:].
        inner = [self._tables_at(k + 1, heads[k]) for k in range(d - 1)]
        self.verdicts = VerdictColumns()
        positions = self.verdicts.positions(chain(
            (row.interest for tables in inner for table in tables for row in table.rows()),
            self.interests,
        ))
        row_pos = np.split(
            np.array(positions, np.int64), np.cumsum([len(h) for h in heads[1:d]])
        )
        self.interest_at = row_pos[d - 1]
        # Per depth: a table's entries are the first R members of each
        # of its rows, in member order.
        index = np.arange(n)
        self.own = np.full((n, d), -1, np.int64)
        tables, entries, entry_interest, rows, row_interest = [], [], [], [], []
        for k in range(1, d + 1):
            row = runs[k]
            mine = np.flatnonzero(index - heads[k][row] < redundancy)
            run = runs[k - 1][mine]
            self.own[mine, k - 1] = np.arange(len(mine)) - np.searchsorted(run, run)
            tables.append(self.table_ids[mine, k - 1])
            entries.append(mine)
            entry_interest.append(row_pos[k - 1][row[mine]])
            rows.append(self.table_ids[heads[k], k - 1])
            row_interest.append(row_pos[k - 1])
        self.entries, self.entry_interest, self.entry_bounds = _by_table(
            tables, len(order), entries, entry_interest
        )
        self.row_interest, self.row_bounds = _by_table(rows, len(order), row_interest)

    def _tables_at(self, depth: int, heads: np.ndarray) -> List[ViewTable]:
        """The given tables of depth ``depth`` whose runs start at
        ``heads``, in order."""
        sorted_ = self._sorted
        try:
            return [self._tables[sorted_[first].prefix(depth)] for first in heads.tolist()]
        except KeyError as missing:
            raise SimulationError(f"no view table for populated prefix {missing}") from None

    def _check_given(self) -> None:
        """Raise unless every given table holds the tree's runs: a row
        per child run, its first R members as delegates and its size as
        count — at a leaf, a row per member with the member's own
        interest."""
        tree = self._tree
        redundancy, leaf = tree.redundancy, tree.depth
        for prefix, table in self._tables.items():
            rows = table.rows()
            runs = [
                (child, tuple(members[:redundancy]), len(members))
                for child, members in tree.child_subtrees(prefix)
            ]
            if table.prefix != prefix or runs != [
                (row.infix, row.delegates, row.process_count) for row in rows
            ]:
                raise SimulationError(f"the table given for {prefix} is not the tree's")
            if prefix.depth == leaf and any(
                row.interest != interest
                for row, interest in zip(rows, tree.interests_of(row.delegates[0] for row in rows))
            ):
                raise SimulationError(f"the table given for {prefix} is not its members' interests")

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
        # The inner tables, a depth at a time: a row's first delegate
        # names its child's prefix.
        tables: Dict[Prefix, ViewTable] = {}
        level = [Prefix(())]
        for depth in range(1, tree.depth):
            for prefix in level:
                tables[prefix] = build_view(tree, prefix, policy=regroup_policy)
            level = [
                row.delegates[0].prefix(depth + 1)
                for prefix in level for row in tables[prefix].rows()
            ]
        return cls(tree, tables, config, down)

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
        ids = self.table_ids[index].tolist()
        views = self._views.get(ids[-1])
        if views is None:
            views = self._views[ids[-1]] = {
                depth: self.table(table_id) for depth, table_id in enumerate(ids, 1)
            }
        return views

    def table(self, table_id: int) -> ViewTable:
        """The view table of id ``table_id`` (a leaf one is built on its
        first ask, then kept)."""
        prefix = self._sorted[self._first[table_id]].prefix(self.table_depth[table_id])
        table = self._tables.get(prefix)
        if table is None:
            table = self._tables[prefix] = build_view(self._tree, prefix)
        return table

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


def _by_table(table: List[np.ndarray], count: int, *columns: List[np.ndarray]) -> Tuple:
    """Each of ``columns`` (parts per depth, aligned with ``table``'s
    parts of table ids below ``count``) ordered table after table, a
    table's part kept in order; then the ``count + 1`` offsets where each
    table's part starts and the last ends."""
    ids = np.concatenate(table)
    order = np.argsort(ids, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=count))))
    return (*(np.concatenate(column)[order] for column in columns), bounds)


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
