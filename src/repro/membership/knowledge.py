"""Deriving views from the tree, and the paper's view-size formulas.

:func:`build_view` materializes the depth-``i`` view table of a
subgroup from the :class:`~repro.membership.tree.MembershipTree` ground
truth; :func:`build_process_views` assembles a process's complete
knowledge — one table per depth along its prefix path (Figure 1's
shaded processes).

The module also implements the closed-form knowledge accounting:

* Eq 2 — the number of processes a given process knows,
* Eq 12 — the per-depth view sizes ``m_i`` in a regular tree, and the
  total ``m = R·a·(d-1) + a`` in ``O(d · R · n^(1/d))``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.addressing import Address, Prefix
from repro.errors import MembershipError
from repro.interests.regrouping import RegroupPolicy, regroup
from repro.membership.tree import MembershipTree
from repro.membership.views import ViewRow, ViewTable

__all__ = [
    "build_view",
    "refreshed_rows",
    "refresh_path",
    "build_process_views",
    "build_all_views",
    "known_process_count",
    "regular_view_sizes",
    "regular_total_view_size",
]


def build_view(
    tree: MembershipTree,
    prefix: Prefix,
    timestamp: int = 0,
    policy: Optional[RegroupPolicy] = None,
) -> ViewTable:
    """Materialize the view table of one subgroup from the tree.

    For a prefix of depth ``i < d``, each populated child subgroup
    becomes one row: its R delegates, its regrouped interest and its
    process count.  For a depth-``d`` prefix each member process is its
    own row.

    Args:
        tree: the membership ground truth.
        prefix: the subgroup to describe.
        timestamp: logical time stamped on every produced row.
        policy: interest-regrouping compaction policy (exact by default).
    """
    if not tree.is_populated(prefix):
        raise MembershipError(f"prefix {prefix} is not populated")
    rows = _rows(tree, prefix, tree.child_subtrees(prefix), timestamp, policy)
    return ViewTable(prefix, tree.depth, rows)


def refreshed_rows(
    tree: MembershipTree,
    prefix: Prefix,
    existing: ViewTable,
    changed_child: int,
    timestamp: int,
    policy: Optional[RegroupPolicy] = None,
) -> List[ViewRow]:
    """Rows for an incremental rebuild of one path table.

    Content-identical to ``build_view(tree, prefix, timestamp).rows()``
    when the tree differs from the state ``existing`` describes only
    inside the ``changed_child`` subtree: the other children's subtrees
    did not move, so their regrouped interests, delegates and process
    counts are reused from ``existing`` and merely restamped at
    ``timestamp`` (a full rebuild stamps every row at the new clock,
    and anti-entropy compares timestamps line by line, so restamping is
    required for equivalence).  Only the changed child's row — or the
    changed member's at depth ``d`` — is recomputed, turning a
    membership change from one regroup per child subtree into a single
    regroup of the changed subtree.
    """
    if not tree.is_populated(prefix):
        raise MembershipError(f"prefix {prefix} is not populated")
    rows: List[ViewRow] = []
    for child, members in tree.child_subtrees(prefix):
        if child != changed_child and existing.has_row(child):
            rows.append(existing.row(child).with_timestamp(timestamp))
        else:
            rows.extend(
                _rows(tree, prefix, [(child, members)], timestamp, policy)
            )
    return rows


def _rows(
    tree: MembershipTree,
    prefix: Prefix,
    children: List[Tuple[int, Sequence[Address]]],
    timestamp: int,
    policy: Optional[RegroupPolicy],
) -> List[ViewRow]:
    """Fresh rows of ``prefix``'s table for the given ``(child, sorted
    members)`` subtrees (:meth:`MembershipTree.child_subtrees`)."""
    interests_of = tree.interests_of
    if prefix.depth == tree.depth:
        # A process is its own row, with its own interest.
        interests = interests_of(members[0] for __, members in children)
    else:
        interests = (
            regroup(interests_of(members), policy) for __, members in children
        )
    redundancy = tree.redundancy
    return [
        ViewRow(child, tuple(members[:redundancy]), interest, len(members), timestamp)
        for (child, members), interest in zip(children, interests)
    ]


def refresh_path(
    tree: MembershipTree,
    tables: Dict[Prefix, ViewTable],
    changed: Address,
    timestamp: int,
    policy: Optional[RegroupPolicy] = None,
) -> Tuple[List[ViewTable], List[ViewTable], List[ViewTable]]:
    """Bring the shared tables on ``changed``'s prefix path up to date.

    ``tables`` holds one table per populated prefix and is updated to
    match ``tree`` after ``changed`` joined, left or changed interest.
    An existing table is refreshed **in place**
    (:func:`refreshed_rows` + :meth:`~repro.membership.views.ViewTable.
    replace_rows`): object identity is preserved, so whoever holds it —
    every other member under that prefix — needs no re-wiring, and its
    advancing cache token invalidates exactly its match-cache entries.
    A prefix the change newly populated gets a fresh table; one it
    emptied loses its table.

    Returns:
        ``(written, created, dropped)`` — every table now stamped
        ``timestamp`` (refreshed or new), the new ones among them, and
        the tables removed from ``tables``.
    """
    written: List[ViewTable] = []
    created: List[ViewTable] = []
    dropped: List[ViewTable] = []
    components = changed.components
    for prefix in changed.prefixes():
        table = tables.get(prefix)
        if tree.is_populated(prefix):
            if table is None:
                table = build_view(tree, prefix, timestamp, policy)
                tables[prefix] = table
                created.append(table)
            else:
                changed_child = components[len(prefix.components)]
                table.replace_rows(
                    refreshed_rows(
                        tree, prefix, table, changed_child, timestamp, policy
                    )
                )
            written.append(table)
        elif table is not None:
            del tables[prefix]
            dropped.append(table)
    return written, created, dropped


def build_process_views(
    tree: MembershipTree,
    address: Address,
    timestamp: int = 0,
    policy: Optional[RegroupPolicy] = None,
) -> Dict[int, ViewTable]:
    """All view tables of one process: one per depth 1..d.

    The depth-``i`` table describes the process's subgroup at depth
    ``i`` (its prefix of depth ``i``), exactly the shaded knowledge of
    Figure 1.
    """
    if address not in tree:
        raise MembershipError(f"{address} is not a member")
    return {
        depth: build_view(tree, address.prefix(depth), timestamp, policy)
        for depth in range(1, tree.depth + 1)
    }


def build_all_views(
    tree: MembershipTree,
    timestamp: int = 0,
    policy: Optional[RegroupPolicy] = None,
) -> Dict[Prefix, ViewTable]:
    """One shared view table per populated prefix of the tree.

    Processes sharing a prefix see identical (converged) tables, so the
    simulator builds each once and shares it — a pure optimization.
    The tables come in the order the members first reach their
    prefixes.  A member whose leaf subgroup already has its table adds
    none, so only a leaf subgroup's first member walks its path.
    """
    tables: Dict[Prefix, ViewTable] = {}
    leaf = tree.depth - 1
    for address in tree.members():
        prefixes = address.prefixes()
        if prefixes[leaf] in tables:
            continue
        for prefix in prefixes:
            if prefix not in tables:
                tables[prefix] = build_view(tree, prefix, timestamp, policy)
    return tables


def known_process_count(tree: MembershipTree, address: Address) -> int:
    """Eq 2: the total number of processes known by ``address``.

    ``|x(1)..x(d-1)| + sum_{i=1}^{d-1} R * |x(1)..x(i-1)|`` where
    delegates recurring at several depths are counted once per depth,
    as the paper does ("a delegate of a given depth i is also taken
    into account at any depth i + 1").
    """
    if address not in tree:
        raise MembershipError(f"{address} is not a member")
    d = tree.depth
    total = tree.branch_factor(address.prefix(d))
    for depth in range(1, d):
        prefix = address.prefix(depth)
        for child in tree.populated_children(prefix):
            total += len(tree.delegates(prefix.child(child)))
    return total


def regular_view_sizes(arity: int, depth: int, redundancy: int) -> List[int]:
    """Eq 12: per-depth view sizes ``m_i`` in a regular tree.

    ``m_i = R * a`` for ``1 <= i < d`` and ``m_d = a``.
    """
    if arity < 1 or depth < 1 or redundancy < 1:
        raise MembershipError("arity, depth and redundancy must be >= 1")
    return [redundancy * arity] * (depth - 1) + [arity]


def regular_total_view_size(arity: int, depth: int, redundancy: int) -> int:
    """Eq 12 aggregate: ``m = R·a·(d-1) + a``, in O(d·R·n^(1/d))."""
    return sum(regular_view_sizes(arity, depth, redundancy))
