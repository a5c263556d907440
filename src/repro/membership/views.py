"""Per-depth membership view tables (paper §2.3, Figure 2).

"Each process maintains a table for each depth, representing the view
(mainly processes and their interests) of the process at that depth."

A :class:`ViewTable` is one such table: for a prefix of depth ``i`` it
holds one :class:`ViewRow` per populated child subgroup — the row of an
"infix" ``x(i)`` carries the regrouped interests of that subtree, its
R delegates, its process count (used by the round-estimation heuristics
of §3.3) and a timestamp for the gossip-pull anti-entropy of §2.3.  At
depth ``d`` every row describes a single neighbor process.

All processes sharing a prefix see the same table content once views
have converged, which is why the simulator shares table objects per
prefix (an exact-memory optimization, not a semantic change).

Tables are read far more often than they change (every node consults
its whole view path every round; membership changes are rare), so the
flattened forms — :meth:`ViewTable.rows` and :meth:`ViewTable.addresses`
— are memoized and invalidated on mutation.  Every mutation also advances the
table's :attr:`ViewTable.cache_token`, a process-wide unique version
number: unlike ``id()``, a token is never reused after the table (or a
table state) is gone, so external caches may key on it safely.

A table can also be **frozen** (:meth:`ViewTable.freeze`): a version
that never changes again, safe to share between every process that
holds exactly these lines.  Membership replicas hold only frozen
tables — :meth:`ViewTable.snapshot` of a writable one,
:meth:`ViewTable.overlay` for a version with lines installed — and a
write through one raises instead of freshening every holder at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.addressing import Address, Prefix, component_key
from repro.errors import MembershipError
from repro.interests.events import Event
from repro.interests.subscriptions import Interest

__all__ = ["ViewRow", "ViewTable"]

#: Process-wide version numbers for table states; never reused.
_TOKENS = itertools.count(1)


@dataclass(frozen=True, slots=True)
class ViewRow:
    """One line of a view table: a child subgroup summary.

    Attributes:
        infix: the component ``x(i)`` identifying the child subgroup.
        delegates: the R delegates representing that subtree (a single
            process at depth ``d``).
        interest: the regrouped interest of the whole subtree.
        process_count: ``‖·‖`` — how many processes the subtree holds.
        timestamp: logical time of the last update to this line; the
            anti-entropy protocol keeps, for each line, the version with
            the largest timestamp.
    """

    infix: int
    delegates: Tuple[Address, ...]
    interest: Interest
    process_count: int
    timestamp: int = 0

    def __post_init__(self) -> None:
        if self.infix < 0:
            raise MembershipError(f"negative infix {self.infix}")
        if not self.delegates:
            raise MembershipError(f"row {self.infix} has no delegates")
        if self.process_count < 1:
            raise MembershipError(
                f"row {self.infix} has process_count {self.process_count}"
            )

    def with_timestamp(self, timestamp: int) -> "ViewRow":
        """A copy of this row carrying a new timestamp."""
        return replace(self, timestamp=timestamp)


class ViewTable:
    """The view of one subgroup at one depth.

    Args:
        prefix: the subgroup this table describes (its depth is the
            table's tree depth).
        tree_depth: the overall ``d`` (needed to know whether rows are
            subgroups or individual processes).
        rows: the initial lines, keyed by infix internally.
    """

    __slots__ = (
        "_prefix",
        "_tree_depth",
        "_rows",
        "_token",
        "_addr_token",
        "_memo_rows",
        "_memo_addresses",
        "_memo_digest",
        "_memo_snapshot",
        "_frozen",
        "_pulls",
    )

    def __init__(
        self,
        prefix: Prefix,
        tree_depth: int,
        rows: Sequence[ViewRow] = (),
    ):
        if not 1 <= prefix.depth <= tree_depth:
            raise MembershipError(
                f"prefix {prefix} of depth {prefix.depth} does not fit a "
                f"tree of depth {tree_depth}"
            )
        self._prefix = prefix
        self._tree_depth = tree_depth
        self._rows: Dict[int, ViewRow] = {}
        for row in rows:
            if row.infix in self._rows:
                raise MembershipError(
                    f"duplicate infix {row.infix} in view of {prefix}"
                )
            self._rows[row.infix] = row
        self._token = next(_TOKENS)
        self._addr_token = next(_TOKENS)
        self._frozen = False
        self._clear_memos()

    def _clear_memos(self) -> None:
        self._memo_rows: Optional[List[ViewRow]] = None
        self._memo_addresses: Optional[List[Address]] = None
        self._memo_digest: Optional[Dict[int, int]] = None
        self._memo_snapshot: Optional["ViewTable"] = None
        # What pulling from another version (by its cache token) gives
        # a holder of this one; filled by repro.membership.gossip_pull,
        # and gone with this version like every other memo.
        self._pulls: Dict[int, tuple] = {}

    def _touch(self) -> None:
        """Version bump + memo drop: every mutation funnels through here."""
        self._token = next(_TOKENS)
        self._clear_memos()

    def _writable(self) -> None:
        if self._frozen:
            raise MembershipError(
                f"view of {self._prefix} is a frozen, shared version; "
                "install lines with overlay()"
            )

    @property
    def cache_token(self) -> int:
        """A process-wide unique version number for this table state.

        Advances on every mutation and is never shared with any other
        table or any earlier state of this one, so ``cache_token`` is a
        safe cache key where ``id()`` is not: a garbage-collected
        table's id can be recycled by a newly allocated one, silently
        aliasing cache entries.
        """
        return self._token

    @property
    def addresses_token(self) -> int:
        """Structure-only version number: advances iff the table's
        infix -> delegates mapping changes.

        Anti-entropy restamps timestamps constantly, advancing
        :attr:`cache_token` without changing *who* is in the table.
        Caches of the membership structure (:meth:`addresses`, peer
        candidate pools) key on this token instead and survive the
        churn.  Same never-reused guarantee as :attr:`cache_token`.
        """
        return self._addr_token

    @property
    def prefix(self) -> Prefix:
        """The subgroup this table describes."""
        return self._prefix

    @property
    def depth(self) -> int:
        """The tree depth of this table (= the prefix's depth)."""
        return self._prefix.depth

    @property
    def tree_depth(self) -> int:
        """The overall tree depth ``d``."""
        return self._tree_depth

    @property
    def is_leaf_level(self) -> bool:
        """True if rows are individual processes (depth == d)."""
        return self.depth == self._tree_depth

    def rows(self) -> List[ViewRow]:
        """All lines, sorted by infix (deterministic iteration order)."""
        if self._memo_rows is None:
            self._memo_rows = [
                self._rows[infix] for infix in sorted(self._rows)
            ]
        return self._memo_rows

    def row(self, infix: int) -> ViewRow:
        """The line for child subgroup ``infix``."""
        try:
            return self._rows[infix]
        except KeyError:
            raise MembershipError(
                f"view of {self._prefix} has no row for infix {infix}"
            ) from None

    def has_row(self, infix: int) -> bool:
        """True if a line exists for child subgroup ``infix``."""
        return infix in self._rows

    def upsert(self, row: ViewRow) -> None:
        """Insert or replace the line for ``row.infix``."""
        self._writable()
        old = self._rows.get(row.infix)
        self._rows[row.infix] = row
        if old is not None and old.delegates == row.delegates:
            # Same structure (a restamp or interest refresh): keep the
            # memos that depend only on infix -> delegates.
            memo_addresses = self._memo_addresses
            self._touch()
            self._memo_addresses = memo_addresses
        else:
            self._touch()
            self._addr_token = next(_TOKENS)

    def discard(self, infix: int) -> None:
        """Drop the line for ``infix`` if present (leave/failure)."""
        self._writable()
        if self._rows.pop(infix, None) is not None:
            self._touch()
            self._addr_token = next(_TOKENS)

    def replace_rows(self, rows: Sequence[ViewRow]) -> None:
        """Swap in a whole new set of lines (incremental view refresh).

        Content-equivalent to building a fresh table, but keeps the
        object identity — every node holding this table sees the new
        rows without being re-wired.  The :attr:`cache_token` advances,
        so token-keyed caches treat the result as a brand-new table;
        :attr:`addresses_token` advances only if the infix -> delegates
        structure actually changed.
        """
        self._writable()
        fresh: Dict[int, ViewRow] = {}
        for row in rows:
            if row.infix in fresh:
                raise MembershipError(
                    f"duplicate infix {row.infix} in view of {self._prefix}"
                )
            fresh[row.infix] = row
        current = self._rows
        same_structure = len(fresh) == len(current) and all(
            infix in current and current[infix].delegates == row.delegates
            for infix, row in fresh.items()
        )
        self._rows = fresh
        if same_structure:
            memo_addresses = self._memo_addresses
            self._touch()
            self._memo_addresses = memo_addresses
        else:
            self._touch()
            self._addr_token = next(_TOKENS)

    def addresses(self) -> List[Address]:
        """All delegate addresses, sorted by (infix, address)."""
        if self._memo_addresses is None:
            out: List[Address] = []
            for row in self.rows():
                out.extend(sorted(row.delegates, key=component_key))
            self._memo_addresses = out
        return self._memo_addresses

    def matching_rows(self, event: Event) -> List[ViewRow]:
        """The lines whose regrouped interest matches ``event``."""
        return [row for row in self.rows() if row.interest.matches(event)]

    def digest(self) -> Dict[int, int]:
        """(infix -> timestamp) summary used by gossip-pull exchanges."""
        if self._memo_digest is None:
            self._memo_digest = {
                infix: row.timestamp for infix, row in self._rows.items()
            }
        return self._memo_digest

    def clone(self) -> "ViewTable":
        """An independent writable copy (rows are immutable, so sharing
        them is safe).  Same infix -> delegates mapping, so it carries
        :attr:`addresses_token` and the memos keyed on it."""
        copy = ViewTable(self._prefix, self._tree_depth, self._rows.values())
        copy._addr_token = self._addr_token
        copy._memo_addresses = self._memo_addresses
        return copy

    def freeze(self) -> "ViewTable":
        """Make this table a version: every later write raises
        :class:`~repro.errors.MembershipError`.  Returns the table."""
        self._frozen = True
        return self

    def snapshot(self) -> "ViewTable":
        """A frozen table with exactly these lines: this one when it is
        frozen, else one copy per state of it (dropped on mutation)."""
        if self._frozen:
            return self
        if self._memo_snapshot is None:
            self._memo_snapshot = self.clone().freeze()
        return self._memo_snapshot

    def overlay(self, rows: Sequence[ViewRow]) -> "ViewTable":
        """A new frozen table: these lines with ``rows`` installed over
        them.  :attr:`addresses_token` carries over unless a row brings
        a new infix or new delegates, exactly as under :meth:`upsert`.
        """
        copy = self.clone()
        lines = copy._rows
        restructured = False
        for row in rows:
            old = lines.get(row.infix)
            lines[row.infix] = row
            if old is None or old.delegates != row.delegates:
                restructured = True
        if restructured:
            copy._addr_token = next(_TOKENS)
            copy._memo_addresses = None
        return copy.freeze()

    def __repr__(self) -> str:
        return (
            f"ViewTable(prefix={str(self._prefix)!r}, depth={self.depth}, "
            f"rows={len(self._rows)})"
        )
