"""Gossip-pull anti-entropy over view tables (paper §2.3).

"Membership information updating is based on gossip pull.  Every line
in every table has an associated timestamp [...] Periodically, a
process randomly selects processes of a table and gossips to those
processes.  A gossip carries a list of tuples (line, timestamp) for
every line in every table.  The receiver compares all the timestamps to
its own timestamps, and updates the gossiper for all lines in which the
gossiper's timestamps are smaller."

:class:`MembershipState` is one process's complete knowledge (one
table per depth); :func:`exchange` performs one gossiper->receiver pull
interaction; :func:`anti_entropy_round` drives a whole group for the
convergence tests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.addressing import Address
from repro.errors import MembershipError
from repro.membership.views import ViewRow, ViewTable
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "MembershipState",
    "Digest",
    "exchange",
    "anti_entropy_round",
    "anti_entropy_until_quiescent",
]

# depth -> (infix -> timestamp): the gossiper's lines, one map per
# table.  Grouped by depth so a state's digest can *share* the tables'
# own memoized digest maps (zero-copy) and the receiver's freshness
# scan indexes plain-int keys instead of allocating (depth, infix)
# tuples per line.
Digest = Dict[int, Dict[int, int]]

# C-speed token readers for the version stamps: exchange() reads both
# parties' stamps on every interaction, so the per-call cost of a
# Python-level generator frame + property dispatch actually shows up
# in paper-scale profiles.
_CACHE_TOKENS = attrgetter("_token")
_ADDR_TOKENS = attrgetter("_addr_token")

#: Sync-group identifiers (see :meth:`MembershipState.digest`); an id
#: marks a set of states whose digests were verified pairwise equal.
_SYNC_GROUPS = itertools.count(1)

#: Union-find parents over sync-group ids.  When two *different*
#: groups are verified digest-equal, they are unioned: every state in
#: either group can then fast-path against every state in the other
#: without its id being rewritten.  Without this, ids fragment — after
#: a churn event, converging states pair up into many small groups and
#: every cross-group exchange pays a full digest comparison even though
#: the digests are equal (measured: >80% of paper-scale exchanges).
#: An id absent from the map is its own root.
_GROUP_PARENT: Dict[int, int] = {}


def _find_group(group_id: int) -> int:
    """The canonical root of a sync-group id, with path compression."""
    parent = _GROUP_PARENT
    root = parent.get(group_id)
    if root is None:
        return group_id
    while True:
        above = parent.get(root)
        if above is None:
            break
        root = above
    while group_id != root:
        above = parent[group_id]
        parent[group_id] = root
        group_id = above
    return root


@dataclass
class MembershipState:
    """One process's membership knowledge: a table per depth 1..d.

    ``digest()`` and ``peers()`` are recomputed on every anti-entropy
    interaction in a long-running group, yet only change when a table
    does; both are memoized against the monotone content/structure
    stamps (:meth:`content_stamp`, :meth:`structure_stamp`).  Treat the
    returned containers as read-only.
    """

    owner: Address
    tables: Dict[int, ViewTable]

    def __post_init__(self) -> None:
        for depth, table in self.tables.items():
            if table.depth != depth:
                raise MembershipError(
                    f"table registered at depth {depth} has depth {table.depth}"
                )
            if not table.prefix.is_prefix_of(self.owner):
                raise MembershipError(
                    f"table {table.prefix} is not on {self.owner}'s path"
                )
        self._digest_stamp: int = -1
        self._digest_memo: Digest = {}
        self._peers_stamp: int = -1
        self._peers_memo: List[Address] = []
        # The tables as a flat tuple: the stamp computations walk it on
        # every exchange, and a tuple iterates measurably faster than a
        # dict view.  Valid because a state's table *set* is fixed at
        # construction (only table contents mutate); nothing in the
        # package assigns into ``state.tables`` afterwards.
        self._seq: Tuple[ViewTable, ...] = tuple(self.tables.values())
        # Sync group: ``(group_id, content_stamp)`` recorded when this
        # state's digest was last verified equal to another state's.
        # Digest equality is transitive, so any two states carrying the
        # same group id — each validated by its own unchanged stamp —
        # are provably digest-equal without rebuilding or comparing
        # digests.  Unlike a per-partner memo this lets a *first-time*
        # pairing (the common case for randomized far pulls) take the
        # synced fast path.  Never invalidated explicitly: stamps are
        # monotone, so any table mutation falsifies the stored stamp.
        self._sync_group: Optional[Tuple[int, int]] = None
        # Owner-maintained stamp memos.  ``None`` means "recompute".
        # Only :meth:`apply` mutates tables on states whose owner fills
        # these (the simulator's replicas), so it is the single
        # invalidation point; states whose tables are mutated directly
        # (hand-built fixtures) are fine as long as nothing fills the
        # hints for them — the public stamp methods never read these.
        self._stamp_hint: Optional[int] = None
        self._struct_hint: Optional[int] = None

    def content_stamp(self) -> int:
        """Monotone int summarizing table contents: the sum of the
        per-table cache tokens.

        Tokens only ever grow (they are drawn from a global monotone
        counter), so the sum is strictly increasing under mutation and
        *equality of stamps proves the tables are unchanged* — the
        property every memo in this module validates against.  Cheaper
        than :meth:`version` (no tuple allocation) on hot paths.
        """
        return sum(map(_CACHE_TOKENS, self._seq))

    def structure_stamp(self) -> int:
        """Structure-only stamp: changes iff a table's *membership*
        (infix -> delegates mapping) does.

        Anti-entropy mostly restamps timestamps; those mutations advance
        :meth:`content_stamp` but not this sum, so caches of *who is in
        the tables* — :meth:`peers`, the runtime's far-peer pools —
        survive timestamp churn.
        """
        return sum(map(_ADDR_TOKENS, self._seq))

    def version(self) -> Tuple[int, ...]:
        """The tuple of table cache tokens: changes iff a table does."""
        return tuple(map(_CACHE_TOKENS, self._seq))

    def digest(self) -> Digest:
        """(line, timestamp) pairs for every line, grouped by depth.

        Zero-copy: the per-depth maps *are* the tables' own memoized
        digest maps, so rebuilding after a mutation costs one small
        outer dict.  Staleness is caught by the monotone content stamp.
        """
        stamp = sum(map(_CACHE_TOKENS, self._seq))
        if stamp != self._digest_stamp:
            return self._rebuild_digest(stamp)
        return self._digest_memo

    def _rebuild_digest(self, stamp: int) -> Digest:
        out = {
            depth: table.digest() for depth, table in self.tables.items()
        }
        self._digest_memo = out
        self._digest_stamp = stamp
        return out

    def fresher_rows(self, digest: Digest) -> List[Tuple[int, ViewRow]]:
        """Lines where this process is strictly fresher than ``digest``.

        Lines the digest lacks entirely are also returned — a line the
        gossiper has never seen is the extreme case of a smaller
        timestamp.
        """
        updates: List[Tuple[int, ViewRow]] = []
        for depth, table in self.tables.items():
            known = digest.get(depth)
            if known is None:
                for row in table.rows():
                    updates.append((depth, row))
                continue
            known_get = known.get
            for row in table.rows():
                timestamp = known_get(row.infix)
                if timestamp is None or timestamp < row.timestamp:
                    updates.append((depth, row))
        return updates

    def apply(self, updates: Sequence[Tuple[int, ViewRow]]) -> int:
        """Install every update line that is fresher than ours.

        Returns the number of lines actually changed.  Lines for depths
        this process does not maintain (different prefix path) are
        ignored — each process only keeps the tables along its own
        prefix chain.
        """
        changed = 0
        for depth, row in updates:
            table = self.tables.get(depth)
            if table is None:
                continue
            if table.has_row(row.infix) and not row.newer_than(table.row(row.infix)):
                continue
            table.upsert(row)
            changed += 1
        if changed:
            self._stamp_hint = None
            self._struct_hint = None
        return changed

    def peers(self) -> List[Address]:
        """Every process appearing in any table (gossip candidates)."""
        stamp = sum(map(_ADDR_TOKENS, self._seq))
        if stamp != self._peers_stamp:
            seen = []
            seen_set = set()
            for table in self._seq:
                for address in table.addresses():
                    if address != self.owner and address not in seen_set:
                        seen_set.add(address)
                        seen.append(address)
            self._peers_memo = seen
            self._peers_stamp = stamp
        return self._peers_memo


def exchange(
    gossiper: MembershipState,
    receiver: MembershipState,
    registry: MetricsRegistry = NULL_REGISTRY,
) -> int:
    """One gossip-pull interaction: the *gossiper* gets updated.

    The gossiper sends its digest; the receiver replies with every line
    on which its timestamp is larger; the gossiper installs them.
    Only lines for subgroups both processes maintain can flow (their
    common prefix path).

    ``registry`` (``gossip_pull`` subsystem) counts every digest
    exchange, the already-synced fast-path hits, and the view lines
    actually updated.

    Returns the number of lines the gossiper updated.
    """
    # Sync-group fast path: if both parties belong to the same verified
    # digest-equality group and neither has mutated since verification
    # (stamps are monotone, so equality proves it), the digests are
    # still equal — skip building/comparing them.  Works for partners
    # that have never met: equality is transitive across the group.
    g_stamp = sum(map(_CACHE_TOKENS, gossiper._seq))
    r_stamp = sum(map(_CACHE_TOKENS, receiver._seq))
    g_sync = gossiper._sync_group
    r_sync = receiver._sync_group
    if (
        g_sync is not None
        and r_sync is not None
        and g_sync[1] == g_stamp
        and r_sync[1] == r_stamp
        and (
            g_sync[0] == r_sync[0]
            or _find_group(g_sync[0]) == _find_group(r_sync[0])
        )
    ):
        registry.counter("gossip_pull", "exchanges").inc()
        registry.counter("gossip_pull", "synced_exchanges").inc()
        return 0
    registry.counter("gossip_pull", "exchanges").inc()
    changed = _pull(gossiper, receiver, g_stamp, r_stamp)
    if changed < 0:
        registry.counter("gossip_pull", "synced_exchanges").inc()
        return 0
    registry.counter("gossip_pull", "lines_updated").inc(changed)
    return changed


def _pull(
    gossiper: MembershipState,
    receiver: MembershipState,
    g_stamp: int,
    r_stamp: int,
) -> int:
    """Digest comparison + transfer, given precomputed content stamps.

    The counter-free core of :func:`exchange`, shared with the
    simulator's inlined fast path (which computes the stamps anyway for
    the sync-group check and counts in batched locals).  Returns ``-1``
    when the digests are equal — the synced case, with the sync-group
    bookkeeping updated — else the number of lines the gossiper
    installed.
    """
    if gossiper._digest_stamp == g_stamp:
        digest = gossiper._digest_memo
    else:
        digest = gossiper._rebuild_digest(g_stamp)
    if receiver._digest_stamp == r_stamp:
        receiver_digest = receiver._digest_memo
    else:
        receiver_digest = receiver._rebuild_digest(r_stamp)
    # Already-synced pairs dominate a converged group's exchanges;
    # equal digests mean fresher_rows would return nothing.
    if digest == receiver_digest:
        # Join (or found) a sync group; two still-valid groups proven
        # equal are *unioned* so equality knowledge accumulates instead
        # of fragmenting into disjoint ids.
        g_sync = gossiper._sync_group
        r_sync = receiver._sync_group
        g_valid = g_sync is not None and g_sync[1] == g_stamp
        r_valid = r_sync is not None and r_sync[1] == r_stamp
        if g_valid:
            if r_valid:
                g_root = _find_group(g_sync[0])
                group_id = _find_group(r_sync[0])
                if g_root != group_id:
                    _GROUP_PARENT[g_root] = group_id
            else:
                group_id = _find_group(g_sync[0])
        elif r_valid:
            group_id = _find_group(r_sync[0])
        else:
            group_id = next(_SYNC_GROUPS)
        gossiper._sync_group = (group_id, g_stamp)
        receiver._sync_group = (group_id, r_stamp)
        return -1
    updates = receiver.fresher_rows(digest)
    # Restrict to tables the two processes share (same prefix at a depth);
    # rows for a foreign subtree would silently corrupt the gossiper's view.
    shared = [
        (depth, row)
        for depth, row in updates
        if depth in gossiper.tables
        and gossiper.tables[depth].prefix == receiver.tables[depth].prefix
    ]
    return gossiper.apply(shared)


def anti_entropy_round(
    states: Mapping[Address, MembershipState],
    rng: random.Random,
    fanout: int = 1,
) -> int:
    """Every process pulls from ``fanout`` random known peers.

    Returns the total number of line updates in the round.  A single
    quiet round does not prove convergence (random pairing may have
    matched only already-synced peers); use
    :func:`anti_entropy_until_quiescent` to drive until convergence.
    """
    total = 0
    for state in states.values():
        candidates = [peer for peer in state.peers() if peer in states]
        if not candidates:
            continue
        count = min(fanout, len(candidates))
        for peer in rng.sample(candidates, count):
            total += exchange(state, states[peer])
    return total


def anti_entropy_until_quiescent(
    states: Mapping[Address, MembershipState],
    rng: random.Random,
    fanout: int = 1,
    quiet_rounds: int = 3,
    max_rounds: int = 256,
) -> int:
    """Run anti-entropy rounds until the group looks converged.

    One quiet round proves nothing under randomized peer selection (the
    round may simply have paired already-synced processes), so the loop
    only stops after ``quiet_rounds`` consecutive rounds without a
    single line update, or at the ``max_rounds`` safety cap.

    Returns the number of rounds executed.
    """
    if quiet_rounds < 1:
        raise MembershipError(f"quiet_rounds {quiet_rounds} must be >= 1")
    quiet = 0
    for round_index in range(max_rounds):
        if anti_entropy_round(states, rng, fanout) == 0:
            quiet += 1
            if quiet >= quiet_rounds:
                return round_index + 1
        else:
            quiet = 0
    return max_rounds
