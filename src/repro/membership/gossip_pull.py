"""Gossip-pull anti-entropy over view tables (paper §2.3).

"Membership information updating is based on gossip pull.  Every line
in every table has an associated timestamp [...] Periodically, a
process randomly selects processes of a table and gossips to those
processes.  A gossip carries a list of tuples (line, timestamp) for
every line in every table.  The receiver compares all the timestamps to
its own timestamps, and updates the gossiper for all lines in which the
gossiper's timestamps are smaller."

:func:`pull_batch` runs that rule for a whole round of pairs at once,
over a matrix of table versions — what a long-running
:class:`~repro.sim.runtime.GroupRuntime` keeps, and the one place a
replica learns a line.  :func:`_pull` is one gossiper->receiver pull
between two :class:`MembershipState` objects (one process's tables, one
per depth): the pair-by-pair reference the batch is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.addressing import Address
from repro.errors import MembershipError
from repro.membership.views import ViewRow, ViewTable

__all__ = ["MembershipState", "pull_batch"]

# C-speed token readers: the version keys below are read on every
# interaction of a long-running group.
_CACHE_TOKENS = attrgetter("_token")
_ADDR_TOKENS = attrgetter("_addr_token")

#: What pulling one table version from another gives, memoised on the
#: puller's version (:func:`_merge`): the resulting table (``None`` =
#: the puller's own, nothing installed), lines installed, digests equal.
_Merge = Tuple[Optional[ViewTable], int, bool]


@dataclass
class MembershipState:
    """One process's membership knowledge: a table per depth 1..d.

    A pull never writes into a table: :func:`_pull` *replaces*
    ``tables[depth]`` with another frozen version (copy-on-write), so
    states may share table objects — in a long-running group every
    replica holding the same lines of a subgroup holds the same object,
    and "same object" is the sync test.

    ``peers()`` only changes when a table's structure does: it is
    memoized against the tables' ``addresses_token`` tuple, which
    timestamp churn leaves alone.  Treat the returned list as read-only.
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
        self._peers_version: Tuple[int, ...] = ()
        self._peers_memo: List[Address] = []

    def peers(self) -> List[Address]:
        """Every process appearing in any table (gossip candidates)."""
        version = tuple(map(_ADDR_TOKENS, self.tables.values()))
        if version != self._peers_version:
            seen = []
            seen_set = set()
            for table in self.tables.values():
                for address in table.addresses():
                    if address != self.owner and address not in seen_set:
                        seen_set.add(address)
                        seen.append(address)
            self._peers_memo = seen
            self._peers_version = version
        return self._peers_memo


def _fresher(table: ViewTable, known: Dict[int, int]) -> List[ViewRow]:
    """The lines of ``table`` that ``known`` (infix -> timestamp) lacks
    or holds with a smaller timestamp."""
    known_get = known.get
    fresher = []
    for row in table.rows():
        timestamp = known_get(row.infix)
        if timestamp is None or timestamp < row.timestamp:
            fresher.append(row)
    return fresher


def _pull(gossiper: MembershipState, receiver: MembershipState) -> int:
    """Digest comparison + transfer over the tables the pair shares.

    One pull of :func:`pull_batch`, pair by pair: the reference the
    batch is compared against.  Per shared depth (same prefix): the
    same object is in sync by construction; otherwise the outcome of
    this version pulling from that one is computed once
    (:func:`_merge`), kept on the gossiper's version, and every state
    making the same transition reuses it — the gossiper's table is
    *replaced* by the outcome, nothing is written.  Tables the two do
    not share (different subtrees) never enter: they can neither flow
    nor make the pair unsynced.

    Returns ``-1`` when every shared table is the same version or
    digest-equal — the synced case — else the number of lines the
    gossiper installed.
    """
    tables = gossiper.tables
    installed = 0
    synced = True
    for depth, theirs in receiver.tables.items():
        mine = tables.get(depth)
        if mine is None or mine is theirs or mine.prefix != theirs.prefix:
            continue
        # A table its owner may still write is never adopted as-is.
        merged, lines, equal = _outcome(mine, theirs.snapshot())
        if lines:
            tables[depth] = merged
            installed += lines
        elif not equal:
            synced = False
    if installed:
        return installed
    return -1 if synced else 0


def _outcome(mine: ViewTable, theirs: ViewTable) -> _Merge:
    """:func:`_merge`, memoised on ``mine`` by ``theirs``' token."""
    outcome = mine._pulls.get(theirs._token)
    if outcome is None:
        outcome = mine._pulls[theirs._token] = _merge(mine, theirs)
    return outcome


def _merge(mine: ViewTable, theirs: ViewTable) -> _Merge:
    """A holder of ``mine`` pulls from a holder of frozen ``theirs``.

    The §2.3 rule, line by line: take every line ``mine`` lacks or
    holds with a smaller timestamp.  The result is ``theirs`` itself
    when that supersedes every line of ``mine`` (adoption — the two
    holders then share one object), a new frozen table for a true mix.
    """
    known = mine.digest()
    fresher = _fresher(theirs, known)
    if not fresher:
        return None, 0, known == theirs.digest()
    merged = mine.overlay(fresher)
    if merged.rows() == theirs.rows():
        merged = theirs
    return merged, len(fresher), False


def pull_batch(
    tokens: np.ndarray,
    addr_tokens: np.ndarray,
    prefix_ids: np.ndarray,
    versions: Dict[int, ViewTable],
    gossipers: np.ndarray,
    peers: np.ndarray,
) -> np.ndarray:
    """Slot ``gossipers[j]`` pulls from slot ``peers[j]``, every reply
    carrying the peer's tables as the batch starts.

    A row of ``tokens`` is one replica: the cache token of its table at
    each depth (``addr_tokens``: their addresses_tokens; ``prefix_ids``:
    an id of their prefixes), each token a frozen table of ``versions``.
    A gossiper applies its replies in ``j`` order, so its second pull
    starts from what its first installed, while every reply is read off
    the batch-start copy: a line moves at most one hop per batch.  Per
    depth the pair shares (same prefix), a pull is :func:`_pull`'s
    transition (:func:`_merge`, memoised on the version pair): each
    distinct (mine, theirs) pair of a rank — a gossiper's first pulls,
    then its second, ... — is merged once and the outcome scattered to
    every pull making it.  ``tokens``, ``addr_tokens`` and ``versions``
    (which gains every merged table) are updated in place.

    Returns per pull what :func:`_pull` would: ``-1`` when the pair is
    in sync, else the lines installed.
    """
    n = len(gossipers)
    if not n:
        return np.zeros(0, np.int64)
    heads = np.flatnonzero(np.r_[True, gossipers[1:] != gossipers[:-1]])
    if np.bincount(gossipers[heads]).max() > 1:
        # Some gossiper's pulls are apart: group each one's, in order.
        order = np.argsort(gossipers, kind="stable")
        values = np.empty(n, np.int64)
        values[order] = pull_batch(
            tokens, addr_tokens, prefix_ids, versions, gossipers[order], peers[order]
        )
        return values
    replies = tokens.copy()
    rank = np.arange(n) - np.repeat(heads, np.diff(np.r_[heads, n]))
    lines = np.zeros(n, np.int64)
    unequal = np.zeros(n, bool)
    for k in range(int(rank.max()) + 1):
        at = np.flatnonzero(rank == k)
        g, p = gossipers[at], peers[at]
        mine = tokens[g]
        pull, depth = np.divmod(np.flatnonzero(mine != replies[p]), mine.shape[1])
        shared = prefix_ids[g[pull], depth] == prefix_ids[p[pull], depth]
        pull, depth = pull[shared], depth[shared]
        if not len(pull):
            continue
        # The distinct (mine, theirs) pairs, tokens first made dense.
        pair = np.stack((mine[pull, depth], replies[p[pull], depth]))
        known, dense = np.unique(pair, return_inverse=True)
        dense = dense.reshape(2, -1)
        __, first, which = np.unique(
            dense[0] * len(known) + dense[1], return_index=True, return_inverse=True
        )
        distinct = pair[:, first].T.tolist()
        outcomes = [_outcome(versions[m], versions[t]) for m, t in distinct]
        took = np.array([o[1] for o in outcomes], np.int64)[which]
        equal = np.array([o[2] for o in outcomes], bool)[which]
        np.add.at(lines, at[pull], took)
        unequal[at[pull[~equal]]] = True
        moved = took > 0
        if moved.any():
            tables = [o[0] if o[1] else versions[m] for o, (m, __) in zip(outcomes, distinct)]
            versions.update(zip(map(_CACHE_TOKENS, tables), tables))
            cells = g[pull[moved]], depth[moved]
            tokens[cells] = np.fromiter(map(_CACHE_TOKENS, tables), np.int64)[which[moved]]
            addr_tokens[cells] = np.fromiter(map(_ADDR_TOKENS, tables), np.int64)[which[moved]]
    return np.where(lines > 0, lines, np.where(unequal, 0, -1))
