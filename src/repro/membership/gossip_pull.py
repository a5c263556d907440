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
convergence tests.  :func:`pull_batch` is the same pull for a whole
round of pairs at once, over a matrix of table versions — what a
long-running :class:`~repro.sim.runtime.GroupRuntime` keeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

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
    "pull_batch",
]

# depth -> (infix -> timestamp): the gossiper's lines, one map per
# table.  Grouped by depth so a state's digest can *share* the tables'
# own memoized digest maps (zero-copy) and the receiver's freshness
# scan indexes plain-int keys instead of allocating (depth, infix)
# tuples per line.
Digest = Dict[int, Dict[int, int]]

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

    A state never writes into a table: :meth:`apply` and
    :func:`exchange` *replace* ``tables[depth]`` with another frozen
    version (copy-on-write), so states may share table objects — in a
    long-running group every replica holding the same lines of a
    subgroup holds the same object, and "same object" is the sync test.
    A hand-built state may own writable tables and mutate them
    directly; every memo here is keyed on tokens, which follow.

    ``digest()`` and ``peers()`` only change when a table does; both
    are memoized against the table tokens (:meth:`version`, and the
    structure-only ``addresses_token`` tuple, which timestamp churn
    leaves alone).  Treat the returned containers as read-only.
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
        self._digest_version: Tuple[int, ...] = ()
        self._digest_memo: Digest = {}
        self._peers_version: Tuple[int, ...] = ()
        self._peers_memo: List[Address] = []
        # The tables as a flat tuple, rebuilt whenever one is replaced:
        # two states hold the same versions iff their tuples match
        # element by element under ``is``, and a tuple iterates
        # measurably faster than a dict view.  The *set* of depths is
        # fixed at construction.
        self._seq: Tuple[ViewTable, ...] = tuple(self.tables.values())

    def version(self) -> Tuple[int, ...]:
        """The tuple of table cache tokens: changes iff a table does
        (by replacement or, for a writable table, by mutation).

        A token names one state of one table and is never reused, but
        a state can *adopt* a version older than the one it held, so
        only equality of the whole tuple means anything — tokens do not
        order versions and their sum identifies nothing.
        """
        return tuple(map(_CACHE_TOKENS, self._seq))

    def digest(self) -> Digest:
        """(line, timestamp) pairs for every line, grouped by depth.

        Zero-copy: the per-depth maps *are* the tables' own memoized
        digest maps, so rebuilding after a change costs one small
        outer dict.
        """
        version = self.version()
        if version != self._digest_version:
            self._digest_memo = {
                depth: table.digest() for depth, table in self.tables.items()
            }
            self._digest_version = version
        return self._digest_memo

    def apply(self, updates: Sequence[Tuple[int, ViewRow]]) -> int:
        """Install every update line that is fresher than ours.

        Copy-on-write: a table that takes a line is replaced by a new
        frozen version, never written, so nobody sharing the old one
        sees the change.  Returns the number of lines actually changed.
        Lines for depths this process does not maintain (different
        prefix path) are ignored — each process only keeps the tables
        along its own prefix chain.
        """
        changed = 0
        taken: Dict[int, Dict[int, ViewRow]] = {}
        for depth, row in updates:
            table = self.tables.get(depth)
            if table is None:
                continue
            lines = taken.setdefault(depth, {})
            held = lines.get(row.infix)
            if held is None and table.has_row(row.infix):
                held = table.row(row.infix)
            if held is not None and not row.newer_than(held):
                continue
            lines[row.infix] = row
            changed += 1
        if changed:
            for depth, lines in taken.items():
                if lines:
                    self.tables[depth] = self.tables[depth].overlay(
                        lines.values()
                    )
            self._seq = tuple(self.tables.values())
        return changed

    def peers(self) -> List[Address]:
        """Every process appearing in any table (gossip candidates)."""
        version = tuple(map(_ADDR_TOKENS, self._seq))
        if version != self._peers_version:
            seen = []
            seen_set = set()
            for table in self._seq:
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
    exchange, the already-synced ones (every table the pair shares is
    the same version, or digest-equal), and the view lines actually
    updated.

    Returns the number of lines the gossiper updated.
    """
    registry.counter("gossip_pull", "exchanges").inc()
    changed = _pull(gossiper, receiver)
    if changed < 0:
        registry.counter("gossip_pull", "synced_exchanges").inc()
        return 0
    registry.counter("gossip_pull", "lines_updated").inc(changed)
    return changed


def _pull(gossiper: MembershipState, receiver: MembershipState) -> int:
    """Digest comparison + transfer over the tables the pair shares.

    The counter-free core of :func:`exchange`, shared with the
    simulator's membership round.  Per shared depth (same prefix): the
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
        gossiper._seq = tuple(tables.values())
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
