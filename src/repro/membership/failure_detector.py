"""Last-contact failure detection (paper §2.3), for a whole group.

"For the purpose of detecting the failure of processes, every process
keeps track of the last time it was contacted by its most immediate
neighbor processes."

:class:`ContactTable` is that bookkeeping for every process of a group
at once, as arrays — what a long-running
:class:`~repro.sim.runtime.GroupRuntime` keeps — together with the
leaf-subgroup hardening of §6: a quorum of independent suspicions
before a process is excluded ("possibly even perform a form of
agreement before excluding a suspected process from their views").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.addressing import Address, Prefix, component_key
from repro.errors import MembershipError

__all__ = ["ContactTable"]


#: The last contact of a pair nobody watches: below no threshold.
_UNWATCHED = np.iinfo(np.int32).max


def _fit(array: np.ndarray, shape: Tuple[int, ...], fill) -> np.ndarray:
    """``array`` if it holds ``shape``, else a copy grown (by doubling)
    to hold it, new cells ``fill``."""
    if all(need <= have for need, have in zip(shape, array.shape)):
        return array
    grown = [
        max(need, 2 * have) if need > have else have
        for need, have in zip(shape, array.shape)
    ]
    out = np.full(grown, fill, array.dtype)
    out[tuple(map(slice, array.shape))] = array
    return out


def _running(keys: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Per position, how many ``flags`` are set at or before it among
    the positions holding the same key."""
    if not len(keys):
        return np.zeros(0, np.int64)
    order = np.argsort(keys, kind="stable")
    total = np.cumsum(flags[order])
    first = np.flatnonzero(np.r_[True, keys[order][1:] != keys[order][:-1]])
    before = (total - flags[order])[first]
    out = np.empty(len(keys), np.int64)
    out[order] = total - np.repeat(before, np.diff(np.r_[first, len(keys)]))
    return out


class ContactTable:
    """Every process's last-contact detector of one group, as arrays,
    with the §6 accusations beside them.

    A *slot* is a dense id per address (:meth:`slot`), kept across a
    leave and a re-join.  A process watches its leaf-mates only — the
    "most immediate neighbor processes" of §2.3, the only ones that may
    accuse — so the last contacts are one ``slots x leaf width`` matrix,
    the neighbor's column being its place in its leaf.  A pair across
    leaves is never recorded: watching or hearing from a process
    outside one's leaf changes nothing here.

    An unwatched pair holds a time below no threshold, so suspicion is
    one ``last < now - timeout`` compare.  Accusations are a flag
    matrix shaped like the contact one (accuser, column of the suspect),
    plus per suspect the quorum captured at its first accusation:
    ``quorum``, else all its live neighbors then.  An accusation
    outlives its accuser's detector: one by a process that since
    crashed or left counts until that process, back in the group, hears
    from the suspect.  ``now`` is the group's round clock and never
    goes back.
    """

    def __init__(self, timeout: int, depth: int, quorum: Optional[int] = None):
        if timeout < 1:
            raise MembershipError(f"timeout {timeout} must be >= 1")
        if quorum is not None and quorum < 1:
            raise MembershipError(f"quorum {quorum} must be >= 1")
        self._timeout = timeout
        self._depth = depth
        self._quorum = quorum
        #: address -> slot and slot -> address; read-only outside.
        self.slot_of: Dict[Address, int] = {}
        self.addresses: List[Address] = []
        self._leaves: Dict[Prefix, int] = {}
        self._width: List[int] = []  # columns handed out, per leaf
        # Per slot: its leaf, its column there, its last component (the
        # component order within a leaf) and its captured quorum.
        self._leaf = np.zeros(0, np.int64)
        self._col = np.zeros(0, np.int64)
        self._last = np.zeros(0, np.int64)
        self._required = np.zeros(0, np.int64)  # 0 = none captured
        self._leaf_slots = np.full((0, 1), -1, np.int64)  # -1: no slot
        self._near = np.full((0, 1), _UNWATCHED, np.int32)
        self._accused = np.zeros((0, 1), bool)

    def slot(self, address: Address) -> int:
        """The slot of ``address``, handed out on first sight."""
        slot = self.slot_of.get(address)
        if slot is not None:
            return slot
        slot = self.slot_of[address] = len(self.addresses)
        self.addresses.append(address)
        prefix = address.prefix(self._depth)
        leaf = self._leaves.setdefault(prefix, len(self._leaves))
        if leaf == len(self._width):
            self._width.append(0)
        col = self._width[leaf]
        self._width[leaf] += 1
        if slot >= len(self._leaf) or col >= self._near.shape[1] or leaf >= len(self._leaf_slots):
            for name in ("_leaf", "_col", "_last", "_required"):
                setattr(self, name, _fit(getattr(self, name), (slot + 1,), 0))
            self._near = _fit(self._near, (slot + 1, col + 1), _UNWATCHED)
            self._accused = _fit(self._accused, (slot + 1, col + 1), False)
            self._leaf_slots = _fit(self._leaf_slots, (leaf + 1, col + 1), -1)
        self._leaf[slot], self._col[slot] = leaf, col
        self._last[slot] = component_key(address)[-1]
        self._leaf_slots[leaf, col] = slot
        return slot

    def by_leaf(self, slots: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``slots`` grouped by leaf subgroup, in component order within
        each leaf; then, per slot of ``slots``, where its leaf starts in
        that order, its own place in its leaf and its leaf's count."""
        leaf = self._leaf[slots]
        order = np.lexsort((self._last[slots], leaf))
        counts = np.bincount(leaf)
        base = (np.cumsum(counts) - counts)[leaf]
        place = np.empty(len(slots), np.int64)
        place[order] = np.arange(len(slots))
        return slots[order], base, place - base, counts[leaf]

    def _mates(self, slots) -> np.ndarray:
        """The slots of each one's leaf, -1 padded (itself included)."""
        return self._leaf_slots[self._leaf[slots]]

    def _near_pairs(self, monitors, neighbors) -> Tuple[np.ndarray, np.ndarray]:
        """(row, column) in the contact matrix of every pair that shares
        a leaf subgroup and is not a process and itself."""
        monitors = np.asarray(monitors, np.int64)
        neighbors = np.asarray(neighbors, np.int64)
        near = (self._leaf[monitors] == self._leaf[neighbors]) & (monitors != neighbors)
        return monitors[near], self._col[neighbors[near]]

    def watch(self, monitors: Sequence[int], neighbors: Sequence[int], now: int) -> None:
        """``monitors[i]`` starts watching ``neighbors[i]`` as of ``now``
        if they are leaf-mates (a pair already watched keeps its last
        contact)."""
        if np.any(np.asarray(monitors) == np.asarray(neighbors)):
            raise MembershipError("a process does not monitor itself")
        rows, cols = self._near_pairs(monitors, neighbors)
        fresh = self._near[rows, cols] == _UNWATCHED
        self._near[rows[fresh], cols[fresh]] = now

    def contact(self, owners: Sequence[int], senders: Sequence[int], now: int) -> None:
        """``owners[i]`` heard from ``senders[i]`` at ``now``: if they are
        leaf-mates, a watch starts if there was none and the owner's
        accusation of the sender is retracted.  Any other contact —
        hearing from oneself included — records nothing."""
        rows, cols = self._near_pairs(owners, senders)
        self._near[rows, cols] = now
        self._accused[rows, cols] = False

    def unwatch(self, slot: int) -> None:
        """Nobody watches or accuses ``slot`` any more (it left or was
        excluded); its captured quorum goes too."""
        mates, col = self._mates(slot), self._col[slot]
        self._near[mates[mates >= 0], col] = _UNWATCHED
        self._accused[mates[mates >= 0], col] = False
        self._required[slot] = 0

    def forget(self, slot: int) -> None:
        """``slot``'s own detector is gone (it left): it watches nobody.
        The accusations it made stay."""
        self._near[slot] = _UNWATCHED

    def stale(self, monitors: np.ndarray, now: int) -> np.ndarray:
        """Per monitor and column, whether the monitor suspects that
        leaf-mate at ``now``: the one mask a detection round computes
        for :meth:`suspect_counts`, :meth:`near_suspects` and
        :meth:`accuse_all`."""
        return self._near[monitors] < now - self._timeout

    @staticmethod
    def suspect_counts(stale: np.ndarray) -> np.ndarray:
        """How many leaf-mates each monitor of ``stale`` suspects."""
        return np.count_nonzero(stale, axis=1)

    def _stale_near(self, monitors: np.ndarray, stale: np.ndarray):
        """(row in ``monitors``, column, suspect slot) of every stale
        near pair, row by row."""
        rows, cols = np.divmod(np.flatnonzero(stale), stale.shape[1])
        return rows, cols, self._leaf_slots[self._leaf[monitors[rows]], cols]

    def near_suspects(
        self, monitors: np.ndarray, stale: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every stale pair (``stale``: :meth:`stale` of ``monitors``) as
        (row in ``monitors``, suspect slot): monitor by monitor, each
        one's suspect leaf-mates in component order."""
        rows, __, suspects = self._stale_near(monitors, stale)
        order = np.lexsort((self._last[suspects], rows))
        return rows[order], suspects[order]

    def accusers(self, suspects: np.ndarray) -> np.ndarray:
        """How many slots accuse each of ``suspects``."""
        mates = self._mates(suspects)
        held = self._accused[mates, self._col[suspects, None]] & (mates >= 0)
        return np.count_nonzero(held, axis=1)

    def _quorums(self, suspects: np.ndarray, live: np.ndarray) -> np.ndarray:
        """Each suspect's quorum — the captured one, else the one an
        accusation now would capture (``live``: the slots that may
        concur, i.e. members that have not crashed)."""
        required = self._required[suspects]
        if self._quorum is not None:
            return np.where(required > 0, required, self._quorum)
        mates = self._mates(suspects)
        neighbors = np.count_nonzero(live[mates] & (mates >= 0), axis=1)
        neighbors -= live[suspects]
        return np.where(required > 0, required, np.maximum(neighbors, 1))

    def play(
        self,
        monitors: np.ndarray,
        rows: np.ndarray,
        suspects: np.ndarray,
        live: np.ndarray,
        values: bool = False,
    ) -> Tuple[int, np.ndarray, Optional[np.ndarray]]:
        """``monitors[rows[i]]`` accuses ``suspects[i]``, in ``i`` order
        (each pair once), until an accusation convicts: its suspect's
        accusers reach its quorum, captured at its first accusation
        (see :meth:`_quorums` for ``live``).

        Records every accusation up to and including that one.  Returns
        (the convicting pair's index, -1 if none; per recorded pair,
        whether it is new; with ``values``, per recorded pair its
        suspect's accuser count after it, else None).
        """
        accusers, cols = monitors[rows], self._col[suspects]
        new = ~self._accused[accusers, cols]
        named, which = np.unique(suspects, return_inverse=True)
        required = self._quorums(named, live)
        held = self.accusers(named)
        reach = held + np.bincount(which, new, len(named)) >= required
        convicted = -1
        hot = np.flatnonzero(reach[which])  # the pairs of who may be convicted
        if len(hot):
            count = held[which[hot]] + _running(which[hot], new[hot])
            hits = hot[count >= required[which[hot]]]
            if len(hits):
                convicted = int(hits[0])
        end = len(suspects) if convicted < 0 else convicted + 1
        fresh = new[:end]
        self._accused[accusers[:end][fresh], cols[:end][fresh]] = True
        seen = np.unique(which[:end])
        self._required[named[seen]] = required[seen]
        after = None
        if values:
            after = held[which[:end]] + _running(which[:end], fresh)
        return convicted, fresh, after

    def accuse_all(
        self, monitors: np.ndarray, stale: np.ndarray, members: np.ndarray
    ) -> Optional[int]:
        """Every one of ``monitors`` — the live processes — accuses each
        suspect leaf-mate (``stale``: :meth:`stale` of ``monitors``)
        that is a member (``members`` flags slots), unless that would
        convict someone.

        Returns the number of new accusations, or ``None`` with nothing
        recorded when a suspect would reach its quorum: a conviction
        changes the group mid-round, so such a round is the caller's
        to play one accusation at a time.
        """
        rows, cols, suspects = self._stale_near(monitors, stale & ~self._accused[monitors])
        new = members[suspects]
        if not new.any():
            return 0
        accusers, cols, suspects = monitors[rows[new]], cols[new], suspects[new]
        gained = np.bincount(suspects)
        touched = np.flatnonzero(gained)
        live = np.zeros(len(self.addresses), bool)
        live[monitors] = True
        required = self._quorums(touched, live)
        if np.any(self.accusers(touched) + gained[touched] >= required):
            return None
        self._accused[accusers, cols] = True
        self._required[touched] = required
        return len(accusers)
