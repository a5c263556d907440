"""Last-contact failure detection (paper §2.3).

"For the purpose of detecting the failure of processes, every process
keeps track of the last time it was contacted by its most immediate
neighbor processes."

:class:`FailureDetector` is that bookkeeping for one process: it
records contacts (any gossip counts) and reports which neighbors
exceeded the timeout.  :class:`SuspicionQuorum` is the optional
leaf-subgroup hardening of §6 — ``quorum`` independent suspicions
before a process is excluded ("possibly even perform a form of
agreement before excluding a suspected process from their views").
:class:`ContactTable` is both for a whole group at once, as arrays —
what a long-running :class:`~repro.sim.runtime.GroupRuntime` keeps;
the two classes are its reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.addressing import Address, Prefix, component_key
from repro.errors import MembershipError
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

__all__ = ["ContactTable", "FailureDetector", "SuspicionQuorum"]


class FailureDetector:
    """Heartbeat-style detector over a process's immediate neighbors: a
    last-contact map, scanned at query time.

    Args:
        owner: the monitoring process.
        timeout: rounds of silence after which a neighbor is suspected.
        registry: optional metrics registry; the ``detector`` subsystem
            counts suspicion reports across every detector sharing it.
        near_key: optional component-key prefix (the owner's leaf
            subgroup) for :meth:`near_suspects` — only *immediate
            neighbors* may feed exclusions (§2.3).
    """

    def __init__(
        self,
        owner: Address,
        timeout: int,
        registry: MetricsRegistry = NULL_REGISTRY,
        near_key: Optional[tuple] = None,
    ):
        if timeout < 1:
            raise MembershipError(f"timeout {timeout} must be >= 1")
        self._owner = owner
        self._timeout = timeout
        self._near_key = tuple(near_key) if near_key is not None else None
        self._suspicion_reports = registry.counter(
            "detector", "suspicion_reports"
        )
        self._last_contact: Dict[Address, int] = {}

    @property
    def owner(self) -> Address:
        """The monitoring process."""
        return self._owner

    @property
    def timeout(self) -> int:
        """Rounds of silence before suspicion."""
        return self._timeout

    def watch(self, neighbor: Address, now: int) -> None:
        """Start monitoring a neighbor as of time ``now``."""
        if neighbor == self._owner:
            raise MembershipError("a process does not monitor itself")
        self._last_contact.setdefault(neighbor, now)

    def unwatch(self, neighbor: Address) -> None:
        """Stop monitoring (the neighbor left or was excluded)."""
        self._last_contact.pop(neighbor, None)

    def record_contact(self, neighbor: Address, now: int) -> None:
        """Note that ``neighbor`` contacted us at time ``now``.

        Contacts from unwatched processes start a watch implicitly —
        any gossip proves liveness; an older contact changes nothing.
        """
        previous = self._last_contact.get(neighbor)
        if neighbor != self._owner and (previous is None or now > previous):
            self._last_contact[neighbor] = now

    def watched(self) -> List[Address]:
        """Monitored neighbors, sorted."""
        return sorted(self._last_contact, key=component_key)

    def last_contact(self, neighbor: Address) -> int:
        """The last time ``neighbor`` was heard from."""
        try:
            return self._last_contact[neighbor]
        except KeyError:
            raise MembershipError(
                f"{self._owner} does not monitor {neighbor}"
            ) from None

    def suspects(self, now: int) -> List[Address]:
        """Neighbors silent for more than the timeout, sorted."""
        out = sorted(
            (
                neighbor
                for neighbor, last in self._last_contact.items()
                if now - last > self._timeout
            ),
            key=component_key,
        )
        if out:
            self._suspicion_reports.inc(len(out))
        return out

    def near_suspects(self, now: int) -> List[Address]:
        """The same-subgroup slice of :meth:`suspects` (which counts
        the *full* list as suspicion reports).  Requires ``near_key``."""
        near_key = self._near_key
        if near_key is None:
            raise MembershipError(
                f"{self._owner}'s detector was built without a near_key"
            )
        return [
            neighbor
            for neighbor in self.suspects(now)
            if component_key(neighbor)[: len(near_key)] == near_key
        ]


#: The last contact of a pair nobody watches: below no threshold.
_UNWATCHED = np.iinfo(np.int32).max
#: A far pair's key is ``monitor << 32 | neighbor``.
_NEIGHBOR_BITS = (1 << 32) - 1


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


class ContactTable:
    """Every process's :class:`FailureDetector` of one group, as arrays,
    with the accusations of a :class:`SuspicionQuorum` beside them.

    A *slot* is a dense id per address (:meth:`slot`), kept across a
    leave and a re-join.  The last contact of a watched (monitor,
    neighbor) pair lives in one of two stores:

    * **near** — the pair shares a leaf subgroup, the only neighbors
      that may accuse (§2.3): a ``slots x leaf width`` matrix, the
      neighbor's column being its place in its leaf;
    * **far** — anyone else a process gossiped with: a sorted
      ``monitor << 32 | neighbor`` key array beside the times.  Far
      suspects never accuse, yet they count as suspicion reports, so
      they are kept exactly.

    An unwatched pair holds a time below no threshold, so suspicion is
    one ``last < now - timeout`` compare.  Accusations are a flag
    matrix shaped like the near one (accuser, column of the suspect),
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
        self._far_keys = np.zeros(0, np.int64)
        self._far_last = np.zeros(0, np.int32)

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

    def watch(self, monitors: Sequence[int], neighbors: Sequence[int], now: int) -> None:
        """``monitors[i]`` starts watching ``neighbors[i]`` as of ``now``
        (a pair already watched keeps its last contact)."""
        monitors = np.asarray(monitors, np.int64)
        neighbors = np.asarray(neighbors, np.int64)
        if np.any(monitors == neighbors):
            raise MembershipError("a process does not monitor itself")
        near = self._leaf[monitors] == self._leaf[neighbors]
        rows, cols = monitors[near], self._col[neighbors[near]]
        fresh = self._near[rows, cols] == _UNWATCHED
        self._near[rows[fresh], cols[fresh]] = now
        far = ~near
        self._far_set((monitors[far] << 32) | neighbors[far], now, True)

    def contact(self, owners: Sequence[int], senders: Sequence[int], now: int) -> None:
        """``owners[i]`` heard from ``senders[i]`` at ``now``: a watch
        starts if there was none, and the owner's accusation of the
        sender is retracted.  Hearing from oneself records nothing."""
        owners = np.asarray(owners, np.int64)
        senders = np.asarray(senders, np.int64)
        others = owners != senders
        owners, senders = owners[others], senders[others]
        near = self._leaf[owners] == self._leaf[senders]
        rows, cols = owners[near], self._col[senders[near]]
        self._near[rows, cols] = now
        self._accused[rows, cols] = False
        far = ~near
        self._far_set((owners[far] << 32) | senders[far], now, False)

    def _far_set(self, keys: np.ndarray, now: int, only_new: bool) -> None:
        keys = np.sort(keys)  # and without repeats:
        keys = keys[np.append(True, keys[1:] != keys[:-1])[: len(keys)]]
        at = np.searchsorted(self._far_keys, keys)
        found = np.zeros(len(keys), bool)
        inside = at < len(self._far_keys)
        found[inside] = self._far_keys[at[inside]] == keys[inside]
        hits = at[found]
        if only_new:
            hits = hits[self._far_last[hits] == _UNWATCHED]
        self._far_last[hits] = now
        if not found.all():
            at, keys = at[~found], keys[~found]
            self._far_keys = np.insert(self._far_keys, at, keys)
            self._far_last = np.insert(self._far_last, at, now)

    def unwatch(self, slot: int) -> None:
        """Nobody watches or accuses ``slot`` any more (it left or was
        excluded); its captured quorum goes too."""
        mates, col = self._mates(slot), self._col[slot]
        self._near[mates[mates >= 0], col] = _UNWATCHED
        self._accused[mates[mates >= 0], col] = False
        self._required[slot] = 0
        self._far_last[(self._far_keys & _NEIGHBOR_BITS) == slot] = _UNWATCHED

    def forget(self, slot: int) -> None:
        """``slot``'s own detector is gone (it left): it watches nobody.
        The accusations it made stay."""
        self._near[slot] = _UNWATCHED
        low, high = np.searchsorted(self._far_keys, [slot << 32, (slot + 1) << 32])
        self._far_last[low:high] = _UNWATCHED

    def suspect_counts(self, monitors: np.ndarray, now: int) -> np.ndarray:
        """How many neighbors, near and far, each of ``monitors``
        suspects."""
        target = now - self._timeout
        near = np.count_nonzero(self._near[monitors] < target, axis=1)
        stale = self._far_keys[self._far_last < target] >> 32
        return near + np.bincount(stale, minlength=len(self.addresses))[monitors]

    def _stale_near(self, monitors: np.ndarray, now: int):
        """(row in ``monitors``, column, suspect slot) of every stale
        near pair, row by row."""
        rows, cols = np.nonzero(self._near[monitors] < now - self._timeout)
        return rows, cols, self._leaf_slots[self._leaf[monitors[rows]], cols]

    def near_suspects(self, monitors: np.ndarray, now: int) -> List[List[int]]:
        """Per monitor, its suspect leaf-mates' slots in component order."""
        rows, __, suspects = self._stale_near(monitors, now)
        order = np.lexsort((self._last[suspects], rows))
        rows, suspects = rows[order], suspects[order].tolist()
        bounds = np.searchsorted(rows, np.arange(len(monitors) + 1)).tolist()
        return [suspects[low:high] for low, high in zip(bounds, bounds[1:])]

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

    def accuse(self, monitor: int, suspect: int, live: np.ndarray) -> Tuple[bool, int]:
        """``monitor`` accuses ``suspect``.  Returns (a new accusation,
        the suspect's quorum) — see :meth:`_quorums` for ``live``."""
        col = self._col[suspect]
        new = not self._accused[monitor, col]
        self._accused[monitor, col] = True
        if not self._required[suspect]:
            self._required[suspect] = self._quorums(np.array([suspect]), live)[0]
        return new, int(self._required[suspect])

    def accuse_all(
        self, monitors: np.ndarray, now: int, members: np.ndarray
    ) -> Optional[int]:
        """Every one of ``monitors`` — the live processes — accuses each
        suspect leaf-mate that is a member (``members`` flags slots),
        unless that would convict someone.

        Returns the number of new accusations, or ``None`` with nothing
        recorded when a suspect would reach its quorum: a conviction
        changes the group mid-round, so such a round is the caller's
        to play one accusation at a time.
        """
        rows, cols, suspects = self._stale_near(monitors, now)
        accusers = monitors[rows]
        new = members[suspects] & ~self._accused[accusers, cols]
        if not new.any():
            return 0
        accusers, cols, suspects = accusers[new], cols[new], suspects[new]
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


class SuspicionQuorum:
    """Optional leaf-subgroup agreement before exclusion (paper §6).

    Collects independent suspicions against a process; only once
    ``quorum`` distinct monitors have reported it may the process be
    excluded from the subgroup's views.  This trades detection latency
    for resistance to false suspicion by a single slow link.
    """

    def __init__(
        self, quorum: int, registry: MetricsRegistry = NULL_REGISTRY
    ):
        if quorum < 1:
            raise MembershipError(f"quorum {quorum} must be >= 1")
        self._quorum = quorum
        self._accusers: Dict[Address, Set[Address]] = {}
        self._accusations = registry.counter("detector", "accusations")
        self._convictions = registry.counter("detector", "convictions")

    @property
    def quorum(self) -> int:
        """Independent suspicions required for exclusion."""
        return self._quorum

    def accuse(self, suspect: Address, accuser: Address) -> bool:
        """Register a suspicion; True once the quorum is reached."""
        accusers = self._accusers.get(suspect)
        if accusers is None:
            # Not setdefault: that would allocate a throwaway set on
            # every repeat accusation, the hot case under flapping.
            accusers = self._accusers[suspect] = set()
        if accuser not in accusers:
            accusers.add(accuser)
            self._accusations.inc()
        convicted = len(accusers) >= self._quorum
        if convicted:
            self._convictions.inc()
        return convicted

    def retract(self, suspect: Address, accuser: Address) -> None:
        """Withdraw a suspicion (the suspect was heard from again)."""
        accusers = self._accusers.get(suspect)
        if accusers is None:
            return
        accusers.discard(accuser)
        if not accusers:
            del self._accusers[suspect]

    def convicted(self) -> List[Address]:
        """Processes whose accusations reached the quorum, sorted."""
        return sorted(
            suspect
            for suspect, accusers in self._accusers.items()
            if len(accusers) >= self._quorum
        )

    def accusation_count(self, suspect: Address) -> int:
        """How many distinct monitors currently accuse ``suspect``."""
        return len(self._accusers.get(suspect, ()))
