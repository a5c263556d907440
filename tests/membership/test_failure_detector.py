"""Tests for last-contact failure detection (§2.3) and the §6 quorum."""

import random
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import Address, component_key
from repro.errors import MembershipError
from repro.membership.failure_detector import ContactTable

OWNER = Address((0, 0, 0))
PEER = Address((0, 0, 1))
OTHER = Address((0, 0, 2))


class FailureDetector:
    """One process's detector, spelled out: a last-contact map over its
    leaf-mates (its "most immediate neighbor processes", §2.3), scanned
    at query time — the reference :class:`ContactTable` is held to.

    A watch of, or a contact from, a process outside the owner's leaf
    subgroup records nothing.
    """

    def __init__(self, owner: Address, timeout: int):
        if timeout < 1:
            raise MembershipError(f"timeout {timeout} must be >= 1")
        self._owner = owner
        self._leaf = owner.prefix(owner.depth)
        self._timeout = timeout
        self._last_contact: Dict[Address, int] = {}

    def _is_leaf_mate(self, neighbor: Address) -> bool:
        return neighbor != self._owner and neighbor.prefix(self._owner.depth) == self._leaf

    def watch(self, neighbor: Address, now: int) -> None:
        """Start monitoring a leaf-mate as of time ``now``."""
        if neighbor == self._owner:
            raise MembershipError("a process does not monitor itself")
        if self._is_leaf_mate(neighbor):
            self._last_contact.setdefault(neighbor, now)

    def unwatch(self, neighbor: Address) -> None:
        """Stop monitoring (the neighbor left or was excluded)."""
        self._last_contact.pop(neighbor, None)

    def record_contact(self, neighbor: Address, now: int) -> None:
        """Note that ``neighbor`` contacted us at time ``now``.

        A contact from an unwatched leaf-mate starts a watch — any
        gossip proves liveness; an older contact changes nothing.
        """
        previous = self._last_contact.get(neighbor)
        if self._is_leaf_mate(neighbor) and (previous is None or now > previous):
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
        return sorted(
            (
                neighbor
                for neighbor, last in self._last_contact.items()
                if now - last > self._timeout
            ),
            key=component_key,
        )


class TestFailureDetector:
    def test_fresh_contact_not_suspected(self):
        detector = FailureDetector(OWNER, timeout=3)
        detector.watch(PEER, now=0)
        detector.record_contact(PEER, now=2)
        assert detector.suspects(now=4) == []

    def test_silence_beyond_timeout_suspected(self):
        detector = FailureDetector(OWNER, timeout=3)
        detector.watch(PEER, now=0)
        assert detector.suspects(now=3) == []     # exactly timeout: not yet
        assert detector.suspects(now=4) == [PEER]

    def test_contact_resets_suspicion(self):
        detector = FailureDetector(OWNER, timeout=2)
        detector.watch(PEER, now=0)
        assert detector.suspects(now=5) == [PEER]
        detector.record_contact(PEER, now=5)
        assert detector.suspects(now=6) == []

    def test_implicit_watch_on_contact(self):
        detector = FailureDetector(OWNER, timeout=2)
        detector.record_contact(PEER, now=1)
        assert PEER in detector.watched()
        assert detector.last_contact(PEER) == 1

    def test_stale_contact_ignored(self):
        detector = FailureDetector(OWNER, timeout=2)
        detector.record_contact(PEER, now=5)
        detector.record_contact(PEER, now=3)   # reordered/late message
        assert detector.last_contact(PEER) == 5

    def test_unwatch(self):
        detector = FailureDetector(OWNER, timeout=1)
        detector.watch(PEER, now=0)
        detector.unwatch(PEER)
        assert detector.suspects(now=100) == []

    def test_self_monitoring_rejected(self):
        detector = FailureDetector(OWNER, timeout=1)
        with pytest.raises(MembershipError):
            detector.watch(OWNER, now=0)
        detector.record_contact(OWNER, now=0)   # silently ignored
        assert detector.watched() == []

    def test_unknown_last_contact_rejected(self):
        detector = FailureDetector(OWNER, timeout=1)
        with pytest.raises(MembershipError):
            detector.last_contact(PEER)

    def test_invalid_timeout(self):
        with pytest.raises(MembershipError):
            FailureDetector(OWNER, timeout=0)

    def test_multiple_suspects_sorted(self):
        detector = FailureDetector(OWNER, timeout=1)
        detector.watch(OTHER, now=0)
        detector.watch(PEER, now=0)
        assert detector.suspects(now=5) == [PEER, OTHER]

    def test_only_leaf_mates_are_watched(self):
        detector = FailureDetector(OWNER, timeout=1)
        far = Address((0, 1, 0))
        detector.watch(far, now=0)
        detector.record_contact(far, now=1)
        detector.record_contact(PEER, now=1)   # a leaf-mate: a watch starts
        assert detector.watched() == [PEER]
        assert detector.suspects(now=9) == [PEER]


class TestContactFloorFastPath:
    """Suspicion follows the oldest contacts, through watches and unwatches."""

    def test_suspect_found_after_quiet_stretch(self):
        detector = FailureDetector(OWNER, timeout=3)
        detector.watch(PEER, now=0)
        detector.watch(OTHER, now=0)
        for now in range(1, 10):
            detector.record_contact(OTHER, now)
        assert detector.suspects(3) == []
        assert detector.suspects(4) == [PEER]

    def test_unwatching_the_oldest_clears_suspicion(self):
        detector = FailureDetector(OWNER, timeout=2)
        detector.watch(PEER, now=0)
        detector.watch(OTHER, now=0)
        detector.record_contact(OTHER, now=8)
        assert detector.suspects(9) == [PEER]
        detector.unwatch(PEER)
        # The stale floor must not resurrect the removed neighbor.
        assert detector.suspects(9) == []

    def test_late_watch_with_old_timestamp_is_detected(self):
        detector = FailureDetector(OWNER, timeout=2)
        detector.watch(PEER, now=10)
        detector.record_contact(PEER, now=20)
        assert detector.suspects(21) == []     # floor raised past 10
        detector.watch(OTHER, now=1)           # back-dated watch
        assert detector.suspects(21) == [OTHER]

    def test_no_neighbors_no_suspects(self):
        detector = FailureDetector(OWNER, timeout=1)
        assert detector.suspects(100) == []


class TestIncrementalDetector:
    """Queries at any clock, back-dated watches, and a randomized scan."""

    def test_non_monotonic_query_answers_statelessly(self):
        detector = FailureDetector(OWNER, timeout=2)
        detector.watch(PEER, now=0)
        detector.record_contact(OTHER, now=8)
        assert detector.suspects(9) == [PEER]
        # An earlier clock must still answer correctly, and a later
        # query must not remember it.
        assert detector.suspects(3) == [PEER]
        assert detector.suspects(2) == []
        assert detector.suspects(9) == [PEER]
        assert detector.suspects(11) == [PEER, OTHER]

    def test_back_dated_contact_goes_straight_to_suspects(self):
        detector = FailureDetector(OWNER, timeout=1)
        detector.watch(PEER, now=10)
        assert detector.suspects(20) == [PEER]
        detector.record_contact(OTHER, now=5)      # implicit, stale watch
        assert detector.suspects(20) == [PEER, OTHER]

    def test_randomized_equivalence_with_reference_scan(self):
        # Drive random watch/contact/unwatch/query traffic through the
        # detector and a naive dict, and require identical suspect
        # reports at every monotone query point.
        rng = random.Random(20020405)
        detector = FailureDetector(OWNER, timeout=4)
        reference = {}
        neighbors = [Address((0, 0, i)) for i in range(1, 30)]
        now = 0
        for step in range(600):
            roll = rng.random()
            peer = rng.choice(neighbors)
            if roll < 0.45:
                detector.record_contact(peer, now)
                previous = reference.get(peer)
                if previous is None or now > previous:
                    reference[peer] = now
            elif roll < 0.6:
                if peer != OWNER and peer not in reference:
                    detector.watch(peer, now)
                    reference[peer] = now
            elif roll < 0.7:
                detector.unwatch(peer)
                reference.pop(peer, None)
            else:
                expected = sorted(
                    n for n, last in reference.items() if now - last > 4
                )
                assert detector.suspects(now) == expected, f"step {step}"
            if rng.random() < 0.5:
                now += rng.randint(0, 2)
        expected = sorted(
            n for n, last in reference.items() if now - last > 4
        )
        assert detector.suspects(now) == expected


# -- the group contact table ---------------------------------------------

#: Four leaf subgroups of a depth-3 space, with gaps in the last
#: component so that a leaf's columns are not its component order.
GROUP = [
    Address((x, y, z))
    for x, y in [(0, 0), (0, 1), (1, 0), (2, 2)]
    for z in (0, 2, 3, 7, 9)
]
TIMEOUT = 3
INDEX = st.integers(0, len(GROUP) - 1)
PAIR = st.tuples(INDEX, INDEX)
TRAFFIC = st.lists(
    st.one_of(
        st.tuples(st.just("contacts"), st.lists(PAIR, max_size=12)),
        st.tuples(st.just("watch"), st.lists(PAIR, max_size=6)),
        st.tuples(st.just("watch-leaf"), INDEX),
        st.tuples(st.just("unwatch"), INDEX),
        st.tuples(st.just("crash"), INDEX),
        st.tuples(st.just("leave"), INDEX),
        st.tuples(st.just("return"), INDEX),
        st.tuples(st.just("tick"), st.integers(0, 3)),
        st.tuples(st.just("tick"), st.integers(2, 5)),
        st.tuples(st.just("query"), st.none()),
    ),
    max_size=80,
)


class TestContactTableMatchesReferenceDetectors:
    """One ContactTable == N independent leaf-mate FailureDetectors
    (the last-contact dict + sorted scan), under generated traffic that
    mixes leaf-mates and processes of other leaves."""

    @given(
        order=st.permutations(range(len(GROUP))),
        traffic=TRAFFIC,
    )
    @settings(max_examples=200, deadline=None)
    def test_near_slices_and_report_counts(self, order, traffic):
        table = ContactTable(TIMEOUT, depth=3)
        # Slots are handed out in a drawn order, not component order.
        slots = {GROUP[i]: table.slot(GROUP[i]) for i in order}
        detectors = {
            address: FailureDetector(address, TIMEOUT)
            for address in GROUP
        }
        crashed = set()
        now = 0

        def live():
            return sorted(
                (a for a in detectors if a not in crashed), key=component_key
            )

        for kind, arg in traffic:
            if kind == "watch-leaf":
                # As a joining process does: its whole leaf subgroup.
                kind = "watch"
                leaf = GROUP[arg].prefix(3)
                arg = [
                    (arg, i)
                    for i, a in enumerate(GROUP)
                    if a.prefix(3) == leaf and i != arg
                ]
            if kind in ("contacts", "watch"):
                # A crashed or departed process hears nothing.
                pairs = [
                    (GROUP[m], GROUP[n])
                    for m, n in arg
                    if GROUP[m] in detectors and GROUP[m] not in crashed
                    and (kind == "contacts" or m != n)
                ]
                owners = [slots[m] for m, __ in pairs]
                others = [slots[n] for __, n in pairs]
                if kind == "contacts":
                    table.contact(owners, others, now)
                    for m, n in pairs:
                        detectors[m].record_contact(n, now)
                else:
                    table.watch(owners, others, now)
                    for m, n in pairs:
                        detectors[m].watch(n, now)
            elif kind == "unwatch":
                table.unwatch(slots[GROUP[arg]])
                for detector in detectors.values():
                    detector.unwatch(GROUP[arg])
            elif kind == "crash":
                crashed.add(GROUP[arg])
            elif kind == "leave":
                if detectors.pop(GROUP[arg], None) is not None:
                    table.forget(slots[GROUP[arg]])
                crashed.discard(GROUP[arg])
            elif kind == "return":
                address = GROUP[arg]
                if address not in detectors:
                    detectors[address] = FailureDetector(address, TIMEOUT)
            elif kind == "tick":
                now += arg
            monitors = live()
            if kind != "query" or not monitors:
                continue
            ids = np.array([slots[a] for a in monitors], np.int64)
            stale = table.stale(ids, now)
            counts = table.suspect_counts(stale).tolist()
            near = suspect_lists(table, ids, stale)
            for monitor, count, suspects in zip(monitors, counts, near):
                expected = detectors[monitor].suspects(now)
                assert count == len(expected), monitor
                assert [table.addresses[s] for s in suspects] == expected, monitor


def suspect_lists(table, monitors, stale):
    """``near_suspects`` as one list of suspect slots per monitor."""
    rows, suspects = table.near_suspects(monitors, stale)
    lists = [[] for __ in monitors]
    for row, suspect in zip(rows.tolist(), suspects.tolist()):
        lists[row].append(suspect)
    return lists


def accuse(table, monitor, suspect, live):
    """One accusation through ``play``: (new, the suspect's quorum)."""
    __, new, ___ = table.play(
        np.array([monitor]), np.array([0]), np.array([suspect]), live
    )
    return bool(new[0]), int(table._required[suspect])


class TestContactTable:
    def setup_method(self):
        self.table = ContactTable(timeout=2, depth=3)
        self.a, self.b, self.c = (
            self.table.slot(Address((0, 0, i))) for i in range(3)
        )
        self.far = self.table.slot(Address((1, 0, 0)))

    def test_a_slot_is_kept_for_good(self):
        assert self.table.slot(Address((0, 0, 1))) == self.b
        assert self.table.addresses[self.far] == Address((1, 0, 0))

    def test_far_pairs_are_never_recorded(self):
        table, a, far = self.table, self.a, self.far
        table.contact([a, far], [far, a], now=0)
        table.watch([a, far], [far, a], now=0)
        monitors = np.array([a, far])
        for now in range(0, 12):
            stale = table.stale(monitors, now)
            assert table.suspect_counts(stale).tolist() == [0, 0]
            assert suspect_lists(table, monitors, stale) == [[], []]

    def test_a_forgotten_detector_watches_nobody(self):
        table = self.table
        table.contact([self.a, self.a, self.b], [self.b, self.far, self.a], now=0)
        table.forget(self.a)
        monitors = np.array([self.a, self.b])
        stale = table.stale(monitors, 9)
        assert table.suspect_counts(stale).tolist() == [0, 1]
        assert suspect_lists(table, monitors, stale) == [[], [self.a]]

    def test_near_suspects_come_in_component_order(self):
        table = ContactTable(timeout=1, depth=2)
        late, early, monitor = (
            table.slot(Address((0, c))) for c in (5, 1, 3)
        )
        table.watch([monitor, monitor], [late, early], now=0)
        monitors = np.array([monitor])
        for now, expected in ((1, [[]]), (2, [[early, late]])):  # 1: exactly the timeout
            assert suspect_lists(table, monitors, table.stale(monitors, now)) == expected

    def accusers(self, slot):
        return int(self.table.accusers(np.array([slot]))[0])

    def test_an_accusation_outlives_its_accusers_detector(self):
        table, live = self.table, np.ones(4, bool)
        table.watch([self.a], [self.c], now=0)
        # Two live leaf-mates: the quorum is both of them.
        assert accuse(table, self.a, self.c, live) == (True, 2)
        assert accuse(table, self.a, self.c, live) == (False, 2)
        table.forget(self.a)  # the accuser left: its detector is gone
        assert accuse(table, self.b, self.c, live) == (True, 2)
        assert self.accusers(self.c) == 2
        table.unwatch(self.c)  # excluded: nobody accuses it any more
        assert self.accusers(self.c) == 0
        live[self.b] = False
        assert accuse(table, self.b, self.c, live) == (True, 1)

    def test_hearing_from_the_suspect_retracts(self):
        table, live = self.table, np.ones(4, bool)
        accuse(table, self.a, self.c, live)
        accuse(table, self.b, self.c, live)
        table.contact([self.a], [self.c], now=5)
        assert self.accusers(self.c) == 1

    def test_play_stops_at_the_first_conviction(self):
        table = ContactTable(timeout=2, depth=3, quorum=2)
        a, b, c, d = (table.slot(Address((0, 0, i))) for i in range(4))
        monitors, live = np.array([a, b]), np.ones(4, bool)
        convicted, new, values = table.play(
            monitors, np.array([0, 0, 1, 1]), np.array([c, d, c, d]), live, values=True
        )
        # b's accusation of c makes two: b -> d is never made.
        assert convicted == 2
        assert new.tolist() == [True, True, True]
        assert values.tolist() == [1, 1, 2]
        assert table.accusers(np.array([c, d])).tolist() == [2, 1]

    def test_accuse_all_stops_short_of_a_conviction(self):
        table = ContactTable(timeout=2, depth=3, quorum=2)
        a, b, c = (table.slot(Address((0, 0, i))) for i in range(3))
        table.watch([a, b], [c, c], now=0)
        members = np.ones(3, bool)

        def accuse_all(monitors, now):
            monitors = np.array(monitors)
            return table.accuse_all(monitors, table.stale(monitors, now), members)

        assert accuse_all([a], 3) == 1
        assert accuse_all([a], 4) == 0
        # b's accusation would make two: nothing is recorded.
        assert accuse_all([a, b], 4) is None
        assert accuse(table, b, c, members) == (True, 2)
        assert table.accusers(np.array([c])).tolist() == [2]

    def test_invalid_arguments(self):
        with pytest.raises(MembershipError):
            ContactTable(timeout=0, depth=3)
        with pytest.raises(MembershipError):
            ContactTable(timeout=2, depth=3, quorum=0)
        with pytest.raises(MembershipError):
            self.table.watch([self.a], [self.a], now=0)
