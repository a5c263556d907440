"""Gossip-pull over shared, frozen table versions ≡ the row-level rule.

``_pull`` moves a state from one table version to another through a
memoised per-version merge; the reference below is §2.3 spelled out
line by line (same-prefix filter -> fresher lines -> ``upsert``) on
private clones.  Generated pairs must agree on the resulting rows, the
lines installed and the synced verdict, and sharing must never leak a
write from one holder to another.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import MembershipError
from repro.interests import StaticInterest
from repro.membership import MembershipState, ViewRow, ViewTable
from repro.membership.gossip_pull import _fresher, _pull
from repro.sim.runtime import GroupRuntime

DEPTH = 3
GOSSIPER = Address((0, 0, 0))
#: Receivers sharing 1, 2 and 3 tables with the gossiper.
RECEIVERS = (Address((1, 0, 0)), Address((0, 1, 0)), Address((0, 0, 1)))
INTEREST = StaticInterest(True)
#: Few delegates and few timestamps: collisions (equal stamps, a line
#: whose delegates changed) are the interesting cases.
DELEGATES = st.lists(
    st.sampled_from([Address((0, 0, c)) for c in range(4)]),
    min_size=1,
    max_size=2,
    unique=True,
).map(tuple)
LINE = st.one_of(
    st.none(),  # a line this side lacks (never learnt, or departed)
    st.tuples(DELEGATES, st.integers(1, 3), st.integers(0, 3)),
)
TABLE_LINES = st.lists(LINE, min_size=4, max_size=4)
STATE_LINES = st.lists(TABLE_LINES, min_size=DEPTH, max_size=DEPTH)


def build_state(owner, lines, frozen):
    tables = {}
    for depth, table_lines in enumerate(lines, start=1):
        rows = [
            ViewRow(infix, delegates, INTEREST, count, timestamp)
            for infix, line in enumerate(table_lines)
            if line is not None
            for delegates, count, timestamp in [line]
        ]
        table = ViewTable(owner.prefix(depth), DEPTH, rows)
        tables[depth] = table.freeze() if frozen else table
    return MembershipState(owner, tables)


def shared_depths(a, b):
    return [
        depth
        for depth in a.tables
        if depth in b.tables and a.tables[depth].prefix == b.tables[depth].prefix
    ]


def rows_of(state):
    return {depth: list(table.rows()) for depth, table in state.tables.items()}


def reference_pull(gossiper, receiver):
    """``(rows after, lines installed, synced)`` by the row-level rule."""
    private = MembershipState(
        gossiper.owner,
        {depth: table.clone() for depth, table in gossiper.tables.items()},
    )
    shared = shared_depths(private, receiver)
    synced = all(
        private.tables[depth].digest() == receiver.tables[depth].digest()
        for depth in shared
    )
    lines = 0
    for depth in shared:
        table = private.tables[depth]
        for row in _fresher(receiver.tables[depth], table.digest()):
            table.upsert(row)
            lines += 1
    return rows_of(private), lines, synced, private


PAIRS = st.tuples(
    st.sampled_from(RECEIVERS), STATE_LINES, STATE_LINES,
    st.booleans(), st.booleans(),
)


class TestPullMatchesTheRowRule:
    @given(pair=PAIRS)
    @settings(max_examples=150, deadline=None)
    def test_rows_lines_and_verdict(self, pair):
        peer, mine, theirs, g_frozen, r_frozen = pair
        gossiper = build_state(GOSSIPER, mine, g_frozen)
        receiver = build_state(peer, theirs, r_frozen)
        before = rows_of(receiver)
        __, lines, synced, expected = reference_pull(gossiper, receiver)
        outcome = _pull(gossiper, receiver)
        assert outcome == (-1 if synced else lines)
        assert rows_of(gossiper) == rows_of(expected)
        assert rows_of(receiver) == before
        # Pulling again finds nothing new either way.
        assert _pull(gossiper, receiver) in (-1, 0)
        assert rows_of(gossiper) == rows_of(expected)

    @given(pair=PAIRS)
    @settings(max_examples=60, deadline=None)
    def test_a_memo_hit_returns_what_the_miss_returned(self, pair):
        peer, mine, theirs, __, ___ = pair
        first = build_state(GOSSIPER, mine, True)
        receiver = build_state(peer, theirs, True)
        # A second holder of the very same versions.
        second = MembershipState(GOSSIPER, dict(first.tables))
        shared = shared_depths(first, receiver)
        assert not any(first.tables[depth]._pulls for depth in shared)
        missed = _pull(first, receiver)
        hit = _pull(second, receiver)
        assert hit == missed
        for depth in first.tables:
            assert second.tables[depth] is first.tables[depth]

    @given(pair=PAIRS)
    @settings(max_examples=60, deadline=None)
    def test_handed_out_tables_are_frozen(self, pair):
        peer, mine, theirs, g_frozen, r_frozen = pair
        gossiper = build_state(GOSSIPER, mine, g_frozen)
        receiver = build_state(peer, theirs, r_frozen)
        owned = set(map(id, gossiper.tables.values()))
        _pull(gossiper, receiver)
        for table in gossiper.tables.values():
            if id(table) in owned:
                continue
            with pytest.raises(MembershipError):
                table.upsert(table.rows()[0])
            if not r_frozen:
                # Never the table its owner may still write.
                assert all(table is not t for t in receiver.tables.values())


def chain():
    """a <- b <- c after c freshened its leaf table: one shared version."""
    lines = [[((Address((0, 0, 1)),), 1, 0)] * 4] * DEPTH
    a = build_state(GOSSIPER, lines, True)
    b = MembershipState(Address((0, 0, 1)), dict(a.tables))
    c = MembershipState(Address((0, 0, 2)), dict(a.tables))
    c.tables[DEPTH] = c.tables[DEPTH].overlay(
        [row.with_timestamp(5) for row in c.tables[DEPTH].rows()]
    )
    assert _pull(b, c) == 4 and _pull(a, b) == 4
    assert a.tables[DEPTH] is b.tables[DEPTH] is c.tables[DEPTH]
    return a, b, c


class TestSharingNeverLeaks:
    @pytest.mark.parametrize("writer", range(3))
    def test_an_apply_on_one_state_never_shows_in_the_others(self, writer):
        states = chain()
        before = [rows_of(state) for state in states]
        tables = states[writer].tables
        tables[DEPTH] = tables[DEPTH].overlay([tables[DEPTH].rows()[2].with_timestamp(9)])
        assert states[writer].tables[DEPTH].row(2).timestamp == 9
        for index, state in enumerate(states):
            if index != writer:
                assert rows_of(state) == before[index]

    def test_a_write_through_a_replica_held_table_raises(self):
        runtime = churned_runtime(rounds=0)
        replica = replicas(runtime)[0]
        for table in replica.tables.values():
            row = table.rows()[0]
            with pytest.raises(MembershipError):
                table.upsert(row.with_timestamp(99))
            with pytest.raises(MembershipError):
                table.discard(row.infix)
            with pytest.raises(MembershipError):
                table.replace_rows([row])


ARITY = 5
ADDRESSES = sorted(AddressSpace.regular(ARITY, DEPTH).enumerate_regular(ARITY))


def churned_runtime(rounds, seed=3):
    """A 5^3 runtime with a join and a leave in every round."""
    spare = ADDRESSES[::9]
    members = {a: INTEREST for a in ADDRESSES if a not in spare}
    runtime = GroupRuntime(
        members,
        config=PmcastConfig(fanout=2, redundancy=3, min_rounds_per_depth=2),
        sim_config=SimConfig(seed=seed),
    )
    play_churn(runtime, rounds)
    return runtime


def play_churn(runtime, rounds):
    for __ in range(rounds):
        outside = [a for a in ADDRESSES if a not in runtime.tree]
        inside = sorted(runtime.tree.members())
        runtime.join(outside[runtime.round % len(outside)], INTEREST)
        runtime.leave(inside[(7 * runtime.round) % len(inside)])
        runtime.step()


def replicas(runtime):
    """Every replica the runtime holds, in slot order."""
    held = map(runtime._replica, runtime._contacts.addresses)
    return [replica for replica in held if replica is not None]


def memo_entries(runtime):
    """Outcomes remembered on the versions some replica still holds."""
    versions = {
        id(table): table for replica in replicas(runtime) for table in replica.tables.values()
    }
    return sum(len(table._pulls) for table in versions.values())


class TestMemoStaysSmall:
    def test_the_memo_does_not_grow_with_rounds(self):
        # An outcome lives on the gossiper-side version and dies with
        # it, so what is remembered follows the churn rate, not the
        # number of rounds played.
        runtime = churned_runtime(rounds=20)
        early = memo_entries(runtime)
        play_churn(runtime, 60)
        assert 0 < memo_entries(runtime) <= 2 * early
        # A quiet group converges and then remembers nothing new.
        runtime.run(40)
        settled = memo_entries(runtime)
        runtime.run(40)
        assert memo_entries(runtime) == settled <= early
