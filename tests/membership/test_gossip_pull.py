"""Tests for gossip-pull anti-entropy (§2.3), incl. convergence.

Every pull goes through :func:`pull_batch` over replica rows built the
way :class:`~repro.sim.runtime.GroupRuntime` keeps them: one row of
frozen table tokens per process.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing import Address, AddressSpace
from repro.errors import MembershipError
from repro.interests import StaticInterest
from repro.membership import (
    MembershipState,
    MembershipTree,
    build_all_views,
    build_process_views,
)
from repro.membership.gossip_pull import _fresher, pull_batch


def make_tree(arity=2, depth=3, redundancy=1):
    space = AddressSpace.regular(arity, depth)
    members = {
        address: StaticInterest(True)
        for address in space.enumerate_regular(arity)
    }
    return MembershipTree.build(members, redundancy=redundancy)


def make_states(tree, timestamp=0):
    return {
        address: MembershipState(
            address, build_process_views(tree, address, timestamp)
        )
        for address in tree.members()
    }


def make_shared_states(tree):
    """States wired like the runtime's replicas: every holder of a
    subgroup's table holds the same frozen object."""
    versions = {
        prefix: table.freeze()
        for prefix, table in build_all_views(tree).items()
    }
    return {
        address: MembershipState(
            address,
            {prefix.depth: versions[prefix] for prefix in address.prefixes()},
        )
        for address in tree.members()
    }


class Replicas:
    """States as replica rows: per process and depth the token of a
    frozen table (a writable one enters as its snapshot), the tables'
    addresses_tokens and prefix ids, and the token -> table map."""

    def __init__(self, states):
        self.slot = {owner: slot for slot, owner in enumerate(states)}
        rows = [
            [table.snapshot() for __, table in sorted(state.tables.items())]
            for state in states.values()
        ]
        self.versions = {table.cache_token: table for row in rows for table in row}
        self.tokens = np.array([[t.cache_token for t in row] for row in rows], np.int64)
        self.addr_tokens = np.array(
            [[t.addresses_token for t in row] for row in rows], np.int64
        )
        ids = {}
        self.prefix_ids = np.array(
            [[ids.setdefault(t.prefix, len(ids)) for t in row] for row in rows],
            np.int64,
        )

    def pull(self, *pairs):
        """One batch: ``gossiper`` pulls from ``peer`` for each pair;
        each pull's value (-1 synced, else the lines installed)."""
        g, p = (
            np.array([self.slot[a] for a in side], np.int64) for side in zip(*pairs)
        )
        values = pull_batch(
            self.tokens, self.addr_tokens, self.prefix_ids, self.versions, g, p
        )
        return values.tolist()

    def table(self, owner, depth):
        return self.versions[int(self.tokens[self.slot[owner], depth - 1])]

    def plant(self, owner, depth, rows):
        """``owner``'s replica installs ``rows`` over its table at
        ``depth``, copy-on-write, as a pull would."""
        table = self.table(owner, depth).overlay(rows)
        self.versions[table.cache_token] = table
        self.tokens[self.slot[owner], depth - 1] = table.cache_token
        self.addr_tokens[self.slot[owner], depth - 1] = table.addresses_token

    def restamp(self, owner, depth, timestamp, count=None):
        rows = self.table(owner, depth).rows()[:count]
        self.plant(owner, depth, [row.with_timestamp(timestamp) for row in rows])


def spread(replicas, peers, rng, done, max_rounds):
    """Rounds in which every process pulls from one random peer of its
    ``peers`` listing, until ``done()``; returns the rounds run."""
    for rounds in range(max_rounds):
        if done():
            return rounds
        replicas.pull(*(
            (owner, rng.choice(listing)) for owner, listing in peers.items()
        ))
    return max_rounds


class TestMembershipState:
    def test_digest_covers_all_lines(self):
        # The digest a pull compares: (line, timestamp) per line.
        tree = make_tree()
        state = make_states(tree)[Address((0, 0, 0))]
        for table in state.tables.values():
            assert len(table.digest()) == table.row_count

    def test_wrong_prefix_table_rejected(self):
        tree = make_tree()
        views_a = build_process_views(tree, Address((0, 0, 0)))
        with pytest.raises(MembershipError):
            MembershipState(Address((1, 1, 1)), views_a)

    def test_peers_excludes_self(self):
        tree = make_tree()
        state = make_states(tree)[Address((0, 0, 0))]
        assert Address((0, 0, 0)) not in state.peers()
        assert state.peers()

    def test_fresher_rows_detects_staleness(self):
        tree = make_tree()
        states = make_states(tree)
        stale = states[Address((0, 0, 0))]
        fresh = states[Address((0, 0, 1))]
        # Bump one line on the fresh side.
        table = fresh.tables[3]
        bumped = table.rows()[0].with_timestamp(5)
        table.upsert(bumped)
        assert bumped in _fresher(fresh.tables[3], stale.tables[3].digest())

    def test_apply_ignores_stale_updates(self):
        # A pull installs only fresher lines: an older one is ignored.
        tree = make_tree()
        replicas = Replicas(make_states(tree, timestamp=10))
        a, b = Address((0, 0, 0)), Address((0, 0, 1))
        replicas.restamp(b, 3, 1, count=1)
        assert replicas.pull((a, b)) == [0]
        assert replicas.table(a, 3).rows()[0].timestamp == 10


class TestExchange:
    def test_gossiper_catches_up(self):
        replicas = Replicas(make_states(make_tree()))
        a, b = Address((0, 0, 0)), Address((0, 0, 1))
        replicas.restamp(b, 3, 7, count=1)
        bumped = replicas.table(b, 3).rows()[0]
        assert replicas.pull((a, b)) == [1]
        assert replicas.table(a, 3).row(bumped.infix).timestamp == 7

    def test_exchange_is_pull_only(self):
        replicas = Replicas(make_states(make_tree()))
        a, b = Address((0, 0, 0)), Address((0, 0, 1))
        replicas.restamp(a, 3, 7, count=1)
        bumped = replicas.table(a, 3).rows()[0]
        held = replicas.tokens.copy()
        # b gossips to a: b (the gossiper) learns, a is not modified.
        assert replicas.pull((b, a)) == [1]
        assert replicas.table(b, 3).row(bumped.infix).timestamp == 7
        slot = replicas.slot[a]
        assert (replicas.tokens[slot] == held[slot]).all()

    def test_foreign_subtree_lines_do_not_flow(self):
        replicas = Replicas(make_states(make_tree()))
        a, remote = Address((0, 0, 0)), Address((1, 1, 1))
        replicas.restamp(remote, 3, 9, count=1)
        # a and 1.1.1 share only the depth-1 (root) table prefix.
        replicas.pull((a, remote))
        assert replicas.table(a, 3).prefix != replicas.table(remote, 3).prefix
        assert all(row.timestamp == 0 for row in replicas.table(a, 3).rows())


class TestConvergence:
    def test_anti_entropy_converges(self):
        tree = make_tree(arity=2, depth=3)
        states = make_states(tree)
        replicas = Replicas(states)
        # Perturb several lines on several processes.
        stamped = 1
        for address in list(states)[:3]:
            for depth in states[address].tables:
                replicas.restamp(address, depth, stamped, count=1)
                stamped += 1

        def agreed():
            # All shared tables agree line by line.
            return all(
                replicas.table(a, depth).digest() == replicas.table(b, depth).digest()
                for a in states
                for b in states
                for depth in states[a].tables
                if states[a].tables[depth].prefix == states[b].tables[depth].prefix
            )

        peers = {address: state.peers() for address, state in states.items()}
        spread(replicas, peers, random.Random(5), agreed, 256)
        assert agreed()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_convergence_any_seed(self, seed):
        tree = make_tree(arity=2, depth=2)
        states = make_states(tree)
        replicas = Replicas(states)
        victim, neighbor = Address((0, 0)), Address((0, 1))
        replicas.restamp(victim, 2, 99, count=1)

        def caught_up():
            return (
                replicas.table(neighbor, 2).digest()
                == replicas.table(victim, 2).digest()
            )

        # The neighbor must draw the victim among its 2 peers: 256
        # rounds without it are (1/2)^256 per seed.
        peers = {address: state.peers() for address, state in states.items()}
        spread(replicas, peers, random.Random(seed), caught_up, 256)
        assert caught_up()


class TestStateMemoization:
    def test_digest_and_peers_are_memoized(self):
        tree = make_tree()
        states = make_states(tree)
        state = next(iter(states.values()))
        for table in state.tables.values():
            assert table.digest() is table.digest()
        assert state.peers() is state.peers()

    def test_table_mutation_refreshes_memos(self):
        # A line with new delegates restructures the table: the peers
        # memo, keyed on addresses_token, is read again.
        tree = make_tree(arity=3, depth=2)
        state = make_states(tree)[Address((0, 0))]
        before = state.peers()
        root = state.tables[1]
        newcomer = Address((2, 9))
        root.upsert(replace(root.row(2), delegates=(newcomer,)))
        after = state.peers()
        assert after is not before
        assert newcomer in after and newcomer not in before

    def test_exchange_between_synced_replicas_is_zero(self):
        tree = make_tree()
        states = make_states(tree)
        replicas = Replicas(states)
        a, b = list(states)[:2]
        assert replicas.pull((a, b)) == [-1]
        for depth in states[a].tables:
            if states[a].tables[depth].prefix == states[b].tables[depth].prefix:
                assert (
                    replicas.table(a, depth).digest()
                    == replicas.table(b, depth).digest()
                )

    def test_exchange_pulls_fresh_line_then_quiesces(self):
        replicas = Replicas(make_states(make_tree()))
        a, b = Address((0, 0, 0)), Address((0, 0, 1))
        replicas.restamp(b, 3, 7, count=1)
        assert replicas.pull((a, b)) == [1]
        assert replicas.table(a, 3).digest() == replicas.table(b, 3).digest()
        assert replicas.pull((a, b)) == [-1]


class TestSyncGroups:
    """Sync is version identity: holders of one frozen table object are
    in sync on it by construction, and a pull moves a pointer."""

    def test_verified_equal_pair_shares_a_group(self):
        # A first-time pairing of two holders of one version is synced
        # without a digest ever being built or a merge computed.
        states = make_shared_states(make_tree())
        replicas = Replicas(states)
        a, b = Address((0, 0, 0)), Address((0, 0, 1))
        slot_a, slot_b = replicas.slot[a], replicas.slot[b]
        assert (replicas.tokens[slot_a] == replicas.tokens[slot_b]).all()
        assert replicas.pull((a, b)) == [-1]
        for table in states[a].tables.values():
            assert table._memo_digest is None
            assert table._pulls == {}

    def test_equality_is_transitive_across_the_group(self):
        # c freshens a line; b adopts c's version and a adopts it from
        # b, so a and c — who never met — hold the same object.
        replicas = Replicas(make_shared_states(make_tree()))
        a, b, c = Address((0, 0, 0)), Address((0, 0, 1)), Address((0, 1, 0))
        replicas.restamp(c, 2, 4)
        assert replicas.pull((b, c)) == [2]
        assert replicas.pull((a, b)) == [2]
        assert replicas.table(a, 2) is replicas.table(c, 2)
        assert replicas.pull((a, c)) == [-1]
        assert replicas.table(a, 2)._pulls == {}

    def test_grouped_and_fresh_paths_count_identically(self):
        # Distinct but equal versions: the first pull compares digests,
        # the second reuses the remembered outcome; both are synced.
        states = make_states(make_tree())
        replicas = Replicas(states)
        a, b = list(states)[:2]
        assert replicas.pull((a, b)) == [-1]
        assert any(replicas.table(a, depth)._pulls for depth in states[a].tables)
        assert replicas.pull((a, b)) == [-1]

    def test_mutation_on_either_side_leaves_the_group(self):
        states = make_shared_states(make_tree())
        replicas = Replicas(states)
        a, b = Address((0, 0, 0)), Address((0, 0, 1))
        shared = replicas.table(a, 3)
        replicas.restamp(b, 3, 3, count=1)
        # Copy-on-write: b moved to a new version, a's is untouched.
        assert replicas.table(a, 3) is shared
        assert replicas.table(b, 3) is not shared
        assert shared.rows()[0].timestamp == 0
        assert replicas.pull((a, b)) == [1]
        # b's version superseded every line of a's: a adopted it, and
        # the pair is one version again.
        assert replicas.table(a, 3) is replicas.table(b, 3)
        assert replicas.pull((a, b)) == [-1]

    def test_structure_stamp_survives_restamps(self):
        tree = make_tree()
        states = make_states(tree)
        state = next(iter(states.values()))
        peers = state.peers()
        structural = [t.addresses_token for t in state.tables.values()]
        leaf = state.tables[max(state.tables)]
        version = leaf.cache_token
        leaf.upsert(leaf.rows()[0].with_timestamp(11))
        assert leaf.cache_token != version
        assert [
            t.addresses_token for t in state.tables.values()
        ] == structural
        assert state.peers() is peers           # memo kept through churn

    def test_unshared_tables_do_not_unsync_a_pair(self):
        # Two processes of different depth-1 subtrees share the root
        # table only.  A restamp of a table the other does not hold can
        # neither flow nor count: the pull is synced both ways.
        replicas = Replicas(make_shared_states(make_tree()))
        a, remote = Address((0, 0, 0)), Address((1, 1, 1))
        replicas.restamp(remote, 3, 9)
        assert replicas.pull((a, remote), (remote, a)) == [-1, -1]
        assert all(row.timestamp == 0 for row in replicas.table(a, 3).rows())
