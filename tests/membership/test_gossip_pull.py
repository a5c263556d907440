"""Tests for gossip-pull anti-entropy (§2.3), incl. convergence."""

import random

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
    exchange,
)
from repro.membership.gossip_pull import _fresher, anti_entropy_until_quiescent
from repro.obs import MetricsRegistry


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


class TestMembershipState:
    def test_digest_covers_all_lines(self):
        tree = make_tree()
        state = make_states(tree)[Address((0, 0, 0))]
        digest = state.digest()
        assert set(digest) == set(state.tables)
        for depth, table in state.tables.items():
            assert len(digest[depth]) == table.row_count

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
        assert bumped in _fresher(fresh.tables[3], stale.digest()[3])

    def test_apply_ignores_stale_updates(self):
        tree = make_tree()
        states = make_states(tree, timestamp=10)
        state = states[Address((0, 0, 0))]
        old_row = state.tables[3].rows()[0].with_timestamp(1)
        assert state.apply([(3, old_row)]) == 0
        assert state.tables[3].rows()[0].timestamp == 10


class TestExchange:
    def test_gossiper_catches_up(self):
        tree = make_tree()
        states = make_states(tree)
        a = states[Address((0, 0, 0))]
        b = states[Address((0, 0, 1))]
        bumped = b.tables[3].rows()[0].with_timestamp(7)
        b.tables[3].upsert(bumped)
        changed = exchange(a, b)
        assert changed == 1
        assert a.tables[3].row(bumped.infix).timestamp == 7

    def test_exchange_is_pull_only(self):
        tree = make_tree()
        states = make_states(tree)
        a = states[Address((0, 0, 0))]
        b = states[Address((0, 0, 1))]
        bumped = a.tables[3].rows()[0].with_timestamp(7)
        a.tables[3].upsert(bumped)
        # b gossips to a: b (the gossiper) learns, a is not modified.
        changed = exchange(b, a)
        assert changed == 1
        assert b.tables[3].row(bumped.infix).timestamp == 7

    def test_foreign_subtree_lines_do_not_flow(self):
        tree = make_tree()
        states = make_states(tree)
        a = states[Address((0, 0, 0))]
        remote = states[Address((1, 1, 1))]
        bumped = remote.tables[3].rows()[0].with_timestamp(9)
        remote.tables[3].upsert(bumped)
        # a and 1.1.1 share only the depth-1 (root) table prefix.
        exchange(a, remote)
        assert a.tables[3].prefix != remote.tables[3].prefix
        assert all(row.timestamp == 0 for row in a.tables[3].rows())


class TestConvergence:
    def test_anti_entropy_converges(self):
        tree = make_tree(arity=2, depth=3)
        states = make_states(tree)
        # Perturb several lines on several processes.
        rng = random.Random(5)
        stamped = 1
        for address in list(states)[:3]:
            state = states[address]
            for depth, table in state.tables.items():
                bump = table.rows()[0].with_timestamp(stamped)
                stamped += 1
                table.upsert(bump)
        anti_entropy_until_quiescent(states, rng, fanout=2)
        # All shared tables now agree line-by-line.
        for a in states.values():
            for b in states.values():
                for depth in a.tables:
                    if a.tables[depth].prefix == b.tables[depth].prefix:
                        assert a.tables[depth].digest() == b.tables[depth].digest()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_convergence_any_seed(self, seed):
        tree = make_tree(arity=2, depth=2)
        states = make_states(tree)
        rng = random.Random(seed)
        victim = states[Address((0, 0))]
        victim.tables[2].upsert(
            victim.tables[2].rows()[0].with_timestamp(99)
        )
        # With a single stale link, a quiet round is a coin flip (the
        # neighbor must pick the victim among its 2 peers), so the
        # quiet streak must be long enough that a false stop is
        # essentially impossible: (1/2)^30 per seed.
        anti_entropy_until_quiescent(states, rng, fanout=1, quiet_rounds=30)
        neighbor = states[Address((0, 1))]
        assert neighbor.tables[2].digest() == victim.tables[2].digest()


class TestStateMemoization:
    def test_digest_and_peers_are_memoized(self):
        tree = make_tree()
        states = make_states(tree)
        state = next(iter(states.values()))
        assert state.digest() is state.digest()
        assert state.peers() is state.peers()

    def test_table_mutation_refreshes_memos(self):
        tree = make_tree()
        states = make_states(tree)
        state = next(iter(states.values()))
        before = state.digest()
        version = state.version()
        leaf = state.tables[max(state.tables)]
        leaf.upsert(leaf.rows()[0].with_timestamp(42))
        assert state.version() != version
        after = state.digest()
        assert after is not before
        leaf_depth = max(state.tables)
        assert max(after[leaf_depth].values()) == 42

    def test_exchange_between_synced_replicas_is_zero(self):
        tree = make_tree()
        states = make_states(tree)
        a, b = list(states.values())[:2]
        assert exchange(a, b) == 0
        assert a.digest() == b.digest()

    def test_exchange_pulls_fresh_line_then_quiesces(self):
        tree = make_tree()
        states = make_states(tree)
        a = states[Address((0, 0, 0))]
        b = states[Address((0, 0, 1))]
        leaf_depth = max(b.tables)
        b.tables[leaf_depth].upsert(
            b.tables[leaf_depth].rows()[0].with_timestamp(7)
        )
        assert exchange(a, b) == 1
        assert a.tables[leaf_depth].digest() == b.tables[leaf_depth].digest()
        assert exchange(a, b) == 0


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


def synced_count(registry):
    return registry.snapshot()["gossip_pull"].get("synced_exchanges", 0)


class TestSyncGroups:
    """Sync is version identity: holders of one frozen table object are
    in sync on it by construction, and a pull moves a pointer."""

    def test_verified_equal_pair_shares_a_group(self):
        # A first-time pairing of two holders of one version is synced
        # without a digest ever being built or a merge computed.
        registry = MetricsRegistry()
        states = make_shared_states(make_tree())
        a, b = states[Address((0, 0, 0))], states[Address((0, 0, 1))]
        assert all(mine is theirs for mine, theirs in zip(a._seq, b._seq))
        assert exchange(a, b, registry=registry) == 0
        assert synced_count(registry) == 1
        for table in a._seq:
            assert table._memo_digest is None
            assert table._pulls == {}

    def test_equality_is_transitive_across_the_group(self):
        # c freshens a line; b adopts c's version and a adopts it from
        # b, so a and c — who never met — hold the same object.
        registry = MetricsRegistry()
        states = make_shared_states(make_tree())
        a = states[Address((0, 0, 0))]
        b = states[Address((0, 0, 1))]
        c = states[Address((0, 1, 0))]
        c.apply([(2, row.with_timestamp(4)) for row in c.tables[2].rows()])
        assert exchange(b, c) == 2
        assert exchange(a, b) == 2
        assert a.tables[2] is c.tables[2]
        assert exchange(a, c, registry=registry) == 0
        assert synced_count(registry) == 1
        assert a.tables[2]._pulls == {}

    def test_grouped_and_fresh_paths_count_identically(self):
        tree = make_tree()
        states = make_states(tree)
        a, b = list(states.values())[:2]
        registry = MetricsRegistry()
        exchange(a, b, registry=registry)       # digest comparison
        exchange(a, b, registry=registry)       # remembered outcome
        snapshot = registry.snapshot()["gossip_pull"]
        assert snapshot["exchanges"] == 2
        assert snapshot["synced_exchanges"] == 2

    def test_mutation_on_either_side_leaves_the_group(self):
        registry = MetricsRegistry()
        states = make_shared_states(make_tree())
        a = states[Address((0, 0, 0))]
        b = states[Address((0, 0, 1))]
        shared = a.tables[3]
        assert b.apply([(3, shared.rows()[0].with_timestamp(3))]) == 1
        # Copy-on-write: b moved to a new version, a's is untouched.
        assert a.tables[3] is shared and b.tables[3] is not shared
        assert shared.rows()[0].timestamp == 0
        assert exchange(a, b, registry=registry) == 1
        assert synced_count(registry) == 0
        # b's version superseded every line of a's: a adopted it, and
        # the pair is one version again.
        assert a.tables[3] is b.tables[3]
        assert exchange(a, b, registry=registry) == 0
        assert synced_count(registry) == 1

    def test_structure_stamp_survives_restamps(self):
        tree = make_tree()
        states = make_states(tree)
        state = next(iter(states.values()))
        peers = state.peers()
        structural = [t.addresses_token for t in state.tables.values()]
        version = state.version()
        leaf = state.tables[max(state.tables)]
        leaf.upsert(leaf.rows()[0].with_timestamp(11))
        assert state.version() != version
        assert [
            t.addresses_token for t in state.tables.values()
        ] == structural
        assert state.peers() is peers           # memo kept through churn

    def test_unshared_tables_do_not_unsync_a_pair(self):
        # Two processes of different depth-1 subtrees share the root
        # table only.  A restamp of a table the other does not hold can
        # neither flow nor count: the exchange is synced both ways.
        registry = MetricsRegistry()
        states = make_shared_states(make_tree())
        a, remote = states[Address((0, 0, 0))], states[Address((1, 1, 1))]
        assert remote.apply(
            [(3, row.with_timestamp(9)) for row in remote.tables[3].rows()]
        )
        assert exchange(a, remote, registry=registry) == 0
        assert exchange(remote, a, registry=registry) == 0
        assert synced_count(registry) == 2
        assert all(row.timestamp == 0 for row in a.tables[3].rows())
