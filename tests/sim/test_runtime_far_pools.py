"""Scoped invalidation of the runtime's far-peer pools.

A member's far pool is ``replica.peers()`` minus the crashed and the
departed, held per slot as an array of slots beside the
``addresses_token`` row it was built from.  On a crash, a leave or the
return of a departed member the runtime marks stale only the pools of
the subtree that can list the changed process
(``GroupRuntime._drop_far_pools``).  These tests pin that rule from
both sides: every pool that validates is the list a fresh filter would
give (soundness), and the pools outside the subtree survive (scope).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.interests import Event, StaticInterest
from repro.obs import MetricsRegistry, Observer
from repro.sim.runtime import GroupRuntime

ARITY, DEPTH = 5, 3
CONFIG = PmcastConfig(fanout=2, redundancy=3, min_rounds_per_depth=2)
ADDRESSES = sorted(AddressSpace.regular(ARITY, DEPTH).enumerate_regular(ARITY))
#: Never members at construction: what a *fresh* join draws from.
HELD_BACK = (Address((4, 4, 4)), Address((0, 0, 1)), Address((3, 0, 2)))

ORDINARY = Address((2, 3, 4))       # listed in its own leaf table only
LEAF_DELEGATE = Address((2, 3, 1))  # last component < R: listed at depth 2
ROOT_DELEGATE = Address((1, 0, 0))  # among the R smallest under (1,): depth 1


def make_runtime(cls=GroupRuntime, seed=5, **kwargs):
    members = {
        address: StaticInterest(True)
        for address in ADDRESSES
        if address not in HELD_BACK
    }
    return cls(
        members, config=CONFIG, sim_config=SimConfig(seed=seed), **kwargs
    )


def under(prefix_components):
    width = len(prefix_components)
    return {a for a in ADDRESSES if a.components[:width] == prefix_components}


def far_pools(runtime):
    """address -> (addresses_token row, pool) of every pool not dropped."""
    addresses = runtime._contacts.addresses
    rows = runtime._far_from[: len(addresses)].tolist()
    return {
        addresses[slot]: (tuple(row), runtime._far_pool[slot])
        for slot, row in enumerate(rows)
        if -1 not in row
    }


def peers_in(runtime, pool):
    return [runtime._contacts.addresses[slot] for slot in pool]


def assert_pools_exact(runtime):
    """Every pool that validates is the freshly filtered peers() list."""
    down = runtime._crashed | runtime._unwired
    for address, (stamp, pool) in far_pools(runtime).items():
        assert address in runtime.tree, f"{address} pooled but not a member"
        replica = runtime._replicas[address]
        if stamp == tuple(
            table.addresses_token for table in replica.tables.values()
        ):
            assert peers_in(runtime, pool) == [
                p for p in replica.peers() if p not in down
            ], f"stale far pool for {address}"


class WholesaleRuntime(GroupRuntime):
    """The rule scoped invalidation replaced: any change drops every pool."""

    def _refresh_path(self, address, cause):
        super()._refresh_path(address, cause)
        self._far_from[:] = -1

    def _drop_far_pools(self, address):
        self._far_from[:] = -1


# One scripted operation: (kind, index).  The index picks, modulo the
# candidates' count, among the addresses the operation applies to, so
# every drawn script is applicable and shrinks towards small indexes.
# "step" is listed twice: pools are only (re)built inside rounds.
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["step", "step", "crash", "leave", "join", "rejoin", "publish"]
        ),
        st.integers(min_value=0, max_value=len(ADDRESSES) - 1),
    ),
    min_size=1,
    max_size=24,
)


class Script:
    """Applies drawn operations to one or more runtimes in lockstep."""

    def __init__(self, *runtimes):
        self.runtimes = runtimes
        self.departed = []
        self.events = []

    def apply(self, kind, index):
        tree = self.runtimes[0].tree
        members = sorted(tree.members())
        if kind == "step":
            candidates = [None]
        elif kind == "publish":
            candidates = [
                a for a in members if self.runtimes[0].node(a).alive
            ]
        elif kind == "crash":
            # Any wired process: live, already crashed, or excluded.
            candidates = sorted(self.runtimes[0]._nodes)
        elif kind == "leave":
            candidates = members if len(members) > 1 else []
        elif kind == "join":
            # Fresh addresses and excluded ones (replica still wired).
            candidates = [a for a in HELD_BACK if a not in tree] + sorted(
                a
                for a in self.runtimes[0]._excluded_at
                if a not in tree and a not in self.departed
            )
        else:
            candidates = [a for a in self.departed if a not in tree]
        if not candidates:
            return
        target = candidates[index % len(candidates)]
        for runtime in self.runtimes:
            if kind == "step":
                runtime.step()
            elif kind == "publish":
                event = Event({}, event_id=9_000 + len(self.events))
                runtime.publish(target, event)
            elif kind == "crash":
                runtime.crash(target)
            elif kind == "leave":
                runtime.leave(target)
            else:
                runtime.join(target, StaticInterest(True))
        if kind == "publish":
            self.events.append(event)
        elif kind == "leave":
            self.departed.append(target)


class TestPoolsStayExact:
    # detector_timeout=2 with a quorum of one convicts within a few
    # rounds — live processes included — so scripts reach exclusions
    # and the re-join of an excluded process, not just crashes.
    @given(operations=OPERATIONS)
    @settings(max_examples=40, deadline=None)
    def test_every_cached_pool_matches_a_fresh_filter(self, operations):
        runtime = make_runtime(detector_timeout=2, exclusion_quorum=1)
        script = Script(runtime)
        runtime.step()
        assert_pools_exact(runtime)
        for kind, index in operations:
            script.apply(kind, index)
            assert_pools_exact(runtime)

    @given(operations=OPERATIONS)
    @settings(max_examples=25, deadline=None)
    def test_scoped_run_equals_wholesale_run(self, operations):
        registries = MetricsRegistry(), MetricsRegistry()
        scoped = make_runtime(
            detector_timeout=2,
            exclusion_quorum=1,
            observer=Observer(registry=registries[0]),
        )
        wholesale = make_runtime(
            WholesaleRuntime,
            detector_timeout=2,
            exclusion_quorum=1,
            observer=Observer(registry=registries[1]),
        )
        script = Script(scoped, wholesale)
        for kind, index in operations:
            script.apply(kind, index)
        for runtime in (scoped, wholesale):
            runtime.run(3)
        assert (
            scoped._membership_rng.getstate()
            == wholesale._membership_rng.getstate()
        )
        for event in script.events:
            assert scoped.delivered_to(event) == wholesale.delivered_to(event)
        snapshots = [registry.snapshot() for registry in registries]
        reuse = []
        for snapshot in snapshots:
            membership = snapshot["membership"]
            reuse.append(
                (
                    membership.pop("far_cache_hits"),
                    membership.pop("far_cache_misses"),
                )
            )
        # Same lookups, answered from the cache at least as often.
        assert sum(reuse[0]) == sum(reuse[1])
        assert reuse[0][0] >= reuse[1][0]
        assert snapshots[0] == snapshots[1]


class TestInvalidationScope:
    def warmed(self, **kwargs):
        runtime = make_runtime(**kwargs)
        runtime.step()
        assert set(far_pools(runtime)) == set(runtime.tree.members())
        return runtime, far_pools(runtime)

    def assert_survivors_untouched(self, runtime, before, dropped):
        now = far_pools(runtime)
        assert set(now) == set(before) - dropped
        for address, (stamp, pool) in now.items():
            assert stamp == before[address][0]
            assert pool is before[address][1]

    def test_ordinary_crash_costs_its_leaf_subgroup(self):
        runtime, before = self.warmed()
        runtime.crash(ORDINARY)
        dropped = under((2, 3))
        assert len(dropped) == ARITY
        self.assert_survivors_untouched(runtime, before, dropped)

    def test_leaf_delegate_leaver_costs_the_depth_two_subtree(self):
        runtime, before = self.warmed()
        runtime.leave(LEAF_DELEGATE)
        dropped = under((2,))
        assert len(dropped) == ARITY * ARITY
        self.assert_survivors_untouched(runtime, before, dropped)
        assert_pools_exact(runtime)
        runtime.step()
        # Whoever listed the leaver rebuilt without it.
        for address in sorted(under((2,)) - {LEAF_DELEGATE}):
            assert LEAF_DELEGATE not in peers_in(
                runtime, far_pools(runtime)[address][1]
            )

    def test_root_delegate_crash_clears_everything(self):
        runtime, __ = self.warmed()
        assert runtime._listed_depth[ROOT_DELEGATE] == 1
        runtime.crash(ROOT_DELEGATE)
        assert far_pools(runtime) == {}

    def test_exclusion_invalidates_nothing(self):
        runtime, __ = self.warmed()
        runtime.crash(ORDINARY)
        runtime.step()
        before = far_pools(runtime)
        assert ORDINARY not in before
        runtime._exclude(ORDINARY)
        assert ORDINARY not in runtime.tree
        self.assert_survivors_untouched(runtime, before, set())
        assert_pools_exact(runtime)

    def test_fresh_joiner_invalidates_nothing(self):
        runtime, before = self.warmed()
        runtime.join(HELD_BACK[0], StaticInterest(True))
        self.assert_survivors_untouched(runtime, before, set())
        assert_pools_exact(runtime)

    def test_returning_member_reenters_the_pools_that_list_it(self):
        runtime, __ = self.warmed()
        runtime.leave(ORDINARY)
        runtime.step()
        before = far_pools(runtime)
        runtime.join(ORDINARY, StaticInterest(True))
        self.assert_survivors_untouched(runtime, before, under((2, 3)))
        runtime.step()
        assert_pools_exact(runtime)
        neighbor = Address((2, 3, 0))
        assert ORDINARY in peers_in(runtime, far_pools(runtime)[neighbor][1])

    def test_listed_depth_is_monotone_across_delegate_turnover(self):
        runtime, __ = self.warmed()
        successor = Address((2, 3, 3))
        assert successor not in runtime._listed_depth
        runtime.leave(LEAF_DELEGATE)
        # (2,3,3) moved up into the R smallest of its leaf subgroup...
        assert runtime._listed_depth[successor] == 2
        runtime.join(LEAF_DELEGATE, StaticInterest(True))
        # ...and keeps that scope after losing the seat again: replicas
        # may still hold the row that named it.
        assert runtime._listed_depth[successor] == 2
        assert runtime._listed_depth[LEAF_DELEGATE] == 2


class TestReuseCounters:
    def test_hits_plus_misses_is_live_members_every_round(self):
        registry = MetricsRegistry()
        runtime = make_runtime(
            detector_timeout=3, observer=Observer(registry=registry)
        )
        churn = {
            2: lambda: runtime.crash(ORDINARY),
            3: lambda: runtime.leave(LEAF_DELEGATE),
            5: lambda: runtime.join(HELD_BACK[1], StaticInterest(True)),
            6: lambda: runtime.join(LEAF_DELEGATE, StaticInterest(True)),
        }
        seen = 0
        hits = 0
        for round_index in range(1, 13):
            churn.get(round_index, lambda: None)()
            live = sum(
                1 for a in runtime.tree.members() if a not in runtime._crashed
            )
            runtime.step()
            membership = registry.snapshot()["membership"]
            hits = membership["far_cache_hits"]
            total = hits + membership["far_cache_misses"]
            assert total - seen == live
            seen = total
        assert runtime.exclusion_round(ORDINARY) is not None
        # Local churn leaves most pools alone.
        assert hits > seen // 2
