"""The runtime's far-peer pools, read off the round that draws from them.

A member's far pool is ``replica.peers()`` minus the crashed and the
departed.  The runtime never builds it as a list: it draws from a slice
of the round's pool array (``GroupRuntime._pools``), its *listing* —
every slot the replica's tables name, memoised on the tables' structure
— less whoever cannot receive.  These tests read every pool the round
actually draws from and hold it to the list a fresh filter gives, with
the crashed and the departed taken from the script, not from the
runtime.  They also pin that the memo changes no draw, what its two
counters count, and that the listings it holds stay bounded under
churn.
"""

import numpy as np
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


def make_runtime(cls=GroupRuntime, seed=5, **kwargs):
    members = {
        address: StaticInterest(True)
        for address in ADDRESSES
        if address not in HELD_BACK
    }
    return cls(
        members, config=CONFIG, sim_config=SimConfig(seed=seed), **kwargs
    )


class PoolReader(GroupRuntime):
    """Notes, per round, what every member's tables list as the round
    starts to draw, and the near and far pool each live member draws
    from."""

    def _membership_round(self, heard):
        self.listed = {
            address: (
                list(self.tree.subtree_members(address.prefix(DEPTH))),
                list(self._replica(address).peers()),
            )
            for address in self.tree.members()
        }
        self.drawn_from = {}
        super()._membership_round(heard)

    def _pools(self, slots):
        pool, start, size, place = super()._pools(slots)
        addresses = self._contacts.addresses
        for k, slot in enumerate(np.repeat(slots, 2).tolist()):
            at, n, own = int(start[k]), int(size[k]), int(place[k])
            read = [addresses[pool[at + d + (d >= own)]] for d in range(n)]
            self.drawn_from.setdefault(addresses[slot], []).append(read)
        return pool, start, size, place


class WholesaleRuntime(GroupRuntime):
    """The memo's opposite: any change makes every member read its
    listing again."""

    def _refresh_path(self, address, cause):
        super()._refresh_path(address, cause)
        self._far_from[:] = -1

    def crash(self, address):
        super().crash(address)
        self._far_from[:] = -1


# One scripted operation: (kind, index).  The index picks, modulo the
# candidates' count, among the addresses the operation applies to, so
# every drawn script is applicable and shrinks towards small indexes.
# "step" is listed twice: pools are only drawn from inside rounds.
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
    """Applies operations to one or more runtimes in lockstep, keeping
    its own books of who is crashed and who has departed."""

    def __init__(self, *runtimes):
        self.runtimes = runtimes
        self.wired = set(runtimes[0].tree.members())
        self.crashed = set()
        self.departed = []
        self.events = []

    def candidates(self, kind):
        runtime = self.runtimes[0]
        members = sorted(runtime.tree.members())
        if kind == "step":
            return [None]
        if kind == "publish":
            return [a for a in members if a not in self.crashed]
        if kind == "crash":
            # Any wired process: live, already crashed, or excluded.
            return sorted(self.wired - set(self.departed))
        if kind == "leave":
            return members if len(members) > 1 else []
        if kind == "join":
            # Fresh addresses and excluded ones (replica still wired).
            return [a for a in HELD_BACK if a not in self.wired] + sorted(
                a
                for a in self.wired
                if runtime.exclusion_round(a) is not None
                and a not in runtime.tree
                and a not in self.departed
            )
        return list(self.departed)

    def apply(self, kind, index):
        candidates = self.candidates(kind)
        if not candidates:
            return
        self.do(kind, candidates[index % len(candidates)])

    def do(self, kind, target=None):
        if kind == "publish":
            event = Event({}, event_id=9_000 + len(self.events))
            self.events.append(event)
        for runtime in self.runtimes:
            if kind == "step":
                runtime.step()
            elif kind == "publish":
                runtime.publish(target, event)
            elif kind == "crash":
                runtime.crash(target)
            elif kind == "leave":
                runtime.leave(target)
            else:
                runtime.join(target, StaticInterest(True))
        if kind == "crash":
            self.crashed.add(target)
        elif kind == "leave":
            self.crashed.discard(target)
            self.departed.append(target)
        elif kind in ("join", "rejoin"):
            self.wired.add(target)
            if target in self.departed:
                self.departed.remove(target)

    def assert_pools_exact(self):
        """The pools of the round just played are the fresh filters."""
        runtime = self.runtimes[0]
        crashed, departed = self.crashed, self.departed
        live = [a for a in runtime.listed if a not in crashed]
        assert sorted(runtime.drawn_from) == sorted(live), f"round {runtime.round}"
        for address in live:
            mates, peers = runtime.listed[address]
            near, far = runtime.drawn_from[address]
            assert near == [
                mate for mate in mates if mate != address and mate not in crashed
            ], f"near pool of {address}, round {runtime.round}"
            assert far == [
                p for p in peers if p not in crashed and p not in departed
            ], f"far pool of {address}, round {runtime.round}"


def exact_run():
    """A reading runtime whose detector convicts within a few rounds —
    live processes included (a timeout of two and a quorum of one) —
    so scripts reach exclusions and re-joins of excluded processes."""
    return Script(make_runtime(PoolReader, detector_timeout=2, exclusion_quorum=1))


class TestPoolsStayExact:
    @given(operations=OPERATIONS)
    @settings(max_examples=40, deadline=None)
    def test_every_cached_pool_matches_a_fresh_filter(self, operations):
        script = exact_run()
        script.do("step")
        script.assert_pools_exact()
        for kind, index in operations:
            script.apply(kind, index)
            if kind == "step":
                script.assert_pools_exact()

    def test_rejoin_after_leave(self):
        script = exact_run()
        for target in (ORDINARY, LEAF_DELEGATE):
            script.do("leave", target)
            script.do("step")
            script.assert_pools_exact()
            assert target not in script.runtimes[0].drawn_from
        for target in (ORDINARY, LEAF_DELEGATE):
            script.do("rejoin", target)
            script.do("step")
            script.assert_pools_exact()
        runtime = script.runtimes[0]
        assert not script.departed
        # The leaf-mates list the returning members again.
        assert ORDINARY in runtime.drawn_from[Address((2, 3, 0))][1]

    def test_rejoin_of_a_wrongly_excluded_live_process(self):
        script = exact_run()
        runtime = script.runtimes[0]
        excluded = []
        while not excluded:
            script.do("step")
            script.assert_pools_exact()
            excluded = [
                a for a in sorted(script.wired)
                if runtime.exclusion_round(a) is not None and a not in runtime.tree
            ]
            assert runtime.round < 40, "no live process was convicted"
        # Nobody crashed: every conviction was wrong.
        for address in excluded:
            script.do("join", address)
        script.do("step")
        script.assert_pools_exact()
        assert set(excluded) <= set(runtime.drawn_from)
        for __ in range(3):
            script.do("step")
            script.assert_pools_exact()

    def test_a_round_with_every_member_crashed(self):
        script = exact_run()
        script.do("step")
        for address in sorted(script.runtimes[0].tree.members()):
            script.do("crash", address)
        for __ in range(3):
            script.do("step")
            script.assert_pools_exact()
            assert script.runtimes[0].drawn_from == {}
        # A fresh member finds nobody to pull from far, and draws on.
        script.do("join", HELD_BACK[0])
        script.do("step")
        script.assert_pools_exact()
        assert script.runtimes[0].drawn_from[HELD_BACK[0]] == [[], []]

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
        # Same lookups, answered from the memo at least as often.
        assert sum(reuse[0]) == sum(reuse[1])
        assert reuse[0][0] >= reuse[1][0]
        assert snapshots[0] == snapshots[1]


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
        # Local churn leaves most listings alone.
        assert hits > seen // 2


class TestListingsStayBounded:
    def test_long_churn_holds_few_more_listings_than_it_uses(self):
        # One leave and one join every round for 300 rounds: each moves
        # the tables on a path, so every round makes new listings.
        runtime = make_runtime(seed=11)
        rng = np.random.default_rng(11)
        departed = list(HELD_BACK)
        slot_of = runtime._contacts.slot_of
        for __ in range(300):
            members = sorted(runtime.tree.members())
            leaver = members[rng.integers(len(members))]
            comer = departed.pop(rng.integers(len(departed)))
            runtime.leave(leaver)
            departed.append(leaver)
            runtime.join(comer, StaticInterest(True))
            runtime.step()
            live = [slot_of[a] for a in runtime.tree.members()]
            in_use = len(set(runtime._far_id[live].tolist()))
            assert len(runtime._listings) <= 2 * in_use + 8, runtime.round
