"""Tests for runtime join/leave and the churn workload driver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import Address, AddressSpace
from repro.addressing.allocation import AddressAllocator
from repro.config import PmcastConfig, SimConfig
from repro.errors import SimulationError
from repro.interests import Event, StaticInterest
from repro.obs import MetricsRegistry, Observer
from repro.sim.churn import (
    ChurnEvent,
    ChurnSchedule,
    poisson_churn,
    run_with_churn,
)
from repro.sim.runtime import GroupRuntime

CONFIG = PmcastConfig(fanout=2, redundancy=2, min_rounds_per_depth=2)


def make_runtime(arity=3, depth=2, detector_timeout=10, observer=None):
    space = AddressSpace.regular(arity, depth)
    members = {
        address: StaticInterest(True)
        for address in space.enumerate_regular(arity)
    }
    runtime = GroupRuntime(
        members, config=CONFIG, sim_config=SimConfig(seed=23),
        detector_timeout=detector_timeout, observer=observer,
    )
    return runtime, sorted(members), space


#: Churn scripts over the 3^2 group plus a fourth, initially empty,
#: subgroup: any action on any of 12 addresses in rounds 0-5.
CHURN_SCRIPTS = st.lists(
    st.builds(
        lambda round_index, action, first, second: ChurnEvent(
            round_index,
            action,
            Address((first, second)),
            StaticInterest(True) if action == "join" else None,
        ),
        st.integers(0, 5),
        st.sampled_from(["join", "leave", "crash"]),
        st.integers(0, 3),
        st.integers(0, 2),
    ),
    max_size=16,
)


class TestRuntimeJoinLeave:
    def test_join_then_deliver(self):
        runtime, addresses, space = make_runtime()
        newcomer = Address((4, 0))
        runtime.join(newcomer, StaticInterest(True))
        assert runtime.size == len(addresses) + 1
        event = Event({}, event_id=500)
        runtime.publish(addresses[0], event)
        runtime.run_until_idle()
        assert newcomer in runtime.delivered_to(event)

    def test_join_duplicate_rejected(self):
        runtime, addresses, __ = make_runtime()
        with pytest.raises(SimulationError):
            runtime.join(addresses[0], StaticInterest(True))

    def test_leave_removes_and_group_keeps_working(self):
        runtime, addresses, __ = make_runtime()
        runtime.leave(addresses[0])        # a delegate everywhere
        assert runtime.size == len(addresses) - 1
        event = Event({}, event_id=501)
        runtime.publish(addresses[-1], event)
        runtime.run_until_idle()
        assert len(runtime.delivered_to(event)) == len(addresses) - 1

    def test_leave_unknown_rejected(self):
        runtime, __, ___ = make_runtime()
        with pytest.raises(SimulationError):
            runtime.leave(Address((9, 9)))

    def test_newcomer_is_monitored(self):
        # Monitoring is by immediate neighbors (§2.3), so the newcomer
        # needs at least one subgroup peer to be detectable.
        runtime, addresses, __ = make_runtime()
        newcomer = Address((4, 0))
        peer = Address((4, 1))
        runtime.join(newcomer, StaticInterest(True))
        runtime.join(peer, StaticInterest(True))
        runtime.crash(newcomer)
        for __ in range(40):
            runtime.step()
        assert newcomer not in runtime.tree
        assert peer in runtime.tree

    def test_singleton_subgroup_has_no_monitors(self):
        # The honest §2.3 limitation: a process alone in its leaf
        # subgroup has no immediate neighbors, hence no detectors.
        runtime, addresses, __ = make_runtime()
        loner = Address((4, 0))
        runtime.join(loner, StaticInterest(True))
        runtime.crash(loner)
        for __ in range(40):
            runtime.step()
        assert loner in runtime.tree


class TestChurnSchedule:
    def test_event_validation(self):
        with pytest.raises(SimulationError):
            ChurnEvent(0, "teleport", Address((0, 0)))
        with pytest.raises(SimulationError):
            ChurnEvent(0, "join", Address((0, 0)))   # no interest
        with pytest.raises(SimulationError):
            ChurnEvent(-1, "leave", Address((0, 0)))

    def test_apply_executes_per_round(self):
        runtime, addresses, __ = make_runtime()
        schedule = ChurnSchedule(
            [
                ChurnEvent(0, "join", Address((4, 0)), StaticInterest(True)),
                ChurnEvent(1, "leave", addresses[0]),
            ]
        )
        assert schedule.total_events == 2
        assert schedule.apply(runtime, 0) == 1
        assert Address((4, 0)) in runtime.tree
        assert schedule.apply(runtime, 1) == 1
        assert addresses[0] not in runtime.tree

    def test_apply_skips_impossible(self):
        runtime, addresses, __ = make_runtime()
        schedule = ChurnSchedule(
            [ChurnEvent(0, "leave", Address((9, 9)))]
        )
        assert schedule.apply(runtime, 0) == 0

    def test_crash_after_leave_is_skipped(self):
        runtime, addresses, __ = make_runtime()
        schedule = ChurnSchedule(
            [
                ChurnEvent(0, "leave", addresses[0]),
                ChurnEvent(1, "crash", addresses[0]),
                ChurnEvent(1, "crash", Address((9, 9))),
            ]
        )
        assert schedule.apply(runtime, 0) == 1
        assert schedule.apply(runtime, 1) == 0
        records = run_with_churn(
            make_runtime()[0],
            schedule,
            [(2, addresses[1], Event({}, event_id=800))],
            rounds=3,
        )
        assert records[0]["published"] is True

    @given(script=CHURN_SCRIPTS)
    @settings(max_examples=40, deadline=None)
    def test_apply_counts_exactly_the_accepted_changes(self, script):
        # The runtime's own membership counters are the referee: a
        # change counts iff the runtime performed it.  A short detector
        # timeout lets crashed members be excluded mid-script too.
        registry = MetricsRegistry()
        runtime, __, ___ = make_runtime(
            detector_timeout=2, observer=Observer(registry=registry)
        )
        schedule = ChurnSchedule(script)

        def performed():
            counters = registry.snapshot()["membership"]
            return sum(
                counters.get(name, 0)
                for name in ("joins", "leaves", "crashes")
            )

        for round_index in range(6):
            before = performed()
            applied = schedule.apply(runtime, round_index)
            assert applied == performed() - before
            runtime.step()


class TestPoissonChurn:
    def test_generates_reasonable_volume(self):
        space = AddressSpace.regular(6, 2)
        allocator = AddressAllocator(space, min_subgroup=2)
        initial = [allocator.allocate() for __ in range(9)]
        schedule = poisson_churn(
            allocator,
            initial,
            lambda rng: StaticInterest(True),
            rounds=50,
            join_rate=0.4,
            leave_rate=0.2,
            crash_rate=0.1,
            rng=random.Random(7),
        )
        assert 10 <= schedule.total_events <= 50 * 3
        joins = sum(
            1
            for round_index in range(50)
            for event in schedule.at(round_index)
            if event.action == "join"
        )
        assert joins > 5

    def test_full_space_rejoins_a_left_address(self):
        # Every address is reserved, so a join can only take one that a
        # scripted leave gave back.
        space = AddressSpace.regular(3, 2)
        addresses = space.enumerate_regular(3)
        allocator = AddressAllocator(space, min_subgroup=2)
        for address in addresses:
            allocator.reserve(address)
        schedule = poisson_churn(
            allocator,
            list(addresses),
            lambda rng: StaticInterest(True),
            rounds=30,
            join_rate=0.5,
            leave_rate=0.3,
            crash_rate=0.0,
            rng=random.Random(5),
        )
        left = set()
        joins = 0
        for round_index in range(30):
            for event in schedule.at(round_index):
                if event.action == "leave":
                    left.add(event.address)
                elif event.action == "join":
                    assert event.address in left
                    left.discard(event.address)
                    joins += 1
        assert joins >= 1

    def test_invalid_rate_rejected(self):
        space = AddressSpace.regular(4, 2)
        allocator = AddressAllocator(space)
        with pytest.raises(SimulationError):
            poisson_churn(
                allocator, [], lambda rng: StaticInterest(True),
                10, 1.5, 0.0, 0.0, random.Random(0),
            )


class TestRunWithChurn:
    def test_delivery_under_churn(self):
        runtime, addresses, space = make_runtime()
        allocator = AddressAllocator(space, min_subgroup=2)
        for address in addresses:
            allocator.reserve(address)
        schedule = poisson_churn(
            allocator,
            list(addresses),
            lambda rng: StaticInterest(True),
            rounds=20,
            join_rate=0.3,
            leave_rate=0.1,
            crash_rate=0.05,
            rng=random.Random(3),
        )
        publishes = [
            (round_index, addresses[4], Event({}, event_id=600 + round_index))
            for round_index in (2, 8, 14)
        ]
        records = run_with_churn(runtime, schedule, publishes, rounds=20)
        assert len(records) == 3
        for record in records:
            if not record["published"]:
                continue
            interested = record["interested_at_publish"]
            delivered = record["delivered"]
            assert set(delivered) <= set(interested)
            # The bulk of the publish-time membership still delivers.
            assert len(delivered) >= 0.6 * len(interested)

    def test_publisher_gone_is_recorded(self):
        runtime, addresses, __ = make_runtime()
        schedule = ChurnSchedule(
            [ChurnEvent(0, "leave", addresses[0])]
        )
        records = run_with_churn(
            runtime,
            schedule,
            [(1, addresses[0], Event({}, event_id=700))],
            rounds=5,
        )
        assert records[0]["published"] is False
        assert records[0]["delivered"] == []
