"""Edge cases of the live runtime left uncovered by the main suite."""

import pytest

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import MembershipError
from repro.interests import Event, StaticInterest
from repro.obs import MetricsRegistry, Observer, TraceLog
from repro.sim.runtime import GroupRuntime

CONFIG = PmcastConfig(fanout=2, redundancy=2, min_rounds_per_depth=2)


def make_runtime(arity=3, depth=2, **kwargs):
    space = AddressSpace.regular(arity, depth)
    members = {
        address: StaticInterest(True)
        for address in space.enumerate_regular(arity)
    }
    return GroupRuntime(
        members, config=CONFIG, sim_config=SimConfig(seed=31), **kwargs
    ), sorted(members)


class TestRuntimeEdges:
    def test_exclusion_round_none_before_exclusion(self):
        runtime, addresses = make_runtime()
        assert runtime.exclusion_round(addresses[0]) is None

    def test_node_lookup_unknown_rejected(self):
        runtime, __ = make_runtime()
        with pytest.raises(MembershipError):
            runtime.node(Address((9, 9)))

    def test_delivered_to_unknown_event_empty(self):
        runtime, __ = make_runtime()
        assert runtime.delivered_to(Event({}, event_id=123456)) == []

    def test_run_until_idle_on_idle_group_is_zero(self):
        runtime, __ = make_runtime()
        assert runtime.run_until_idle() == 0

    def test_loss_in_runtime(self):
        space = AddressSpace.regular(3, 2)
        members = {
            address: StaticInterest(True)
            for address in space.enumerate_regular(3)
        }
        runtime = GroupRuntime(
            members,
            config=CONFIG,
            sim_config=SimConfig(seed=31, loss_probability=0.2),
        )
        addresses = sorted(members)
        event = Event({}, event_id=123457)
        runtime.publish(addresses[0], event)
        runtime.run_until_idle()
        # Most of the group delivers despite 20% loss.
        assert len(runtime.delivered_to(event)) >= 0.8 * len(addresses)

    def test_crash_during_active_dissemination(self):
        runtime, addresses = make_runtime()
        event = Event({}, event_id=123458)
        runtime.publish(addresses[0], event)
        runtime.step()
        runtime.crash(addresses[0])        # publisher dies mid-flight
        runtime.run_until_idle()
        delivered = runtime.delivered_to(event)
        # The event escaped the publisher in round 1 and still spread.
        assert len(delivered) > 1

    def test_leave_of_publisher_after_publish(self):
        runtime, addresses = make_runtime()
        event = Event({}, event_id=123459)
        runtime.publish(addresses[0], event)
        runtime.step()
        runtime.leave(addresses[0])
        runtime.run_until_idle()
        survivors = [a for a in addresses if a != addresses[0]]
        delivered = runtime.delivered_to(event)
        assert set(delivered) <= set(survivors)
        assert len(delivered) >= 0.8 * len(survivors)

    def test_second_crash_of_same_process_is_a_noop(self):
        registry, trace = MetricsRegistry(), TraceLog()
        runtime, addresses = make_runtime(
            detector_timeout=3,
            observer=Observer(registry=registry, trace=trace),
        )
        victim = addresses[-1]
        runtime.run(2)
        runtime.crash(victim)
        runtime.run(2)
        runtime.crash(victim)           # e.g. a fault plan hitting it again
        assert registry.snapshot()["membership"]["crashes"] == 1
        assert len(trace.filter(kind="crash")) == 1
        runtime.run(12)
        excluded_at = runtime.exclusion_round(victim)
        assert excluded_at is not None
        runtime.crash(victim)           # excluded, still wired: same
        assert registry.snapshot()["membership"]["crashes"] == 1
        # The latency is measured from the first crash (round 2), not
        # re-stamped by the second (round 4).
        latency = registry.snapshot()["detector"]["exclusion_latency_rounds"]
        assert latency["count"] == 1
        assert latency["sum"] == excluded_at - 2
