"""Failure-injection scenarios beyond the i.i.d. model of §4.1."""


from itertools import compress

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.faults import FaultPlan
from repro.interests import Event, StaticInterest
from repro.sim import (
    CrashSchedule,
    PmcastGroup,
    run_dissemination,
    run_dissemination_outcome,
)


def build_group(arity=4, depth=3, redundancy=3, fanout=3):
    space = AddressSpace.regular(arity, depth)
    members = {
        address: StaticInterest(True)
        for address in space.enumerate_regular(arity)
    }
    group = PmcastGroup.build(
        members,
        PmcastConfig(
            fanout=fanout, redundancy=redundancy, min_rounds_per_depth=2
        ),
    )
    return group, sorted(members)


def holding(group, column):
    """The members whose outcome ``column`` is set."""
    return set(compress(group.addresses(), column))


class TestPublisherCrash:
    def test_publisher_crash_after_first_round_still_spreads(self):
        group, addresses = build_group()
        publisher = addresses[0]
        schedule = CrashSchedule({publisher: 2})
        event = Event({}, event_id=601)
        report = run_dissemination(
            group, publisher, event, SimConfig(seed=61),
            crash_schedule=schedule,
        )
        # Two rounds at the root with F=3 seed enough delegates to
        # carry the event onward without the publisher.
        survivors = len(addresses) - 1
        assert report.delivered_interested >= 0.9 * survivors

    def test_publisher_crash_at_round_zero_kills_the_event(self):
        group, addresses = build_group()
        publisher = addresses[0]
        schedule = CrashSchedule({publisher: 0})
        event = Event({}, event_id=602)
        report = run_dissemination(
            group, publisher, event, SimConfig(seed=62),
            crash_schedule=schedule,
        )
        # Nobody else ever saw it: the paper's guarantees are about
        # events that enter the gossip at all.
        assert report.received_total == 1
        assert report.rounds == 0


class TestSubgroupWipeout:
    def test_whole_leaf_subgroup_crashes(self):
        group, addresses = build_group()
        victims = [a for a in addresses if a.prefix(3) == addresses[0].prefix(3)]
        publisher = addresses[-1]
        schedule = CrashSchedule({victim: 0 for victim in victims})
        event = Event({}, event_id=603)
        report, outcome = run_dissemination_outcome(
            group, publisher, event, SimConfig(seed=63),
            crash_schedule=schedule,
        )
        # Subgroup 0.0 contained ALL R root delegates of subtree 0
        # (they are its smallest addresses), so the rest of subtree 0
        # is cut off until membership repair — while every other
        # subtree must still be blanketed.
        stranded = [
            a for a in addresses
            if a.components[0] == 0 and a not in set(victims)
        ]
        others = [a for a in addresses if a.components[0] != 0]
        delivered_others = set(others) & holding(group, outcome.delivered)
        assert len(delivered_others) >= 0.9 * len(others)
        assert not set(stranded) & holding(group, outcome.received)

    def test_all_root_delegates_of_one_subtree_crash(self):
        group, addresses = build_group(redundancy=2)
        # The delegates representing subtree 2 at the root.
        subtree = [a for a in addresses if a.components[0] == 2]
        victims = subtree[:2]          # its two smallest = its delegates
        publisher = addresses[0]
        schedule = CrashSchedule({victim: 0 for victim in victims})
        event = Event({}, event_id=604)
        __, outcome = run_dissemination_outcome(
            group, publisher, event, SimConfig(seed=64),
            crash_schedule=schedule,
        )
        reached = set(subtree[2:]) & holding(group, outcome.received)
        # With its only root representatives dead and no membership
        # repair in a single static run, subtree 2 is unreachable —
        # this is exactly why R must exceed the tolerated failures and
        # why the §2.3 detector matters.
        assert not reached


def cut_plan(start, end):
    """Subtrees 0 and 1 cut off from subtrees 2 and 3 during rounds
    ``[start, end)`` — one partition clause per pair of subtrees."""
    plan = FaultPlan(name="cut")
    for side_a in ("0", "1"):
        for side_b in ("2", "3"):
            plan = plan.with_partition(start, end, side_a, side_b)
    return plan


class TestPartitionHealing:
    def test_partition_heal_before_expiry_recovers(self):
        group, addresses = build_group()
        # Healed after round 1, while the root gossip budget (~3 rounds
        # at this size) is still live — cross-subtree traffic only
        # flows at the root depth.
        event = Event({}, event_id=605)
        __, outcome = run_dissemination_outcome(
            group, addresses[0], event, SimConfig(seed=65),
            faults=cut_plan(0, 1),
        )
        delivered = holding(group, outcome.delivered)
        assert len(delivered) >= 0.9 * len(addresses)

    def test_permanent_partition_contains_the_event(self):
        group, addresses = build_group()
        event = Event({}, event_id=606)
        __, outcome = run_dissemination_outcome(
            group, addresses[0], event, SimConfig(seed=66),
            faults=cut_plan(0, 64),
        )
        for address in holding(group, outcome.received):
            assert address.components[0] < 2
