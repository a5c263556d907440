"""Degenerate group shapes: the protocol must not fall over at the edges."""


from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.interests import Event, StaticInterest
from repro.sim import PmcastGroup, run_dissemination, run_dissemination_outcome


class TestSingleMemberGroup:
    def test_publish_to_self_only(self):
        members = {Address((0, 0)): StaticInterest(True)}
        group = PmcastGroup.build(members, PmcastConfig(redundancy=1))
        event = Event({}, event_id=50_001)
        report, outcome = run_dissemination_outcome(
            group, Address((0, 0)), event, SimConfig(seed=1)
        )
        assert report.delivery_ratio == 1.0
        assert report.messages_sent == 0
        assert outcome.delivered.tolist() == [True]


class TestTwoMemberGroup:
    def test_minimal_gossip(self):
        members = {
            Address((0, 0)): StaticInterest(True),
            Address((1, 0)): StaticInterest(True),
        }
        group = PmcastGroup.build(
            members, PmcastConfig(redundancy=1, min_rounds_per_depth=2)
        )
        event = Event({}, event_id=50_002)
        report = run_dissemination(
            group, Address((0, 0)), event, SimConfig(seed=2)
        )
        assert report.delivery_ratio == 1.0
        assert report.messages_sent >= 1


class TestFlatTree:
    """d = 1: pmcast degenerates to the flat group of §4.2."""

    def test_depth_one_dissemination(self):
        space = AddressSpace.regular(12, 1)
        members = {
            address: StaticInterest(True)
            for address in space.enumerate_regular(12)
        }
        group = PmcastGroup.build(
            members,
            PmcastConfig(fanout=3, redundancy=2, min_rounds_per_depth=2),
        )
        event = Event({}, event_id=50_003)
        report = run_dissemination(
            group, Address((0,)), event, SimConfig(seed=3)
        )
        assert report.delivery_ratio == 1.0
        # One depth only: every message is distance-1 traffic.
        assert report.messages_by_distance == (report.messages_sent,)

    def test_depth_one_selective(self):
        space = AddressSpace.regular(12, 1)
        members = {
            address: StaticInterest(address.components[0] < 6)
            for address in space.enumerate_regular(12)
        }
        group = PmcastGroup.build(
            members,
            PmcastConfig(fanout=3, redundancy=2, min_rounds_per_depth=2),
        )
        event = Event({}, event_id=50_004)
        report = run_dissemination(
            group, Address((0,)), event, SimConfig(seed=4)
        )
        assert report.delivery_ratio == 1.0
        # In a flat tree there are no delegates: genuine multicast.
        assert report.false_reception_ratio == 0.0


class TestDeepNarrowTree:
    def test_depth_five_binary(self):
        space = AddressSpace.regular(2, 5)     # n = 32, d = 5
        members = {
            address: StaticInterest(True)
            for address in space.enumerate_regular(2)
        }
        group = PmcastGroup.build(
            members,
            PmcastConfig(fanout=2, redundancy=1, min_rounds_per_depth=2),
        )
        event = Event({}, event_id=50_005)
        report = run_dissemination(
            group, Address((0, 0, 0, 0, 0)), event, SimConfig(seed=5)
        )
        assert report.delivery_ratio == 1.0
        assert len(report.messages_by_distance) == 5


class TestIrregularTree:
    def test_lopsided_population(self):
        # One fat subtree, several singletons: far from the regular
        # analysis model, but the protocol has no regularity assumption.
        members = {}
        for last in range(9):
            members[Address((0, 0, last))] = StaticInterest(True)
        for branch in range(1, 4):
            members[Address((branch, 0, 0))] = StaticInterest(True)
        group = PmcastGroup.build(
            members,
            PmcastConfig(fanout=2, redundancy=2, min_rounds_per_depth=2),
        )
        event = Event({}, event_id=50_006)
        report = run_dissemination(
            group, Address((0, 0, 0)), event, SimConfig(seed=6)
        )
        assert report.delivery_ratio == 1.0
