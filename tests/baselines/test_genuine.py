"""Tests for tree-structured genuine multicast: the isolation failure."""

import pytest

from repro.addressing import Address, AddressSpace, Prefix
from repro.config import PmcastConfig, SimConfig
from repro.errors import SimulationError
from repro.interests import Event, StaticInterest
from repro.baselines import build_genuine_group
from repro.sim import PmcastGroup, run_dissemination


def isolation_members():
    """Subtree 1: delegates uninterested, the rest interested.

    Addresses 1.0.* sort lowest in subtree 1, so with R=2 the two
    delegates of subgroup (1,) are 1.0.0 and 1.0.1 — both uninterested,
    while six other processes behind them are interested.
    """
    space = AddressSpace.regular(2, 3)
    members = {}
    for address in space.enumerate_regular(2):
        if address.components[0] == 0:
            members[address] = StaticInterest(True)
        else:
            members[address] = StaticInterest(
                address.components[1] == 1  # 1.1.* interested, 1.0.* not
            )
    return members


class TestIsolation:
    def test_genuine_filtering_isolates_interested_processes(self):
        members = isolation_members()
        config = PmcastConfig(fanout=2, redundancy=2, min_rounds_per_depth=2)
        publisher = Address((0, 0, 0))
        event = Event({}, event_id=900)

        genuine = build_genuine_group(members, config)
        report_genuine = run_dissemination(
            genuine, publisher, event, SimConfig(seed=1)
        )
        pmcast_group = PmcastGroup.build(members, config)
        report_pmcast = run_dissemination(
            pmcast_group, publisher, Event({}, event_id=901),
            SimConfig(seed=1),
        )

        # pmcast routes through the uninterested delegates of subtree 1
        # and reaches 1.1.*; genuine filtering never sends to them, so
        # the interested processes behind them are cut off.
        assert report_pmcast.delivery_ratio == 1.0
        assert report_genuine.delivery_ratio < 1.0
        for last in range(2):
            trapped = genuine.node(Address((1, 1, last)))
            assert not trapped.has_received(event)

    def test_genuine_view_rows_use_delegate_interests(self):
        members = isolation_members()
        group = build_genuine_group(
            members, PmcastConfig(fanout=2, redundancy=2)
        )
        # Root row for subtree 1: both delegates (1.0.0, 1.0.1) are
        # uninterested, so the row summary is uninterested — even though
        # the subtree contains interested processes.
        root = group._tables[Prefix(())]
        assert not root.row(1).interest.matches(Event({}))
        # The real pmcast view disagrees.
        real = PmcastGroup.build(
            members, PmcastConfig(fanout=2, redundancy=2)
        )
        assert real._tables[Prefix(())].row(1).interest.matches(Event({}))

    def test_no_difference_when_delegates_interested(self):
        space = AddressSpace.regular(2, 2)
        members = {
            address: StaticInterest(True)
            for address in space.enumerate_regular(2)
        }
        config = PmcastConfig(fanout=2, redundancy=1, min_rounds_per_depth=2)
        genuine = build_genuine_group(members, config)
        report = run_dissemination(
            genuine, Address((0, 0)), Event({}), SimConfig(seed=2)
        )
        assert report.delivery_ratio == 1.0

    def test_empty_group_rejected(self):
        with pytest.raises(SimulationError):
            build_genuine_group({})
