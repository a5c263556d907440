"""Tests for the flat gossip baselines (§1 alternatives 1 and 2)."""

from statistics import mean

import pytest

from repro.addressing import AddressSpace
from repro.config import SimConfig
from repro.errors import SimulationError
from repro.interests import Event
from repro.baselines import flat_genuine_multicast, flat_gossip_broadcast
from repro.sim import CrashSchedule, bernoulli_interests, derive_rng


def make_members(count_arity=5, rate=0.5, seed=0):
    space = AddressSpace.regular(count_arity, 3)
    addresses = space.enumerate_regular(count_arity)
    return bernoulli_interests(addresses, rate, derive_rng(seed, "flat"))


class TestFloodBroadcast:
    def test_reliable_but_floods_everyone(self):
        members = make_members(rate=0.3)
        publisher = sorted(members)[0]
        report = flat_gossip_broadcast(
            members, publisher, Event({}), fanout=3, sim_config=SimConfig(seed=1)
        )
        assert report.delivery_ratio > 0.99
        # The defining cost: nearly every uninterested process receives.
        assert report.false_reception_ratio > 0.95

    def test_interest_rate_does_not_change_message_count_much(self):
        members_low = make_members(rate=0.1, seed=1)
        members_high = make_members(rate=0.9, seed=1)
        publisher = sorted(members_low)[0]
        low = flat_gossip_broadcast(
            members_low, publisher, Event({}, event_id=500), 3,
            SimConfig(seed=2),
        )
        high = flat_gossip_broadcast(
            members_high, publisher, Event({}, event_id=500), 3,
            SimConfig(seed=2),
        )
        assert low.messages_sent == pytest.approx(high.messages_sent, rel=0.2)

    def test_loss_tolerated(self):
        members = make_members(rate=1.0)
        publisher = sorted(members)[0]
        report = flat_gossip_broadcast(
            members, publisher, Event({}), 3,
            SimConfig(seed=3, loss_probability=0.2),
        )
        assert report.delivery_ratio > 0.95
        assert report.messages_lost > 0

    def test_unknown_publisher_rejected(self):
        from repro.addressing import Address

        members = make_members()
        with pytest.raises(SimulationError):
            flat_gossip_broadcast(members, Address.parse("99.99.99"), Event({}))

    def test_invalid_fanout_rejected(self):
        members = make_members()
        with pytest.raises(SimulationError):
            flat_gossip_broadcast(members, sorted(members)[0], Event({}), 0)


class TestGenuineMulticast:
    def test_no_false_receptions_ever(self):
        members = make_members(rate=0.4)
        publisher = sorted(members)[0]
        report = flat_genuine_multicast(
            members, publisher, Event({}), 3, SimConfig(seed=4)
        )
        assert report.false_reception_ratio == 0.0
        assert report.delivery_ratio > 0.95

    def test_cheaper_than_flooding_at_low_rates(self):
        members = make_members(rate=0.1, seed=5)
        publisher = sorted(members)[0]
        event = Event({}, event_id=600)
        flood = flat_gossip_broadcast(
            members, publisher, event, 3, SimConfig(seed=6)
        )
        genuine = flat_genuine_multicast(
            members, publisher, event, 3, SimConfig(seed=6)
        )
        assert genuine.messages_sent < flood.messages_sent / 2

    def test_crashes_accounted(self):
        members = make_members(rate=1.0)
        addresses = sorted(members)
        schedule = CrashSchedule.at_start(addresses[1:4])
        report = flat_genuine_multicast(
            members, addresses[0], Event({}), 3, SimConfig(seed=7),
            crash_schedule=schedule,
        )
        assert report.crashed == 3
        assert report.delivery_ratio < 1.0   # victims cannot deliver
        # But the bulk of survivors still deliver.
        assert report.delivered_interested > 0.9 * (len(addresses) - 4)


class TestMessageCostAccounting:
    """Per-delivered-event message cost — the §1 comparison axis the
    baselines exist for, previously computed ad hoc in the bench code
    and asserted nowhere."""

    def test_flood_cost_per_delivery_pinned(self):
        members = make_members(rate=0.3)
        publisher = sorted(members)[0]
        report = flat_gossip_broadcast(
            members, publisher, Event({}, event_id=700), 3,
            SimConfig(seed=8),
        )
        # The defining flood economics: every delivery is paid for by
        # messages to the ~70% uninterested majority as well.
        assert report.cost_per_delivery == pytest.approx(
            report.messages_sent / report.delivered_interested
        )
        assert report.cost_per_delivery > 1.0 / 0.3
        # Pure push sends no control traffic, so the cost is all
        # payload (the variant comparisons rely on this split).
        assert report.control_messages == 0

    def test_genuine_cheaper_per_delivery_at_low_rates(self):
        members = make_members(rate=0.1, seed=9)
        publisher = sorted(members)[0]
        event = Event({}, event_id=701)
        flood = flat_gossip_broadcast(
            members, publisher, event, 3, SimConfig(seed=10)
        )
        genuine = flat_genuine_multicast(
            members, publisher, event, 3, SimConfig(seed=10)
        )
        assert genuine.cost_per_delivery < flood.cost_per_delivery

    def test_summary_exposes_cost(self):
        members = make_members(rate=0.5)
        publisher = sorted(members)[0]
        reports = [
            flat_gossip_broadcast(
                members, publisher, Event({}, event_id=702), 3,
                SimConfig(seed=seed),
            )
            for seed in (11, 12)
        ]
        assert mean(r.cost_per_delivery for r in reports) == pytest.approx(
            sum(r.cost_per_delivery for r in reports) / 2
        )
        assert mean(r.control_messages for r in reports) == 0.0
