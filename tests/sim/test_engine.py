"""Integration tests for the round-synchronous engine."""

from itertools import compress

import pytest

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.interests import Event
from repro.sim import (
    CrashSchedule,
    PmcastGroup,
    bernoulli_interests,
    derive_rng,
    run_dissemination,
    run_dissemination_outcome,
)


def build_group(arity=3, depth=3, rate=1.0, redundancy=2, seed=0, down=(), **config):
    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(addresses, rate, derive_rng(seed, "w"))
    pm = PmcastConfig(
        fanout=2, redundancy=redundancy, min_rounds_per_depth=2, **config
    )
    return PmcastGroup.build(members, pm, down=down), addresses


def holding(group, column):
    """The members whose outcome ``column`` is set."""
    return set(compress(group.addresses(), column))


class TestLossFreeDissemination:
    def test_full_interest_full_delivery(self):
        group, addresses = build_group(rate=1.0)
        report = run_dissemination(
            group, addresses[0], Event({}), SimConfig(seed=1)
        )
        assert report.delivery_ratio == 1.0
        assert report.interested == 27
        assert report.received_total == 27
        assert report.rounds > 0

    def test_half_interest_spares_leaves(self):
        group, addresses = build_group(arity=4, rate=0.5, seed=3)
        report = run_dissemination(
            group, addresses[0], Event({}, event_id=20_002),
            SimConfig(seed=2),
        )
        assert report.delivery_ratio >= 0.9
        # Uninterested non-delegate leaf processes are never targeted.
        assert report.false_reception_ratio < 0.6
        assert report.received_total < report.group_size

    def test_zero_interest_dies_quietly(self):
        group, addresses = build_group(rate=0.0)
        report = run_dissemination(
            group, addresses[0], Event({}), SimConfig(seed=1)
        )
        assert report.interested == 0
        assert report.delivery_ratio == 1.0   # vacuous
        # With nobody interested the event should barely travel.
        assert report.received_total <= group.tree.redundancy * 3 + 1

    def test_terminates_and_goes_idle(self):
        group, addresses = build_group()
        report, outcome = run_dissemination_outcome(
            group, addresses[0], Event({}), SimConfig(seed=5)
        )
        assert report.rounds < SimConfig().max_rounds
        assert not outcome.buf_depth.any()

    def test_infection_curve_monotone(self):
        group, addresses = build_group()
        report = run_dissemination(
            group, addresses[0], Event({}), SimConfig(seed=5)
        )
        curve = report.infection_curve
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert curve[-1] == report.received_total

    def test_deterministic_under_seed(self):
        reports = []
        for __ in range(2):
            group, addresses = build_group(seed=11)
            event = Event({}, event_id=77)
            reports.append(
                run_dissemination(group, addresses[0], event,
                                  SimConfig(seed=9))
            )
        assert reports[0] == reports[1]

    def test_crashed_publisher_rejected(self):
        group, addresses = build_group(down=[Address((0, 0, 0))])
        with pytest.raises(SimulationError):
            run_dissemination(group, addresses[0], Event({}), SimConfig())


class TestConservationInvariants:
    def test_delivered_subset_of_received_subset_of_group(self):
        group, addresses = build_group(arity=4, rate=0.4, seed=7)
        event = Event({})
        report, outcome = run_dissemination_outcome(
            group, addresses[0], event, SimConfig(seed=3)
        )
        delivered = holding(group, outcome.delivered)
        received = holding(group, outcome.received)
        assert delivered <= received
        assert len(received) == report.received_total
        # Delivery happens exactly at interested receivers.
        interested = set(group.interested_members(event))
        assert delivered == received & interested


class TestLossAndCrashes:
    def test_loss_slows_but_mostly_delivers(self):
        group, addresses = build_group(arity=4, rate=1.0)
        report = run_dissemination(
            group,
            addresses[0],
            Event({}, event_id=20_003),
            SimConfig(seed=5, loss_probability=0.2),
        )
        assert report.messages_lost > 0
        assert report.delivery_ratio > 0.8

    def test_loss_aware_rounds_gossip_longer(self):
        # Eq 11 is about budgeting MORE rounds under loss; that part is
        # deterministic and checked exactly: the aware configuration
        # must gossip strictly more rounds and send more messages.
        lossy = SimConfig(seed=5, loss_probability=0.3)
        plain_group, addresses = build_group(arity=4, seed=1)
        plain = run_dissemination(
            plain_group, addresses[0], Event({}, event_id=10_000), lossy
        )
        aware_group, addresses = build_group(
            arity=4, seed=1, loss_aware_rounds=True, assumed_loss=0.3
        )
        aware = run_dissemination(
            aware_group, addresses[0], Event({}, event_id=10_000), lossy
        )
        assert aware.rounds > plain.rounds
        assert aware.messages_sent > plain.messages_sent
        # And reliability must not suffer for the extra budget.
        assert aware.delivery_ratio >= plain.delivery_ratio - 0.05

    def test_crashes_reported(self):
        group, addresses = build_group(arity=4)
        schedule = CrashSchedule({victim: 0 for victim in 
            [addresses[-1], addresses[-2], addresses[-3]]
        })
        report, outcome = run_dissemination_outcome(
            group, addresses[0], Event({}), SimConfig(seed=1),
            crash_schedule=schedule,
        )
        assert report.crashed == 3
        victims = {addresses[-1], addresses[-2], addresses[-3]}
        assert not victims & holding(group, outcome.received)
        assert victims <= holding(group, ~outcome.alive)

    def test_survivors_still_delivered_despite_crashes(self):
        group, addresses = build_group(arity=4, redundancy=3)
        victims = addresses[1:9]
        schedule = CrashSchedule({victim: 0 for victim in victims})
        event = Event({}, event_id=20_001)
        report, outcome = run_dissemination_outcome(
            group, addresses[0], event, SimConfig(seed=8),
            crash_schedule=schedule,
        )
        survivors_interested = [
            a for a in group.interested_members(event) if a not in set(victims)
        ]
        delivered = [
            a for a in survivors_interested
            if a in holding(group, outcome.delivered)
        ]
        assert len(delivered) / len(survivors_interested) > 0.9

    def test_partitioned_network_blocks_subtree(self):
        group, addresses = build_group(arity=3, rate=1.0)
        side_b = {a for a in addresses if a.components[0] == 2}
        plan = (
            FaultPlan(name="cut")
            .with_partition(0, 64, "0", "2")
            .with_partition(0, 64, "1", "2")
        )
        event = Event({})
        report, outcome = run_dissemination_outcome(
            group, addresses[0], event, SimConfig(seed=4), faults=plan
        )
        assert not side_b & holding(group, outcome.received)
        assert report.delivery_ratio <= (27 - len(side_b)) / 27


class TestMultipleEvents:
    def test_sequential_events_are_independent(self):
        group, addresses = build_group(rate=1.0)
        first = Event({})
        second = Event({})
        report_1, outcome_1 = run_dissemination_outcome(
            group, addresses[0], first, SimConfig(seed=1)
        )
        report_2, outcome_2 = run_dissemination_outcome(
            group, addresses[-1], second, SimConfig(seed=2)
        )
        assert report_1.delivery_ratio == 1.0
        assert report_2.delivery_ratio == 1.0
        # Message accounting is per-run, not cumulative.
        assert report_2.messages_sent < report_1.messages_sent * 3
        assert outcome_1.delivered.all() and outcome_2.delivered.all()
