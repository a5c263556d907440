"""Tests for crash schedules (§4.1: tau = f/n)."""

import random

import pytest

from repro.addressing import Address
from repro.errors import SimulationError
from repro.sim import CrashSchedule


def addresses(count):
    return [Address((0, i)) for i in range(count)]


class TestConstruction:
    def test_none(self):
        schedule = CrashSchedule()
        assert schedule.victim_count == 0
        assert schedule.crashes_at(0) == []

    def test_at_start(self):
        victims = addresses(3)
        schedule = CrashSchedule({victim: 0 for victim in victims})
        assert schedule.crashes_at(0) == sorted(victims)
        assert schedule.crashes_at(1) == []

    def test_negative_round_rejected(self):
        with pytest.raises(SimulationError):
            CrashSchedule({Address((0, 0)): -1})


class TestSampling:
    def test_fraction_approximated(self):
        members = addresses(2000)
        schedule = CrashSchedule.sample(
            members, 0.25, horizon=10, rng=random.Random(3)
        )
        assert schedule.victim_count == pytest.approx(500, abs=60)

    def test_rounds_within_horizon(self):
        members = addresses(200)
        schedule = CrashSchedule.sample(
            members, 0.5, horizon=7, rng=random.Random(1)
        )
        for crash_round in schedule._crash_rounds.values():
            assert 0 <= crash_round < 7

    def test_zero_fraction_no_victims(self):
        schedule = CrashSchedule.sample(
            addresses(100), 0.0, horizon=5, rng=random.Random(0)
        )
        assert schedule.victim_count == 0

    def test_deterministic_under_seed(self):
        members = addresses(100)
        a = CrashSchedule.sample(members, 0.3, 10, random.Random(9))
        b = CrashSchedule.sample(members, 0.3, 10, random.Random(9))
        assert a._crash_rounds == b._crash_rounds

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            CrashSchedule.sample(addresses(5), 1.0, 5, random.Random(0))
        with pytest.raises(SimulationError):
            CrashSchedule.sample(addresses(5), 0.5, 0, random.Random(0))
