"""Tests for dissemination metrics."""

import pytest

from repro.errors import SimulationError
from repro.sim import DisseminationReport


def report(**overrides):
    fields = dict(
        group_size=100,
        interested=40,
        uninterested=59,
        delivered_interested=38,
        received_uninterested=5,
        received_total=44,
        crashed=0,
        rounds=12,
        messages_sent=900,
        messages_lost=30,
        duplicate_receptions=200,
    )
    fields.update(overrides)
    return DisseminationReport(**fields)


class TestDisseminationReport:
    def test_ratios(self):
        r = report()
        assert r.delivery_ratio == pytest.approx(38 / 40)
        assert r.false_reception_ratio == pytest.approx(5 / 59)

    def test_degenerate_denominators(self):
        r = report(interested=0, delivered_interested=0)
        assert r.delivery_ratio == 1.0
        r = report(uninterested=0, received_uninterested=0)
        assert r.false_reception_ratio == 0.0

    def test_conservation_invariants_enforced(self):
        with pytest.raises(SimulationError):
            report(delivered_interested=41)
        with pytest.raises(SimulationError):
            report(received_uninterested=60)
        with pytest.raises(SimulationError):
            report(messages_lost=901)
        with pytest.raises(SimulationError):
            report(control_messages=901)

    def test_cost_per_delivery(self):
        r = report()
        assert r.cost_per_delivery == pytest.approx(900 / 38)
        # Missed deliveries are paid for: halving delivery doubles cost.
        cheap = report(delivered_interested=38)
        costly = report(delivered_interested=19)
        assert costly.cost_per_delivery == pytest.approx(
            2 * cheap.cost_per_delivery
        )
        # Degenerate: nothing delivered, cost is the raw message count.
        r = report(delivered_interested=0)
        assert r.cost_per_delivery == pytest.approx(900.0)


class TestDistanceAccounting:
    def test_boundary_crossing_fraction(self):
        r = report(messages_by_distance=(70, 20, 10))
        assert r.boundary_crossing_fraction == pytest.approx(0.1)

    def test_no_messages_no_fraction(self):
        r = report(messages_by_distance=())
        assert r.boundary_crossing_fraction == 0.0
