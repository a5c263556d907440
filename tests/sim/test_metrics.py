"""Tests for dissemination metrics and trial aggregation."""

import pytest

from repro.errors import SimulationError
from repro.sim import DisseminationReport, summarize_reports


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
        assert r.network_overhead == pytest.approx(900 / 40)

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


class TestSummaries:
    def test_mean_and_spread(self):
        reports = [
            report(delivered_interested=40),
            report(delivered_interested=20),
        ]
        summary = summarize_reports(reports)["delivery_ratio"]
        assert summary.mean == pytest.approx(0.75)
        assert summary.minimum == pytest.approx(0.5)
        assert summary.maximum == pytest.approx(1.0)
        assert summary.trials == 2
        assert summary.stddev == pytest.approx(0.25)
        assert summary.stderr == pytest.approx(0.25 / 2 ** 0.5)

    def test_all_metrics_present(self):
        summaries = summarize_reports([report()])
        assert set(summaries) == {
            "delivery_ratio",
            "false_reception_ratio",
            "rounds",
            "messages_sent",
            "network_overhead",
            "cost_per_delivery",
            "control_messages",
            "boundary_crossing_fraction",
            "duplicate_receptions",
            "messages_lost",
        }

    def test_accounting_metrics_aggregate(self):
        reports = [
            report(
                messages_lost=10,
                duplicate_receptions=100,
                messages_by_distance=(90, 10),
            ),
            report(
                messages_lost=30,
                duplicate_receptions=300,
                messages_by_distance=(50, 50),
            ),
        ]
        summaries = summarize_reports(reports)
        assert summaries["messages_lost"].mean == pytest.approx(20.0)
        assert summaries["duplicate_receptions"].mean == pytest.approx(200.0)
        assert summaries["boundary_crossing_fraction"].mean == pytest.approx(
            (0.1 + 0.5) / 2
        )
        assert summaries["boundary_crossing_fraction"].maximum == pytest.approx(
            0.5
        )

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            summarize_reports([])


class TestDistanceAccounting:
    def test_boundary_crossing_fraction(self):
        r = report(messages_by_distance=(70, 20, 10))
        assert r.boundary_crossing_fraction == pytest.approx(0.1)

    def test_no_messages_no_fraction(self):
        r = report(messages_by_distance=())
        assert r.boundary_crossing_fraction == 0.0
