"""Tests for the non-figure experiment harnesses.

``TestTableClaims`` holds the sentences EXPERIMENTS.md writes about
each table, asserted on the default-configuration rows that
``test_golden_digests.py`` pins (run once a process, shared through
its ``table``): a re-recorded digest still has to support the prose.
"""

import math

import pytest

from repro.bench.extras import (
    VARIANT_GRID,
    ExperimentResult,
    baselines_experiment,
    locality_experiment,
    variants_experiment,
)
from repro.errors import ReproError
from tests.bench.test_golden_digests import table


class TestExperimentResult:
    def test_add_and_render(self):
        result = ExperimentResult("T:", ["name", "value"])
        result.add_row(name="x", value=1.5)
        rendered = result.render()
        assert "T:" in rendered and "1.5000" in rendered

    def test_missing_column_rejected(self):
        result = ExperimentResult("T:", ["name", "value"])
        with pytest.raises(ReproError):
            result.add_row(name="x")

    def test_column_and_row_lookup(self):
        result = ExperimentResult("T:", ["name", "value"])
        result.add_row(name="x", value=1)
        result.add_row(name="y", value=2)
        assert result.column("value") == [1, 2]
        assert result.row("name", "y")["value"] == 2
        with pytest.raises(ReproError):
            result.column("missing")
        with pytest.raises(ReproError):
            result.row("name", "z")


class TestLocalityExperiment:
    def test_pmcast_beats_flood_on_boundary_traffic(self):
        result = locality_experiment(arity=5, depth=3, seed=1)
        pmcast = result.row("protocol", "pmcast")
        flood = result.row("protocol", "flood")
        assert pmcast["widest_fraction"] < flood["widest_fraction"]
        assert pmcast["delivery"] > 0.85
        assert flood["delivery"] > 0.95

    def test_distance_columns_sum_to_traffic(self):
        result = locality_experiment(arity=5, depth=3, seed=2)
        for row in result.rows:
            total = sum(row[f"distance {i + 1}"] for i in range(3))
            assert total > 0


class TestBaselinesExperiment:
    def test_qualitative_matrix(self):
        result = baselines_experiment(arity=6, depth=3, seed=3)
        pmcast = result.row("protocol", "pmcast")
        flood = result.row("protocol", "flood broadcast")
        genuine_tree = result.row("protocol", "genuine tree")
        genuine_flat = result.row("protocol", "genuine flat")
        assert flood["false_reception"] > 0.9
        assert pmcast["false_reception"] < flood["false_reception"]
        assert genuine_flat["false_reception"] == 0.0
        assert genuine_tree["delivery"] < pmcast["delivery"]
        assert pmcast["knowledge"] < flood["knowledge"]

    def test_render_has_all_protocols(self):
        rendered = baselines_experiment(arity=5, depth=3, seed=4).render()
        for name in ("pmcast", "flood broadcast", "genuine flat",
                     "genuine tree", "subset groups"):
            assert name in rendered


class TestVariantsExperiment:
    def test_lazy_pull_matches_pmcast_on_fewer_messages(self):
        # docs/VARIANTS.md's acceptance claim: on at least one (eps, tau)
        # grid point lazy pull delivers no worse than pmcast while
        # sending strictly fewer messages.
        result = variants_experiment()
        assert len(result.rows) == 4 * len(VARIANT_GRID)
        cell = {
            (row["algorithm"], row["eps"], row["tau"]): row
            for row in result.rows
        }
        assert any(
            cell["lazy_pull", eps, tau]["delivery_ratio"]
            >= cell["pmcast", eps, tau]["delivery_ratio"]
            and cell["lazy_pull", eps, tau]["messages_sent"]
            < cell["pmcast", eps, tau]["messages_sent"]
            for eps, tau in VARIANT_GRID
        )

    def test_digest_moves_with_any_cell(self):
        result = variants_experiment(arity=3, depth=2)
        before = result.digest()
        result.rows[-1]["rounds"] += 1
        assert result.digest() != before


def _value(name, metric):
    return table(name).row("metric", metric)["value"]


class TestTableClaims:
    def test_baselines_section1_matrix(self):
        rows = {row["protocol"]: row for row in table("baselines").rows}
        pmcast, flood = rows["pmcast"], rows["flood broadcast"]
        assert flood["delivery"] > 0.99 and flood["false_reception"] > 0.9
        assert pmcast["delivery"] > 0.9
        assert pmcast["false_reception"] < flood["false_reception"] / 2
        assert rows["genuine tree"]["delivery"] < pmcast["delivery"]
        assert pmcast["knowledge"] < (flood["knowledge"] + 1) / 3

    def test_locality_boundary_crossings(self):
        pmcast, flood = table("locality").rows
        assert pmcast["widest_fraction"] < 0.25 < 0.75 < flood["widest_fraction"]
        assert pmcast["delivery"] > 0.95 and flood["delivery"] > 0.99

    def test_rounds_model_collapse_and_loss_inflation(self):
        rows = table("rounds_model").rows
        assert rows[0]["p_d"] == 0.001 and rows[0]["T_3"] == 0.0
        clean, lossy = rows[-3], rows[-1]
        assert (clean["p_d"], clean["eps"], lossy["eps"]) == (0.5, 0.0, 0.1)
        assert lossy["T_tot"] > clean["T_tot"]

    def test_markov_chain_grows_to_saturation(self):
        expected = table("markov_chain").column("expected_infected")
        assert expected == sorted(expected) and expected[0] == 1.0
        # The bulk of the subgroup is infected a round before the Pittel
        # bound (ceil(8.54) = 9 rounds at n = 33, F = 1) already.
        assert table("markov_chain").row("round", 8)["expected_infected"] > 0.8 * 33

    def test_view_sizes_grow_sublinearly(self):
        small, large = table("view_sizes").rows[:2]
        assert (small["m"], large["m"]) == (70, 154)
        assert large["m"] / small["m"] < (large["n"] / small["n"]) ** 0.5

    def test_throughput_contention_keeps_per_event_reliability(self):
        assert _value("throughput", "min per-event ratio") > 0.9
        # The live membership machinery caused no false exclusions...
        assert _value("throughput", "membership exclusions") == 0
        # ...and passive GC drained every buffer under sustained load.
        assert _value("throughput", "total rounds") < 128 + 12

    def test_latency_stays_inside_the_eq13_budget(self):
        budget = _value("latency", "Eq 13 budget T_tot")
        assert _value("latency", "p95") <= math.ceil(budget) + 3 + 2
        assert _value("latency", "max") >= budget / 4

    def test_churn_degrades_gracefully(self):
        mean = dict(zip(table("churn").column("churn_per_round"),
                        table("churn").column("mean_delivery")))
        assert mean[0.0] > 0.99 and mean[0.5] > 0.9 and mean[1.0] > 0.8

    def test_fault_sensitivity_aware_budget_stays_competitive(self):
        cells = {(row["eps"], row["tau"]): row
                 for row in table("fault_sensitivity").rows}
        assert cells[0.0, 0.0]["plain"] > 0.97
        assert cells[0.3, 0.0]["plain"] < cells[0.0, 0.0]["plain"]
        assert all(row["aware"] >= row["plain"] - 0.05 for row in cells.values())
        assert cells[0.3, 0.0]["aware"] > 0.9

    def test_membership_convergence_everywhere(self):
        for row in table("membership_convergence").rows:
            assert row["converged"] and row["rounds"] < 256, row
            # Epidemic spreading: O(log n) rounds.
            assert row["rounds"] <= 4 * math.log2(row["n"]), row

    def test_ablations_every_knob_moves_a_cell(self):
        rows = {(row["knob"], row["setting"]): row for row in table("ablations").rows}

        def pair(knob, off, on):
            return rows[knob, off], rows[knob, on]

        weakest, strongest = pair("redundancy R", "R = 1", "R = 4")
        assert strongest["delivery"] >= weakest["delivery"] - 0.02
        assert rows["fanout F", "F = 3"]["delivery"] >= rows["fanout F", "F = 1"]["delivery"]
        off, on = pair("§3.2 shortcut", "off", "on")
        assert on["delivery"] >= off["delivery"] - 0.1
        # A publish of local interest skips the root depth: fewer
        # messages, fewer rounds (the two rows were identical until PR 21).
        assert on["messages"] < off["messages"] and on["rounds"] < off["rounds"]
        off, on = pair("§6 leaf flood", "off", "on")
        assert on["delivery"] >= off["delivery"] - 0.02
        exact, compact = pair("§6 compaction", "exact", "near root")
        # Compaction is conservative: delivery must not drop, and its
        # price is extra (false) receptions — strictly, on this workload.
        assert compact["delivery"] >= exact["delivery"] - 0.02
        assert compact["false_reception"] > exact["false_reception"]


class TestCliExperiments:
    def test_cli_runs_experiments(self, capsys):
        from repro.bench.cli import main

        code = main(["--experiment", "locality", "--arity", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "distance" in captured.out
