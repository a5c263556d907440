"""Tests for the non-figure experiment harnesses."""

import pytest

from repro.bench.extras import (
    VARIANT_GRID,
    ExperimentResult,
    baselines_experiment,
    locality_experiment,
    variants_experiment,
)
from repro.errors import ReproError


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


class TestCliExperiments:
    def test_cli_runs_experiments(self, capsys):
        from repro.bench.cli import main

        code = main(["--experiment", "locality", "--arity", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "distance" in captured.out
