"""Tests for the ``python -m repro.bench`` CLI."""

import pytest

from repro.bench.cli import main


class TestCli:
    def test_requires_figure_selection(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_single_figure_quick(self, capsys):
        code = main(["--figure", "4", "--arity", "4", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Figure 4" in captured.out
        assert "simulated" in captured.out

    def test_figure7_threshold_flag(self, capsys):
        code = main(
            ["--figure", "7", "--arity", "4", "--trials", "1",
             "--threshold", "5"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "h=5" in captured.out

    def test_figure6_arity_override(self, capsys):
        code = main(["--figure", "6", "--arity", "5", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Figure 6" in captured.out

    def test_repeatable_figure_flag(self, capsys):
        code = main(
            ["--figure", "4", "--figure", "5", "--arity", "4",
             "--trials", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Figure 4" in captured.out
        assert "Figure 5" in captured.out

    def test_invalid_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["--figure", "9"])

    def test_depth_flag_is_gone(self, capsys):
        # Every table is d = 3: --members derives the arity for it, and
        # a --depth no table runs is a usage error, not ignored.
        with pytest.raises(SystemExit) as exit_info:
            main(["--experiment", "view_sizes", "--depth", "4"])
        assert exit_info.value.code == 2
        assert "--depth" in capsys.readouterr().err

    @pytest.mark.parametrize("number", ["5", "6", "7"])
    def test_failure_parameters_are_stated(self, number, capsys):
        # A lossy figure cannot be mistaken for a failure-free one.
        code = main(["--figure", number, "--arity", "4", "--trials", "1",
                     "--loss", "0.1"])
        assert code == 0
        assert ", loss=0.1, crash=0.0\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "selection",
        [["--figure", "4"], ["--experiment", "baselines"],
         ["--experiment", "variants"]],
    )
    def test_bad_arity_is_a_clean_error(self, selection, capsys):
        # Figures and experiments share one error path: a ReproError
        # is a usage error (exit 2, one line), never a traceback.
        code = main(selection + ["--arity", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: arity 0 must be >= 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (["--experiment", "baselines", "--trials", "7", "--loss", "0.1"],
             "baselines does not take --loss; baselines does not take "
             "--trials"),
            (["--figure", "4", "--figure", "7", "--threshold", "5"],
             "figure4 does not take --threshold"),
            (["--experiment", "rounds_model", "--seed", "3"],
             "rounds_model does not take --seed"),
            (["--experiment", "membership_convergence", "--members", "64"],
             "membership_convergence does not take --arity"),
        ],
    )
    def test_a_flag_no_selected_table_takes_is_an_error(
        self, argv, complaint, capsys
    ):
        # Never silently dropped: nothing runs, nothing is printed.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {complaint}\n"
        assert captured.out == ""

    def test_dispatch_line_whenever_trials_ran(self, capsys):
        # Experiments over the trial grid report their dispatch too...
        assert main(["--experiment", "membership_convergence"]) == 0
        assert capsys.readouterr().err == (
            "[dispatch: 4 trials run, jobs=1]\n"
        )
        # ...and a closed-form table, which ran none, does not.
        assert main(["--experiment", "view_sizes", "--jobs", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_grid_tables_identical_for_any_jobs(self, capsys):
        def stdout(argv, jobs):
            assert main(argv + ["--jobs", jobs]) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if not line.startswith("[")]

        for argv in (
            ["--experiment", "ablations", "--experiment", "churn",
             "--experiment", "fault_sensitivity", "--arity", "4"],
            ["--experiment", "membership_convergence"],
        ):
            assert stdout(argv, "2") == stdout(argv, "1")

    def test_variants_experiment_prints_its_digest(self, capsys):
        code = main(["--experiment", "variants"])
        captured = capsys.readouterr()
        assert code == 0
        for algorithm in ("pmcast", "flat_push", "lazy_pull", "bounded_view"):
            assert algorithm in captured.out
        assert (
            "rows sha1: 899e86e0a56f1d7b93f8224b2776a7d7555adcdc"
            in captured.out
        )
