"""Smoke tests for the repro.bench.perf microbenchmark CLI."""

import json

import pytest

from repro.bench.perf import SCHEMA, main, run_suite


class TestRunSuite:
    def test_small_suite_has_all_sections(self):
        report = run_suite(arity=3, depth=2, seed=0)
        results = report["results"]["current"]
        for name in ("round_loop", "engine", "churn_refresh", "match_cache"):
            assert name in results
            assert results[name]["seconds"] >= 0
        assert report["schema"] == SCHEMA
        assert results["round_loop"]["digest"]
        assert results["round_loop"]["active_count_final"] == 0
        assert results["round_loop"]["cache_stats"]["table_hits"] > 0

    def test_failing_bench_fails_the_suite(self, tmp_path, monkeypatch):
        # A bench whose runtime constructor raises (here: a TypeError,
        # which the old harness swallowed whenever a fault plan was
        # passed) must fail the run — never yield a report that
        # silently lacks the section.
        from repro.bench import perf

        def broken(*args, **kwargs):
            raise TypeError("constructor bug")

        monkeypatch.setattr(perf, "GroupRuntime", broken)
        out = tmp_path / "bench.json"
        with pytest.raises(TypeError, match="constructor bug"):
            main(
                [
                    "--arity", "3", "--depth", "2",
                    "--bench", "engine", "--faults",
                    "--output", str(out),
                ]
            )
        assert not out.exists()


class TestCli:
    def test_output_is_required(self, tmp_path, monkeypatch, capsys):
        # No default path: a bare run must not write BENCH_PR1.json
        # (or anything else) into the working directory.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["--arity", "3", "--depth", "2", "--bench", "engine"])
        assert excinfo.value.code == 2
        assert "--output" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_writes_well_formed_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            ["--arity", "3", "--depth", "2", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA
        assert report["config"]["members"] == 9
        assert "round_loop" in report["results"]["current"]
        assert str(out) in capsys.readouterr().out

    def test_baseline_merge_computes_speedups(self, tmp_path):
        base = tmp_path / "base.json"
        out = tmp_path / "bench.json"
        main(
            [
                "--arity", "3", "--depth", "2",
                "--bench", "round_loop",
                "--output", str(base),
            ]
        )
        main(
            [
                "--arity", "3", "--depth", "2",
                "--bench", "round_loop",
                "--baseline", str(base),
                "--output", str(out),
            ]
        )
        report = json.loads(out.read_text())
        entry = report["speedup_vs_baseline"]["round_loop"]
        assert entry["identical_results"] is True
        assert entry["speedup"] > 0
