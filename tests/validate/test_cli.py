"""``python -m repro.validate`` CLI: exit codes and report output."""

import json
import subprocess
import sys

from repro.validate import REPORT_SCHEMA


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.validate", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestCli:
    def test_faults_suite_passes(self):
        result = run_cli("--suite", "faults")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "conformance:" in result.stdout
        assert "[PASS]" in result.stdout
        assert "[FAIL]" not in result.stdout

    def test_bad_suite_is_a_usage_error(self):
        result = run_cli("--suite", "astrology")
        assert result.returncode == 2

    def test_too_few_trials_is_an_environment_error(self):
        # Raised before any simulation runs, so this stays fast.
        result = run_cli("--suite", "flat", "--trials", "1")
        assert result.returncode == 2
        assert result.stderr

    def test_trials_on_deterministic_suites_is_a_usage_error(self):
        # Never silently dropped: nothing runs.
        result = run_cli("faults", "--trials", "5")
        assert result.returncode == 2
        assert result.stderr == (
            "error: faults does not take --trials (deterministic)\n"
        )
        assert result.stdout == ""

    def test_trials_apply_when_one_selected_suite_takes_them(self):
        result = run_cli("flat", "faults", "--trials", "5")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "(flat, faults)" in result.stdout
        assert "trials=5" in result.stdout

    def test_output_writes_schema_report(self, tmp_path):
        path = tmp_path / "report.json"
        result = run_cli(
            "--suite", "faults", "--output", str(path)
        )
        assert result.returncode == 0
        data = json.loads(path.read_text())
        assert data["schema"] == REPORT_SCHEMA
        assert data["passed"] is True
        assert data["summary"]["failed"] == 0
        assert data["config"]["suites"] == ["faults"]

    def test_json_flag_prints_parseable_report(self):
        result = run_cli("--suite", "faults", "--json")
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["schema"] == REPORT_SCHEMA
        assert all(c["passed"] for c in data["checks"])
