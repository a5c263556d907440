"""Fast harness mechanics: bands, report shape, suite selection."""

import pytest

from repro.errors import ValidationError
from repro.validate import (
    REPORT_SCHEMA,
    SUITES,
    CheckResult,
    ToleranceBand,
    ValidationReport,
    run_conformance,
)
from repro.validate.cli import _build_parser
from repro.validate.harness import _REGISTRY


def check(passed=True, suite="flat", name="c", **over):
    fields = dict(
        suite=suite,
        name=name,
        equation="Eqs 8-10",
        predicted=1.0,
        observed=1.1,
        stderr=0.05,
        trials=10,
        lower_bound=0.5,
        upper_bound=1.5,
        passed=passed,
        params={"eps": 0.0},
    )
    fields.update(over)
    return CheckResult(**fields)


class TestToleranceBand:
    def test_bounds_combine_absolute_relative_and_ci(self):
        band = ToleranceBand(0.1, 0.2, relative=0.1, ci_z=2.0)
        low, high = band.bounds(10.0, stderr=0.5)
        # widen = 0.1 * 10 + 2.0 * 0.5 = 2.0
        assert low == pytest.approx(10.0 - 0.1 - 2.0)
        assert high == pytest.approx(10.0 + 0.2 + 2.0)

    def test_asymmetry(self):
        band = ToleranceBand(0.0, 1.0, ci_z=0.0)
        assert band.bounds(5.0) == (5.0, 6.0)

    def test_exact_band_admits_only_the_prediction(self):
        band = ToleranceBand(0.0, 0.0, 0.0, 0.0)
        assert band.bounds(3.0, stderr=0.5) == (3.0, 3.0)


class TestValidationReport:
    def test_passed_and_failures(self):
        good = ValidationReport(
            checks=[check(), check(name="d")], config={}
        )
        assert good.passed and good.failures() == []
        bad = ValidationReport(
            checks=[check(), check(passed=False, name="d")], config={}
        )
        assert not bad.passed
        assert [c.name for c in bad.failures()] == ["d"]

    def test_suites_preserve_execution_order(self):
        report = ValidationReport(
            checks=[
                check(suite="tree"),
                check(suite="flat", name="d"),
                check(suite="tree", name="e"),
            ],
            config={},
        )
        assert report.suites() == ("tree", "flat")

    def test_to_dict_schema_and_summary(self):
        report = ValidationReport(
            checks=[check(), check(passed=False, name="d")],
            config={"seed": 2002},
        )
        data = report.to_dict()
        assert data["schema"] == REPORT_SCHEMA
        assert data["passed"] is False
        assert data["config"] == {"seed": 2002}
        assert data["summary"]["total"] == 2
        assert data["summary"]["failed"] == 1
        assert len(data["checks"]) == 2
        assert data["checks"][0]["equation"] == "Eqs 8-10"


class TestRunConformance:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValidationError):
            run_conformance(suites=("flat", "astrology"))

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValidationError):
            run_conformance(suites=("flat",), trials=1)

    def test_faults_suite_is_fast_and_deterministic(self):
        # The fault oracles are executable specifications: exact-band
        # checks with no statistical slack, safe for tier-1.
        report = run_conformance(suites=("faults",), seed=7)
        assert report.passed
        assert report.suites() == ("faults",)
        assert {c.equation for c in report.checks} == {"deterministic"}
        again = run_conformance(suites=("faults",), seed=7)
        assert report.to_dict() == again.to_dict()

    def test_suite_order_follows_registry(self):
        assert SUITES == (
            "flat", "rounds", "tree", "scale", "faults", "variants"
        )
        assert SUITES == tuple(_REGISTRY)

    @pytest.mark.parametrize("suite", SUITES)
    def test_every_registered_suite_runs(self, suite):
        # The smallest batch on a one-setting grid: every registry
        # entry must be runnable on its own and label its checks.
        report = run_conformance(
            suites=(suite,), trials=2, settings=((0.0, 0.0),), quick=True
        )
        assert len(report.checks) >= 1
        assert report.suites() == (suite,)

    def test_cli_choices_are_the_registry(self):
        (action,) = [
            action
            for action in _build_parser()._actions
            if action.dest == "suite"
        ]
        assert tuple(action.choices) == tuple(_REGISTRY)
