"""The statistical conformance suite (pytest -m statistical).

These are the acceptance checks of the validation harness: batched
seeded simulations must agree with the paper's analysis (Eqs 8-18)
inside the declared tolerance bands, across at least three (ε, τ)
settings per equation family.  They are excluded from tier-1 by the
``-m 'not statistical'`` default in pyproject.toml and run in the
dedicated CI conformance job.
"""

import json
from pathlib import Path

import pytest

from repro.validate import DEFAULT_SETTINGS, EQUATIONS, run_conformance

#: ``python -m repro.validate --quick --seed 2002 --jobs 1 --output``
#: as written at PR 13 (e35af81); CI diffs the CLI's file against it.
PINNED_REPORT = Path(__file__).parent / "data" / "quick_2002.json"

pytestmark = pytest.mark.statistical


@pytest.fixture(scope="module")
def quick_report():
    return run_conformance(quick=True, seed=2002)


class TestConformance:
    def test_all_checks_pass(self, quick_report):
        failures = [
            f"{c.suite}/{c.name}: observed={c.observed} "
            f"band=[{c.lower_bound}, {c.upper_bound}]"
            for c in quick_report.failures()
        ]
        assert quick_report.passed, "\n".join(failures)

    def test_every_equation_family_is_covered(self, quick_report):
        equations = {c.equation for c in quick_report.checks}
        for family in ("flat_infection", "saturation_rounds",
                       "tree_delivery", "tree_false_reception"):
            assert EQUATIONS[family] in equations

    def test_each_statistical_suite_sweeps_three_settings(
        self, quick_report
    ):
        assert len(DEFAULT_SETTINGS) >= 3
        for suite in ("flat", "rounds", "tree"):
            settings = {
                (c.params["eps"], c.params["tau"])
                for c in quick_report.checks
                if c.suite == suite
            }
            assert len(settings) >= 3, (
                f"suite {suite!r} covered only {sorted(settings)}"
            )

    def test_report_is_bit_reproducible(self, quick_report):
        again = run_conformance(quick=True, seed=2002)
        assert quick_report.to_dict() == again.to_dict()

    def test_report_matches_the_pinned_one(self, quick_report):
        # Re-running pins nothing across commits; the committed report
        # does: any drift in a seed label, a band, a statistic or a
        # report field shows up here as a diff.
        pinned = json.loads(PINNED_REPORT.read_text(encoding="utf-8"))
        assert json.loads(json.dumps(quick_report.to_dict())) == pinned
