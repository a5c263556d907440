"""The verdict rule of ``benchmarks/ab.py``, on synthetic run lists.

``ab.py`` lives outside ``src/`` (it only shells to the ledger on two
checkouts), so it is loaded by path.  Nothing here runs a benchmark:
``judge`` and ``compare`` are pure functions of the numbers.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ledger_ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

LOWER = {"name": "event_s_p50", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "events_per_s", "unit": "events/s", "better": "higher",
          "bound": 0.25}
SPEC = {"workloads": [{"name": "w"}], "end_to_end": [LOWER, HIGHER]}


def runs(parent, change, failed=(0, 0)):
    """One workload's run list; ``parent``/``change`` are event_s_p50
    values, one per pair, and events_per_s is their reciprocal."""
    out = []
    for side, values, bad in (
        ("parent", parent, failed[0]), ("change", change, failed[1])
    ):
        for pair, value in enumerate(values):
            out.append({
                "workload": "w", "pair": pair, "seed": pair, "side": side,
                "ran_first": "parent", "counts_digest": f"d{pair}",
                "attempted": 10, "failed": bad,
                "metrics": {"event_s_p50": value, "events_per_s": 1 / value},
            })
    return out


class TestJudge:
    def test_within_bound_is_ok(self):
        entry = ab.judge(LOWER, [1.0, 1.02, 0.98, 1.01], [1.1, 1.0, 1.05, 1.12])
        assert entry["verdict"] == "ok"
        factor = entry["worse_factor"]
        assert factor["low"] <= factor["median"] <= factor["high"] < 1.25
        assert entry["limit"] == 1.25
        assert entry["change_wins"] == 1 and entry["pairs"] == 4

    def test_an_interval_past_the_bound_regressed(self):
        parent = [1.0, 1.0, 1.0, 1.0]
        lost = ab.judge(LOWER, parent, [1.5, 1.5, 1.5, 1.3])
        assert lost["verdict"] == "regressed"
        assert lost["worse_factor"]["low"] > 1.25 and lost["change_wins"] == 0

    def test_an_interval_across_the_bound_is_unresolved(self):
        parent = [1.0, 1.0, 1.0, 1.0]
        for change in ([1.5, 1.5, 1.5, 0.9], [1.5, 1.5, 1.5, 1.0]):
            entry = ab.judge(LOWER, parent, change)
            assert entry["verdict"] == "unresolved"
            assert entry["worse_factor"]["low"] < 1.25 < entry["worse_factor"]["high"]

    def test_higher_is_better_flips_the_sign(self):
        parent = [10.0, 10.0, 10.0]
        slower = ab.judge(HIGHER, parent, [7.0, 7.0, 7.0])
        assert slower["verdict"] == "regressed"
        assert slower["worse_factor"]["median"] == pytest.approx(10 / 7)
        faster = ab.judge(HIGHER, parent, [13.0, 13.0, 13.0])
        assert faster["verdict"] == "ok"
        assert faster["change_wins"] == 3 and faster["worse_factor"]["high"] < 1

    def test_a_seed_dependent_metric_is_judged_by_its_pairs(self):
        # The parent's spread across seeds is wider than the bound; the
        # pairs agree within 2 %, so the change is resolved either way.
        parent = [1.0, 2.0, 1.0, 2.0, 1.5, 1.2]
        assert ab.judge(LOWER, parent, [1.02 * p for p in parent])["verdict"] == "ok"
        assert ab.judge(LOWER, parent, [1.4 * p for p in parent])["verdict"] == (
            "regressed"
        )
        assert ab.judge(LOWER, parent, parent)["worse_factor"]["high"] == 1.0

    def test_the_interval_is_seeded(self):
        parent = [1.0, 1.3, 0.9, 1.1, 1.2]
        change = [1.2, 1.1, 1.3, 1.0, 1.6]
        assert ab.judge(LOWER, parent, change) == ab.judge(LOWER, parent, change)

    def test_a_move_from_zero_is_infinitely_worse(self):
        assert ab.log_ratio(0.0, 0.0) == 0.0
        assert ab.log_ratio(0.0, 0.1) == float("inf")
        assert ab.judge(LOWER, [0.0] * 3, [0.1] * 3)["verdict"] == "regressed"


class TestCompare:
    def test_clean_run_exits_zero(self):
        workloads, overall = ab.compare(SPEC, runs([1.0, 1.0, 1.0], [1.0, 1.1, 0.9]))
        assert overall == {
            "regressed": [], "unresolved": [], "lower_ok_share": [],
            "unmeasured": [], "exit_code": 0,
        }
        table = workloads["w"]
        assert table["counts_digest_identical"]
        assert table["ok_share"] == {"parent": 1.0, "change": 1.0}
        assert len(table["pairs"]) == 3
        assert set(table["end_to_end"]) == {"event_s_p50", "events_per_s"}

    def test_regression_exits_one_and_names_the_metric(self):
        __, overall = ab.compare(SPEC, runs([1.0, 1.0, 1.0], [1.5, 1.6, 1.4]))
        assert overall["regressed"] == ["w.event_s_p50", "w.events_per_s"]
        assert overall["exit_code"] == 1

    def test_unresolved_alone_does_not_fail(self):
        __, overall = ab.compare(SPEC, runs([1.0, 1.0, 1.0], [1.5, 1.6, 0.9]))
        assert overall["unresolved"] == ["w.event_s_p50", "w.events_per_s"]
        assert overall["exit_code"] == 0

    def test_lower_ok_share_exits_one(self):
        __, overall = ab.compare(
            SPEC, runs([1.0, 1.0], [1.0, 1.0], failed=(0, 1))
        )
        assert overall["lower_ok_share"] == ["w"]
        assert overall["exit_code"] == 1

    def test_a_run_that_could_not_measure_exits_two(self):
        broken = runs([1.0, 1.0, 1.0], [1.5, 1.6, 1.4])
        del broken[-1]["metrics"]
        broken[-1]["error"] = "no result line (exit 2)"
        workloads, overall = ab.compare(SPEC, broken)
        assert overall["unmeasured"] == ["w"]
        assert overall["exit_code"] == 2  # outranks the regression
        assert workloads["w"]["end_to_end"]["event_s_p50"]["pairs"] == 2

    def test_a_missing_run_exits_two(self):
        __, overall = ab.compare(SPEC, runs([1.0, 1.0, 1.0], [1.0, 1.0]))
        assert overall["unmeasured"] == ["w"]
        assert overall["exit_code"] == 2
        __, overall = ab.compare(SPEC, [])
        assert overall["exit_code"] == 2


class TestCli:
    def test_pairs_below_two_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            ab.main(["HEAD", "out.json", "--pairs", "1"])
        assert excinfo.value.code == 2
        assert "--pairs" in capsys.readouterr().err
