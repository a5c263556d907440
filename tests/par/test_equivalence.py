"""Serial/parallel equivalence: the executor's determinism contract.

Every aggregate this repository publishes — figure tables, conformance
verdicts, trace summaries — must be **identical for every ``--jobs``
value** (docs/VALIDATION.md, "Parallel execution").  These tests pin
that contract end to end: same result dicts, same rendered tables,
same validation report, same summarized trace ratios, whether trials
run in-process or race across a process pool.
"""

import json

from repro.addressing import AddressSpace
from repro.bench import cli as bench_cli
from repro.bench.figures import figure4, figure6, reliability_sweep
from repro.config import PmcastConfig, SimConfig
from repro.interests.events import Event
from repro.obs import TraceLog
from repro.obs.cli import summarize_trace
from repro.par import TrialExecutor
from repro.sim import PmcastGroup, bernoulli_interests, run_dissemination
from repro.sim.rng import derive_rng, derive_seed
from repro.validate import cli as validate_cli
from repro.validate.harness import run_conformance

SWEEP = dict(
    matching_rates=(0.1, 0.5),
    arity=5,
    depth=3,
    redundancy=2,
    fanout=2,
    trials=3,
    seed=42,
    loss_probability=0.05,
    crash_fraction=0.02,
)


def trace_trial(task):
    """One traced dissemination, rolled up by ``summarize_trace``.

    Returns the summary a report would carry; it must not depend on
    which process produced the trace.
    """
    rate, trial = task
    seed = derive_seed(17, "trace", rate, trial)
    addresses = AddressSpace.regular(4, 3).enumerate_regular(4)
    members = bernoulli_interests(
        addresses, rate, derive_rng(17, "trace-interests", rate, trial)
    )
    group = PmcastGroup.build(
        members, PmcastConfig(fanout=2, redundancy=2)
    )
    trace = TraceLog()
    run_dissemination(
        group,
        addresses[0],
        Event({"eq": 1}, event_id=5),
        SimConfig(seed=seed, loss_probability=0.05),
        trace=trace,
    )
    summary = summarize_trace(trace)
    return {
        "records": summary["records"],
        "rounds": summary["rounds"],
        "kind_counts": summary["kind_counts"],
        "events": summary["events"],
        "delivery_latency": summary["delivery_latency"],
    }


class TestSweepEquivalence:
    def test_rows_identical_for_any_jobs(self):
        with TrialExecutor(jobs=1) as executor:
            serial = reliability_sweep(executor=executor, **SWEEP)
        with TrialExecutor(jobs=4) as executor:
            parallel = reliability_sweep(executor=executor, **SWEEP)
        # Exact equality — same floats, not approximately same.
        assert json.dumps(parallel, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )

    def test_chunking_does_not_leak_into_results(self):
        # Two workers take about four chunks each, so 6, 18 and 36
        # tasks travel one, three and five to a chunk.
        for trials in (3, 9, 18):
            sweep = dict(SWEEP, trials=trials)
            with TrialExecutor(jobs=1) as executor:
                reference = reliability_sweep(executor=executor, **sweep)
            with TrialExecutor(jobs=2) as executor:
                assert reliability_sweep(
                    executor=executor, **sweep
                ) == reference

    def test_default_executor_matches_explicit_serial(self):
        with TrialExecutor(jobs=1) as executor:
            explicit = reliability_sweep(executor=executor, **SWEEP)
        assert reliability_sweep(**SWEEP) == explicit


class TestFigureEquivalence:
    def test_figure4_table_bit_identical(self):
        kwargs = dict(
            arity=5, trials=2, seed=7, matching_rates=(0.1, 0.5, 1.0)
        )
        with TrialExecutor(jobs=1) as executor:
            serial = figure4(executor=executor, **kwargs).render()
        with TrialExecutor(jobs=4) as executor:
            parallel = figure4(executor=executor, **kwargs).render()
        assert parallel == serial

    def test_figure6_table_bit_identical(self):
        kwargs = dict(
            arities=(4, 5), trials=2, seed=7, matching_rates=(0.5,)
        )
        with TrialExecutor(jobs=1) as executor:
            serial = figure6(executor=executor, **kwargs).render()
        with TrialExecutor(jobs=3) as executor:
            parallel = figure6(executor=executor, **kwargs).render()
        assert parallel == serial

    def test_bench_cli_stdout_identical(self, capsys):
        argv = ["--figure", "4", "--arity", "5", "--trials", "2"]

        def run(jobs):
            assert bench_cli.main(argv + ["--jobs", jobs]) == 0
            out = capsys.readouterr().out
            # Timing lines are legitimately wall-clock-dependent.
            return [
                line
                for line in out.splitlines()
                if not line.startswith("[figure")
            ]

        assert run("2") == run("1")


class TestConformanceEquivalence:
    def test_report_identical_for_any_jobs(self):
        kwargs = dict(trials=2, seed=2002, quick=True)
        serial = run_conformance(jobs=1, **kwargs)
        parallel = run_conformance(jobs=4, **kwargs)
        assert parallel.to_dict() == serial.to_dict()
        # Verdicts specifically (the CI gate's currency).
        assert [
            (check.suite, check.name, check.passed)
            for check in parallel.checks
        ] == [
            (check.suite, check.name, check.passed)
            for check in serial.checks
        ]

    def test_jobs_not_recorded_in_report(self):
        # Deliberate: recording the worker count would make otherwise
        # identical serial/parallel reports compare unequal.
        report = run_conformance(
            suites=["faults"], trials=1, seed=2002, quick=True, jobs=2
        )
        assert "jobs" not in json.dumps(report.to_dict())

    def test_validate_cli_json_identical(self, capsys):
        argv = ["--suite", "flat", "--trials", "2", "--quick", "--json"]

        def run(jobs):
            code = validate_cli.main(argv + ["--jobs", jobs])
            assert code in (0, 1)
            return code, capsys.readouterr().out

        assert run("2") == run("1")


class TestTraceSummaryEquivalence:
    def test_summaries_identical_for_any_jobs(self):
        tasks = [(rate, trial) for rate in (0.2, 0.6) for trial in (0, 1)]
        with TrialExecutor(jobs=1) as executor:
            serial = executor.run(trace_trial, tasks)
        with TrialExecutor(jobs=3) as executor:
            parallel = executor.run(trace_trial, tasks)
        assert json.dumps(parallel, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )
        # And the summaries carry real signal, not vacuous zeros.
        assert all(entry["records"] > 0 for entry in serial)
        assert any(
            entry["events"]["5"]["delivery_ratio"] > 0 for entry in serial
        )
