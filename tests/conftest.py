"""Suite-wide pytest plumbing: the tier-1 durations gate, and the
Hypothesis profile of the mutant gate.

Tier-1 stays fast by policy (ROADMAP.md): anything long-running must
carry the ``slow`` marker so it can be deselected.  ``--durations-gate
SECONDS`` enforces that policy mechanically — the run *fails* if any
unmarked test's call phase exceeds the threshold — so a slow test
cannot creep into the default selection unnoticed.  CI passes
``--durations-gate 5``; the audit that introduced the gate found no
unmarked test above 2.4 s.

``--hypothesis-profile=mutants`` (``tests/mutants/run.py``) skips
shrinking: a mutant run needs a failure, not a minimal one, and
shrinking a failing live-round script takes minutes.
"""

import pytest
from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate]
)


def pytest_addoption(parser):
    parser.addoption(
        "--durations-gate",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail the run if any test not marked 'slow' takes longer "
        "than SECONDS (call phase only)",
    )


def pytest_configure(config):
    config._durations_gate_offenders = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    gate = item.config.getoption("--durations-gate")
    if (
        gate is not None
        and call.when == "call"
        and call.duration > gate
        and "slow" not in item.keywords
    ):
        item.config._durations_gate_offenders.append(
            (item.nodeid, call.duration)
        )
    return outcome.get_result()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    offenders = getattr(config, "_durations_gate_offenders", [])
    if not offenders:
        return
    gate = config.getoption("--durations-gate")
    terminalreporter.section("durations gate")
    for nodeid, seconds in sorted(offenders, key=lambda o: -o[1]):
        terminalreporter.write_line(
            f"{nodeid} took {seconds:.2f}s (> {gate:g}s): mark it "
            f"@pytest.mark.slow or speed it up"
        )


def pytest_sessionfinish(session, exitstatus):
    offenders = getattr(session.config, "_durations_gate_offenders", [])
    if offenders and session.exitstatus == 0:
        session.exitstatus = 1
