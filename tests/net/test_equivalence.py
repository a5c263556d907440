"""Golden-seed equivalence: the event runtime *is* the engine.

``run_sim_dissemination`` over a deterministic :class:`SimTransport`
with the zero-jitter :class:`RoundSchedule` must reproduce
:func:`repro.sim.engine.run_dissemination` **bit for bit**: the same
:class:`DisseminationReport` and the same ``repro.obs.trace/v1``
stream.  The digests below are pinned constants — any drift in either
execution style (RNG consumption order, trace vocabulary, report
arithmetic) fails loudly here.

Also pinned: the equivalence holds under any ``PYTHONHASHSEED``
(subprocess check) and for any ``--jobs`` worker count (the digest of
a trial must not depend on which process computed it).
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.interests.events import Event
from repro.net import run_sim_dissemination, udp
from repro.net.scheduler import JitteredSchedule, StragglerSchedule
from repro.obs import Observer, TraceLog
from repro.par import TrialExecutor
from repro.sim import (
    CrashSchedule,
    PmcastGroup,
    bernoulli_interests,
    derive_rng,
    run_dissemination,
)
from tests.faults.clauses import with_crash

#: Engine trace digests (sha256 over sorted-JSON meta + records), as
#: produced by the round engine at seed 11, ε = 0.05, rate 0.3,
#: fanout 2, redundancy 2.  The event runtime must match them exactly.
GOLDEN_DIGESTS = {
    (5, 3): "4aea12943fcdd8a0a4bda94481d622017d3bbf9d06aba22a4c958672dbfe09a8",
    (22, 3): "673fee6cc0b7870142f3188ae38470ec916df5921eea47720b9cef489b1a1914",
}


def trace_digest(trace):
    payload = json.dumps(
        {
            "meta": trace.meta,
            "records": [record.to_dict() for record in trace],
        },
        sort_keys=True,
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def build_group(arity, depth, seed=11, rate=0.3, down=()):
    addresses = AddressSpace.regular(arity, depth).enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, rate, derive_rng(seed, "golden-int")
    )
    group = PmcastGroup.build(
        members, PmcastConfig(fanout=2, redundancy=2), down=down
    )
    return group, addresses


def engine_run(
    arity, depth, seed=11, loss=0.05, faults=None, crashes=None, **sim
):
    group, addresses = build_group(arity, depth, seed)
    trace = TraceLog()
    report = run_dissemination(
        group,
        addresses[0],
        Event({"golden": 1}, event_id=42),
        SimConfig(seed=seed, loss_probability=loss, **sim),
        crash_schedule=crashes,
        trace=trace,
        faults=faults,
    )
    return report, trace


def sim_run(
    arity, depth, seed=11, loss=0.05, faults=None, schedule=None,
    crashes=None, **sim,
):
    group, addresses = build_group(arity, depth, seed)
    trace = TraceLog()
    report = run_sim_dissemination(
        group,
        addresses[0],
        Event({"golden": 1}, event_id=42),
        SimConfig(seed=seed, loss_probability=loss, **sim),
        crash_schedule=crashes,
        faults=faults,
        schedule=schedule,
        observer=Observer(trace=trace),
    )
    return report, trace


class TestGoldenEquivalence:
    def test_reproduces_engine_golden_run(self):
        # The exact values tests/sim/test_golden_seed.py pins for the
        # engine — now reproduced by the event-driven runtime.
        report, __ = sim_run(4, 3)
        assert report.interested == 20
        assert report.delivered_interested == 13
        assert report.received_uninterested == 23
        assert report.received_total == 37
        assert report.rounds == 10
        assert report.messages_sent == 167
        assert report.messages_lost == 11
        assert report.duplicate_receptions == 120
        assert list(report.infection_curve) == [
            3, 6, 8, 20, 28, 30, 35, 37, 37, 37,
        ]
        assert list(report.messages_by_distance) == [49, 101, 17]

    def test_n125_bit_identical_to_engine(self):
        engine_report, engine_trace = engine_run(5, 3)
        sim_report, sim_trace = sim_run(5, 3)
        assert sim_report == engine_report
        assert trace_digest(engine_trace) == GOLDEN_DIGESTS[(5, 3)]
        assert trace_digest(sim_trace) == GOLDEN_DIGESTS[(5, 3)]

    @pytest.mark.slow
    def test_n10648_bit_identical_to_engine(self):
        engine_report, engine_trace = engine_run(22, 3)
        sim_report, sim_trace = sim_run(22, 3)
        assert sim_report == engine_report
        assert trace_digest(engine_trace) == GOLDEN_DIGESTS[(22, 3)]
        assert trace_digest(sim_trace) == GOLDEN_DIGESTS[(22, 3)]

    def test_lossless_run_bit_identical(self):
        engine_report, engine_trace = engine_run(4, 3, seed=7, loss=0.0)
        sim_report, sim_trace = sim_run(4, 3, seed=7, loss=0.0)
        assert sim_report == engine_report
        assert trace_digest(sim_trace) == trace_digest(engine_trace)

    def test_fault_plan_bit_identical(self):
        # The injector acts at the transport seam in the event runtime
        # and inside the exchange in the engine — same calls, same RNG
        # order, same trace.
        def plan():
            return with_crash(
                FaultPlan(name="equiv")
                .with_loss_burst(1, 3, 0.5)
                .with_delay(2, 4, 2, probability=0.5),
                3, AddressSpace.regular(4, 3).enumerate_regular(4)[5],
            )

        engine_report, engine_trace = engine_run(4, 3, faults=plan())
        sim_report, sim_trace = sim_run(4, 3, faults=plan())
        assert sim_report == engine_report
        assert trace_digest(sim_trace) == trace_digest(engine_trace)

    def test_sampled_crashes_bit_identical(self):
        # crash_fraction > 0: both drivers sample the same
        # CrashSchedule from the "crash" stream and apply it at the
        # same round boundaries.  The short horizon puts the sampled
        # crash rounds inside the run.
        sim = {"crash_fraction": 0.3, "max_rounds": 24}
        engine_report, engine_trace = engine_run(4, 3, **sim)
        sim_report, sim_trace = sim_run(4, 3, **sim)
        assert engine_report.crashed > 0
        assert any(record.kind == "crash" for record in engine_trace)
        assert sim_report == engine_report
        assert trace_digest(sim_trace) == trace_digest(engine_trace)

    def test_scheduled_and_injected_crashes_bit_identical(self):
        # An explicit schedule merged with the fault plan's victims: a
        # delegate crash resolved against the tree, and a targeted
        # crash naming a process the schedule kills in the same round
        # (crashed once, by the schedule).
        addresses = AddressSpace.regular(4, 3).enumerate_regular(4)
        crashes = {addresses[5]: 1, addresses[20]: 2, addresses[41]: 2}

        def plan():
            return with_crash(
                FaultPlan(name="equiv-crash").with_delegate_crash(1, "2", count=1),
                2, addresses[20],
            )

        engine_report, engine_trace = engine_run(
            4, 3, faults=plan(), crashes=CrashSchedule(crashes)
        )
        sim_report, sim_trace = sim_run(
            4, 3, faults=plan(), crashes=CrashSchedule(crashes)
        )
        crashed = [
            str(record.process)
            for record in engine_trace
            if record.kind == "crash"
        ]
        assert len(crashed) == len(set(crashed)) == 4
        assert sim_report == engine_report
        assert trace_digest(sim_trace) == trace_digest(engine_trace)

    def test_asynchronous_schedules_still_deliver(self):
        # Beyond the engine's reach: jittered and straggler executions
        # stay deterministic and still disseminate.
        base, __ = sim_run(4, 3, loss=0.0)
        for schedule in (
            JitteredSchedule(jitter=0.4, seed=3, period_us=100_000),
            StragglerSchedule(fraction=0.25, factor=2, seed=3,
                              period_us=100_000),
        ):
            first, __ = sim_run(4, 3, loss=0.0, schedule=schedule)
            second, __ = sim_run(4, 3, loss=0.0, schedule=schedule)
            assert first == second
            assert first.received_total >= base.received_total - 3


class TestPublisherIsCheckedFirst:
    """Every driver refuses a publisher that is not a live member with
    a :class:`SimulationError` — the UDP one before it binds a socket."""

    DRIVERS = {
        "engine": lambda group, publisher, event: run_dissemination(
            group, publisher, event, SimConfig(seed=11)
        ),
        "event_loop": lambda group, publisher, event: run_sim_dissemination(
            group, publisher, event, SimConfig(seed=11)
        ),
        "udp": lambda group, publisher, event: udp.run_udp_dissemination(
            group, publisher, event, seed=11
        ),
    }

    @pytest.fixture(autouse=True)
    def no_sockets(self, monkeypatch):
        def bind_sockets(*args):
            raise AssertionError("the UDP run started")

        monkeypatch.setattr(udp, "_run_udp", bind_sockets)

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_non_member(self, driver):
        group, __ = build_group(4, 2)
        with pytest.raises(SimulationError, match="not in the group"):
            self.DRIVERS[driver](group, Address((9, 9)), Event({}, event_id=1))

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_crashed(self, driver):
        group, addresses = build_group(4, 2, down=[Address((0, 0))])
        with pytest.raises(SimulationError, match="has crashed"):
            self.DRIVERS[driver](group, addresses[0], Event({}, event_id=1))


_SUBPROCESS_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {root!r})
from tests.net.test_equivalence import sim_run, trace_digest
report, trace = sim_run(5, 3)
print(trace_digest(trace))
"""


class TestHashSeedStability:
    def test_digest_survives_hash_randomization(self):
        # The equivalence must hold in any Python process: no set
        # iteration order or string hash may leak into the stream.
        root = os.getcwd()
        src = os.path.join(root, "src")
        snippet = _SUBPROCESS_SNIPPET.format(src=src, root=root)
        digests = []
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", snippet],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.append(result.stdout.strip())
        assert digests[0] == digests[1] == GOLDEN_DIGESTS[(5, 3)]


def _digest_trial(seed):
    """One event-runtime trial, reduced to its trace digest."""
    report, trace = sim_run(4, 3, seed=seed)
    return {"digest": trace_digest(trace), "rounds": report.rounds}


class TestJobsEquivalence:
    def test_jobs_1_and_4_byte_identical(self):
        seeds = list(range(8))
        with TrialExecutor(jobs=1) as executor:
            serial = executor.run(_digest_trial, seeds)
        with TrialExecutor(jobs=4) as executor:
            parallel = executor.run(_digest_trial, seeds)
        assert json.dumps(parallel, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )
