"""Tests for deterministic hash-based trace sampling.

The load-bearing property: the sampling verdict is a pure function of
``(kind, process-string, event_id, rate)`` — no RNG, no ``hash()`` — so
a sampled trace is the *same subset* of records on every interpreter
launch, every ``PYTHONHASHSEED``, every worker count, and every engine
that emits the same record stream.
"""

import os
import subprocess
import sys

import pytest

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import ObservabilityError
from repro.faults import FaultPlan
from repro.interests.events import Event
from repro.obs import Observer, TraceLog
from repro.obs.cli import summarize_trace
from repro.obs.sampling import (
    SAMPLING_SCHEME,
    TraceSampler,
    is_exact,
    keep,
    keep_mask,
    rescale,
)
from repro.sim.engine import run_dissemination
from repro.sim.group import PmcastGroup
from repro.sim.rng import derive_rng
from repro.sim.runtime import GroupRuntime
from repro.sim.workload import bernoulli_interests


class TestKeep:
    def test_deterministic_and_memo_agrees(self):
        sampler = TraceSampler(0.37)
        for kind in ("send", "receive", "deliver", "crash"):
            for process in ("0.1.2", "3.0.1", "2.2.2"):
                stateless = keep(kind, process, 7, 0.37)
                assert sampler.keep(kind, process, 7) is stateless
                # memoized second call returns the same verdict
                assert sampler.keep(kind, process, 7) is stateless

    def test_rate_one_keeps_everything(self):
        assert all(
            keep("send", f"0.{i}", 3, 1.0) for i in range(64)
        )
        assert keep_mask("send", [f"0.{i}" for i in range(64)], 3, 1.0) == (
            [True] * 64
        )

    def test_mask_matches_stateless_verdicts(self):
        processes = [f"{a}.{b}" for a in range(4) for b in range(4)]
        mask = keep_mask("receive", processes, 9, 0.4)
        assert mask == [
            keep("receive", process, 9, 0.4) for process in processes
        ]

    def test_rate_roughly_respected(self):
        processes = [f"{a}.{b}.{c}"
                     for a in range(10) for b in range(10) for c in range(10)]
        kept = sum(keep_mask("send", processes, 1, 0.3))
        # 1000 Bernoulli(0.3) trials: ±6 sigma around 300.
        assert 215 < kept < 385

    def test_kinds_sample_independently(self):
        processes = [f"{a}.{b}" for a in range(8) for b in range(8)]
        sends = keep_mask("send", processes, 1, 0.5)
        receives = keep_mask("receive", processes, 1, 0.5)
        assert sends != receives

    def test_bad_rates_rejected(self):
        for rate in (0.0, -0.1, 1.5):
            with pytest.raises(ObservabilityError):
                keep("send", "0.0", 1, rate)
        with pytest.raises(ObservabilityError):
            TraceSampler(0.0)
        with pytest.raises(ObservabilityError):
            rescale(10, 0.0)

    def test_rescale_inverts_rate(self):
        assert rescale(30, 0.3) == pytest.approx(100.0)
        assert rescale(7, 1.0) == 7.0

    def test_verdicts_survive_pythonhashseed(self):
        """The subset must not depend on interpreter hash randomization."""
        snippet = (
            "from repro.obs.sampling import keep;"
            "print(''.join('1' if keep(k, f'{a}.{b}', 7, 0.35) else '0'"
            " for k in ('send','receive','deliver')"
            " for a in range(6) for b in range(6)))"
        )
        outputs = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            result = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1
        verdicts = outputs.pop()
        assert set(verdicts) == {"0", "1"}


class TestSampledTrace:
    """The sampled trace ``Observer(trace=..., sampler=...)`` writes."""

    def test_filters_records_and_stamps_meta(self):
        full = TraceLog()
        sampled_log = TraceLog()
        sampler = TraceSampler(0.5)
        facade = Observer(trace=sampled_log, sampler=sampler)
        assert sampled_log.meta["sampling"] == {
            "rate": 0.5,
            "scheme": SAMPLING_SCHEME,
        }
        for i in range(40):
            process = f"0.{i}"
            full.record(1, "send", process, peer="1.0", event_id=3)
            facade.emit(1, "send", process, peer="1.0", event_id=3)
        kept = {str(r.process) for r in sampled_log}
        expected = {
            f"0.{i}" for i in range(40) if keep("send", f"0.{i}", 3, 0.5)
        }
        assert kept == expected
        assert 0 < len(sampled_log) < len(full)

    def test_sampled_subset_of_full(self):
        sampler = TraceSampler(0.4)
        full, sampled_log = TraceLog(), TraceLog()
        facade = Observer(trace=sampled_log, sampler=sampler)
        for emit in (full.record, facade.emit):
            emit(0, "publish", "0.0", event_id=2)
            for i in range(20):
                emit(1, "receive", f"1.{i}", peer="0.0", event_id=2)
        full_set = {tuple(sorted(r.to_dict().items())) for r in full}
        sampled_set = {
            tuple(sorted(r.to_dict().items())) for r in sampled_log
        }
        assert sampled_set <= full_set

    def test_annotate_passes_through(self):
        log = TraceLog()
        facade = Observer(trace=log, sampler=TraceSampler(0.1))
        facade.annotate(rounds=12, producer="test")
        assert log.meta["rounds"] == 12
        assert log.meta["producer"] == "test"


class TestFaultRecordsAreExact:
    """``fault_*`` records are outside sampling by one rule
    (:func:`repro.obs.sampling.is_exact`), whoever emits them: the same
    plan keeps every one on the runtime and on the engine at rate 0.1,
    and ``summarize`` reports those kinds as counted."""

    RATE = 0.1

    def _setup(self):
        addresses = AddressSpace.regular(5, 3).enumerate_regular(5)
        members = bernoulli_interests(
            addresses, 0.25, derive_rng(3, "interests")
        )
        config = PmcastConfig(fanout=3, redundancy=3, min_rounds_per_depth=2)
        plan = (
            FaultPlan(name="partition+burst")
            .with_partition(1, 8, "0", "1")
            .with_loss_burst(1, 6, 0.3)
        )
        event = Event({"k": 1}, event_id=1)
        return addresses, members, config, SimConfig(seed=3), plan, event

    @staticmethod
    def _fault_records(trace):
        return sum(
            count
            for kind, count in trace.counts().items()
            if kind.startswith("fault_")
        )

    def test_rule_is_stated_once(self):
        assert is_exact("fault_loss") and not is_exact("loss")
        for process in ("0.1.2", "3.0.1"):
            assert keep("fault_loss", process, 7, 1e-9)
            assert TraceSampler(1e-9).keep("fault_delay", process, 7)
        assert keep_mask("fault_crash", ["0.1", "0.2"], 7, 1e-9) == [
            True, True,
        ]

    def test_runtime_keeps_every_fault_record(self):
        addresses, members, config, sim, plan, event = self._setup()
        kept = []
        for sampler in (None, TraceSampler(self.RATE)):
            trace = TraceLog()
            runtime = GroupRuntime(
                members, config=config, sim_config=sim,
                observer=Observer(trace=trace, sampler=sampler),
                fault_plan=plan,
            )
            runtime.publish(addresses[0], event)
            runtime.run_until_idle(96)
            kept.append((self._fault_records(trace), len(trace)))
        assert kept[0][0] == kept[1][0] == 85
        assert kept[1][1] < kept[0][1]  # everything else is sampled

    def test_engine_keeps_every_fault_record_and_summarize_leaves_them(self):
        addresses, members, config, sim, plan, event = self._setup()
        trace = TraceLog()
        run_dissemination(
            PmcastGroup.build(members, config), addresses[0], event, sim,
            faults=plan,
            observer=Observer(trace=trace, sampler=TraceSampler(self.RATE)),
        )
        assert self._fault_records(trace) == 77
        counts = trace.counts()
        estimated = summarize_trace(trace)["kind_counts_estimated"]
        assert estimated["fault_loss"] == counts["fault_loss"] == 75
        assert estimated["fault_partition"] == 1
        # A sampled kind is still rescaled.
        assert estimated["send"] == pytest.approx(counts["send"] / self.RATE)
