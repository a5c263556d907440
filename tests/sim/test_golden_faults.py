"""Golden-seed fault episode: byte-identical traces, isolated fault RNG.

The acceptance contract of the fault plane is replay: an identical
(seed, FaultPlan) pair must reproduce the *byte-identical* trace file,
and an empty plan must be indistinguishable from no plan at all — the
fault streams are derived separately (``derive_rng(seed, "faults",
event_id)``) and consumed only while a probabilistic clause is active,
so wiring the injector in cannot perturb gossip or network draws.
"""

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.faults import FaultPlan
from repro.interests.events import Event
from repro.obs.trace import TraceLog
from repro.sim.engine import run_dissemination
from repro.sim.group import PmcastGroup
from repro.sim.rng import derive_rng
from repro.sim.workload import bernoulli_interests


def episode_plan():
    """The pinned episode: a partition plus a targeted delegate crash."""
    return (
        FaultPlan(name="golden-episode")
        .with_partition(2, 5, "0", "1")
        .with_delegate_crash(3, "2", count=1)
        .with_loss_burst(1, 4, 0.4, dest_prefix="3")
        .with_delay(2, 4, 2, dest_prefix="1")
    )


def run_episode(plan, trace):
    space = AddressSpace.regular(4, 2)
    addresses = space.enumerate_regular(4)
    members = bernoulli_interests(
        addresses, 0.8, derive_rng(23, "golden-faults-int")
    )
    group = PmcastGroup.build(
        members, PmcastConfig(fanout=3, redundancy=2)
    )
    event = Event({"golden": "faults"}, event_id=77)
    return run_dissemination(
        group,
        addresses[0],
        event,
        SimConfig(seed=23, loss_probability=0.05),
        trace=trace,
        faults=plan,
    )


class TestGoldenFaultEpisode:
    def test_trace_is_byte_identical_across_runs(self, tmp_path):
        paths = []
        reports = []
        for run in ("a", "b"):
            trace = TraceLog()
            reports.append(run_episode(episode_plan(), trace))
            path = tmp_path / f"episode-{run}.jsonl"
            trace.to_jsonl(str(path))
            paths.append(path)
        assert reports[0] == reports[1]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_episode_actually_injects_faults(self):
        trace = TraceLog()
        run_episode(episode_plan(), trace)
        counts = trace.counts()
        assert counts.get("fault_partition") == 1
        assert counts.get("fault_heal") == 1
        assert counts.get("fault_crash") == 1
        assert counts.get("fault_loss", 0) > 0

    def test_empty_plan_is_bit_identical_to_no_plan(self, tmp_path):
        bare, empty = TraceLog(), TraceLog()
        report_bare = run_episode(None, bare)
        report_empty = run_episode(FaultPlan(), empty)
        assert report_bare == report_empty
        bare_path = tmp_path / "bare.jsonl"
        empty_path = tmp_path / "empty.jsonl"
        bare.to_jsonl(str(bare_path))
        empty.to_jsonl(str(empty_path))
        # The faulted trace's *header* carries fault_plan/fault_stats
        # annotations; every record line must match byte for byte.
        assert [r.to_dict() for r in bare] == [
            r.to_dict() for r in empty
        ]
        bare_lines = bare_path.read_bytes().splitlines()[1:]
        empty_lines = empty_path.read_bytes().splitlines()[1:]
        assert bare_lines == empty_lines


class TestScriptedCrashCountedOnce:
    def test_a_victim_named_twice_crashes_and_counts_once(self):
        # The static tree never drops a dead process, so a second clause
        # naming it must not add to the report, the trace or the stats.
        space = AddressSpace.regular(4, 3)
        addresses = space.enumerate_regular(4)
        members = bernoulli_interests(
            addresses, 0.8, derive_rng(3, "golden-faults-int")
        )
        group = PmcastGroup.build(
            members, PmcastConfig(fanout=3, redundancy=2)
        )
        victim = addresses[9]
        plan = FaultPlan().with_crash(1, victim).with_crash(3, victim)
        trace = TraceLog()
        report = run_dissemination(
            group, addresses[0], Event({"golden": "twice"}, event_id=78),
            SimConfig(seed=3), trace=trace, faults=plan,
        )
        counts = trace.counts()
        assert counts["crash"] == counts["fault_crash"] == 1
        assert report.crashed == 1
        assert trace.meta["fault_stats"]["targeted_crashes"] == 1
