"""The link under generated fault plans, on all three round drivers.

Whatever a plan scripts, every envelope a process sends ends in exactly
one disposition that round — ``send`` (arrived), ``loss`` (ε),
``fault_loss`` (partition or burst) or ``fault_delay`` (held; released
later or still pending at the end) — on the reference round loop
(``run_dissemination(vectorized=False)``), the event loop
(``run_sim_dissemination``) and the live ``GroupRuntime`` alike, and the
first two write byte-identical traces under the zero-jitter schedule.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.core.messages import Envelope, GossipMessage
from repro.faults import FaultInjector, FaultPlan
from repro.interests.events import Event
from repro.membership.tree import MembershipTree
from repro.net.runtime import run_sim_dissemination
from repro.obs import MetricsRegistry, Observer, TraceLog
from repro.sim.engine import run_dissemination
from repro.sim.group import PmcastGroup
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_rng
from repro.sim.runtime import GroupRuntime
from repro.sim.workload import bernoulli_interests
from tests.faults import clauses
from tests.traces import write_jsonl

ARITY, DEPTH = 4, 3
ADDRESSES = AddressSpace.regular(ARITY, DEPTH).enumerate_regular(ARITY)
CONFIG = PmcastConfig(fanout=3, redundancy=2, min_rounds_per_depth=2)
EVENT = Event({"k": 1}, event_id=5)
DISPOSITIONS = ("send", "loss", "fault_loss", "fault_delay")

def members(seed):
    return bernoulli_interests(ADDRESSES, 0.4, derive_rng(seed, "interests"))


def check_conservation(trace, messages_sent, pending):
    counts = trace.counts()
    assert messages_sent == sum(counts.get(kind, 0) for kind in DISPOSITIONS)
    assert counts.get("fault_delay", 0) == (
        counts.get("fault_release", 0) + pending
    )
    per_round = Counter(
        (record.round, record.process, record.peer, record.event_id)
        for record in trace
        if record.kind in DISPOSITIONS
    )
    assert set(per_round.values()) <= {1}


def trace_bytes(trace, path):
    write_jsonl(trace, str(path))
    return path.read_bytes()


class TestEveryEnvelopeHasOneDisposition:
    @given(
        plan=clauses.plans(ADDRESSES[1:], DEPTH),
        epsilon=st.sampled_from([0.0, 0.05]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_on_all_three_drivers(self, tmp_path_factory, plan, epsilon, seed):
        sim = SimConfig(seed=seed, loss_probability=epsilon, vectorized=False)
        tmp = tmp_path_factory.mktemp("link")

        engine_trace = TraceLog()
        engine_report = run_dissemination(
            PmcastGroup.build(members(seed), CONFIG), ADDRESSES[0], EVENT,
            sim, trace=engine_trace, faults=plan,
        )
        check_conservation(
            engine_trace,
            engine_report.messages_sent,
            engine_trace.meta["fault_stats"]["pending"],
        )

        loop_trace = TraceLog()
        loop_report = run_sim_dissemination(
            PmcastGroup.build(members(seed), CONFIG), ADDRESSES[0], EVENT,
            sim, faults=plan, observer=Observer(trace=loop_trace),
        )
        assert loop_report == engine_report
        assert trace_bytes(loop_trace, tmp / "loop.jsonl") == trace_bytes(
            engine_trace, tmp / "engine.jsonl"
        )

        registry, runtime_trace = MetricsRegistry(), TraceLog()
        runtime = GroupRuntime(
            members(seed), config=CONFIG, sim_config=sim,
            observer=Observer(registry=registry, trace=runtime_trace),
            fault_plan=plan,
        )
        runtime.publish(ADDRESSES[0], EVENT)
        runtime.run_until_idle(max_rounds=64)
        check_conservation(
            runtime_trace,
            registry.counter("runtime", "envelopes_sent").value,
            runtime._faults.stats()["pending"],
        )


class TestEmptyPlanIsTheBareNetwork:
    def test_report_trace_and_rng_state(self, tmp_path):
        outcomes = []
        for plan in (None, FaultPlan()):
            trace = TraceLog()
            group = PmcastGroup.build(members(3), CONFIG)
            report = run_dissemination(
                group, ADDRESSES[0], EVENT,
                SimConfig(seed=3, loss_probability=0.05, vectorized=False),
                trace=trace, faults=plan,
            )
            lines = trace_bytes(trace, tmp_path / "t.jsonl").splitlines()
            outcomes.append((report, lines[1:], trace.meta.get("rounds")))
        assert outcomes[0] == outcomes[1]

    def test_link_leaves_every_stream_where_the_network_does(self):
        batch = [
            Envelope(
                destination=ADDRESSES[i + 1],
                message=GossipMessage(
                    event=EVENT, rate=1.0, round=1, depth=1,
                    sender=ADDRESSES[0],
                ),
            )
            for i in range(40)
        ]
        bare_rng, wrapped_rng = derive_rng(3, "net"), derive_rng(3, "net")
        bare = LossyNetwork(0.3, bare_rng)
        fault_rng = derive_rng(3, "faults")
        untouched = fault_rng.getstate()
        link = FaultInjector(
            FaultPlan(), MembershipTree.build(members(3), 2), fault_rng,
            LossyNetwork(0.3, wrapped_rng),
        )
        for round_index in range(3):
            assert link.begin_round(round_index) == []
            assert bare.begin_round(round_index) == []
            assert link.transmit(batch) == bare.transmit(batch)
            assert link.last_diverted == bare.last_diverted == frozenset()
        assert not link.has_pending and not bare.has_pending
        assert link.scripted_crashes == bare.scripted_crashes == 0
        assert (link._network._sent, link.messages_lost) == (
            bare._sent, bare.messages_lost,
        )
        assert wrapped_rng.getstate() == bare_rng.getstate()
        assert fault_rng.getstate() == untouched
