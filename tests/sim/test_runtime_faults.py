"""``GroupRuntime(fault_plan=...)``: the live round loop under faults.

The engine's fault plane has golden tests (``test_golden_faults.py``);
this file holds the same three promises for the runtime, at 5^3 under
one clause of every family: every clause injects something, a
(seed, plan) pair replays exactly, and an empty plan changes nothing.
"""

import hashlib

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.faults.plan import FaultPlan
from repro.interests import Event, StaticInterest
from repro.obs import MetricsRegistry, Observer, TraceLog
from repro.sim.rng import derive_rng
from repro.sim.runtime import GroupRuntime
from repro.sim.workload import bernoulli_interests
from tests.faults.clauses import with_crash
from tests.traces import write_jsonl

ARITY, DEPTH, SEED = 5, 3, 0
ADDRESSES = AddressSpace.regular(ARITY, DEPTH).enumerate_regular(ARITY)
CONFIG = PmcastConfig(fanout=3, redundancy=3, min_rounds_per_depth=2)

#: A subtree partition, a scoped loss burst, a delay window and a
#: delegate crash, all inside the ~10 rounds one event is in flight.
EPISODE = (
    FaultPlan(name="episode")
    .with_partition(2, 6, "0", "1")
    .with_loss_burst(1, 5, 0.2, dest_prefix="2")
    .with_delay(3, 5, 2, dest_prefix="3")
    .with_delegate_crash(4, "2", count=1)
)


def disseminate(fault_plan, loss_probability=0.0):
    """One event through a fresh runtime; returns everything observable."""
    members = bernoulli_interests(
        ADDRESSES, 0.25, derive_rng(SEED, "interests")
    )
    registry = MetricsRegistry()
    runtime = GroupRuntime(
        members,
        config=CONFIG,
        sim_config=SimConfig(seed=SEED, loss_probability=loss_probability),
        observer=Observer(registry=registry),
        fault_plan=fault_plan,
    )
    event = Event({"k": 1}, event_id=1)
    runtime.publish(ADDRESSES[0], event)
    rounds = runtime.run_until_idle(max_rounds=96)
    return {
        "rounds": rounds,
        "delivered": runtime.delivered_to(event),
        "fault_stats": runtime._faults and runtime._faults.stats(),
        "snapshot": registry.snapshot(),
    }


class TestRuntimeUnderFaults:
    def test_every_clause_family_injects(self):
        stats = disseminate(EPISODE)["fault_stats"]
        assert stats["partition_drops"] > 0
        assert stats["injected_losses"] > 0
        assert stats["delayed"] > 0
        assert stats["released"] == stats["delayed"]
        assert stats["targeted_crashes"] == 1
        assert stats["pending"] == 0

    def test_same_seed_and_plan_replay_exactly(self):
        first, second = disseminate(EPISODE), disseminate(EPISODE)
        assert first["delivered"] == second["delivered"]
        assert first["rounds"] == second["rounds"]
        assert first["fault_stats"] == second["fault_stats"]

    def test_empty_plan_is_no_plan(self):
        bare, empty = disseminate(None), disseminate(FaultPlan())
        assert bare["fault_stats"] is None
        assert empty["delivered"] == bare["delivered"]
        assert empty["rounds"] == bare["rounds"]
        # The injector registers a "faults" collector; with nothing to
        # inject it reads all zero, and every other subsystem is untouched.
        injected = empty["snapshot"].pop("faults")
        assert set(injected.values()) == {0}
        assert empty["snapshot"] == bare["snapshot"]

    def test_a_delayed_envelope_is_not_lost(self):
        # A delay-only plan holds envelopes and releases every one of
        # them later; only the link's ε drops are losses.
        for epsilon in (0.0, 0.1):
            run = disseminate(FaultPlan().with_delay(1, 6, 2), epsilon)
            stats, counters = run["fault_stats"], run["snapshot"]["runtime"]
            assert stats["delayed"] == stats["released"] > 0
            assert counters["envelopes_sent"] == (
                counters["receptions"] + counters["envelopes_lost"]
            )
            assert (counters["envelopes_lost"] > 0) == (epsilon > 0)

    def test_a_victim_named_twice_is_scripted_once(self):
        # Same delegate picked by two clauses (and named by a third):
        # one crash, one fault_crash record, one count.
        plan = with_crash(
            with_crash(
                FaultPlan()
                .with_delegate_crash(1, "2", count=1)
                .with_delegate_crash(3, "2", count=1),
                4, ADDRESSES[60],
            ),
            5, ADDRESSES[60],
        )
        members = bernoulli_interests(
            ADDRESSES, 0.25, derive_rng(SEED, "interests")
        )
        trace = TraceLog()
        runtime = GroupRuntime(
            members,
            config=CONFIG,
            sim_config=SimConfig(seed=SEED),
            observer=Observer(trace=trace),
            fault_plan=plan,
        )
        runtime.publish(ADDRESSES[0], Event({"k": 1}, event_id=1))
        for __ in range(8):
            runtime.step()
        counts = trace.counts()
        assert counts["crash"] == counts["fault_crash"] == 2
        assert runtime._faults.stats()["targeted_crashes"] == 2


#: Round -> what happens before its step: joins (three never-members
#: and two returning leavers), leaves, crashes and publishes, so view
#: lines of every age are in flight between replicas at once.
HELD_BACK = (ADDRESSES[7], ADDRESSES[60], ADDRESSES[124])
CHURN = {
    1: [("publish", ADDRESSES[0])],
    2: [("join", HELD_BACK[0]), ("crash", ADDRESSES[31])],
    4: [("leave", ADDRESSES[1]), ("publish", ADDRESSES[90])],
    6: [("join", HELD_BACK[1]), ("leave", ADDRESSES[55])],
    8: [("crash", ADDRESSES[100]), ("join", ADDRESSES[1])],
    11: [("join", HELD_BACK[2]), ("publish", ADDRESSES[40])],
    14: [("leave", ADDRESSES[26]), ("crash", ADDRESSES[2])],
    17: [("join", ADDRESSES[55]), ("publish", HELD_BACK[0])],
}


class TestChurnedTraceBytes:
    def test_membership_plane_changes_keep_every_trace_byte(self, tmp_path):
        # Re-recorded when a round's pulls became one synchronous batch
        # (every reply carrying its replier's round-start tables): each
        # pull record's value (lines installed) is in these bytes, so
        # is every suspicion and exclusion the contacts led to.
        members = bernoulli_interests(
            ADDRESSES, 0.25, derive_rng(SEED, "interests")
        )
        for address in HELD_BACK:
            del members[address]
        trace, registry = TraceLog(), MetricsRegistry()
        runtime = GroupRuntime(
            members,
            config=CONFIG,
            sim_config=SimConfig(seed=SEED, loss_probability=0.05),
            detector_timeout=4,
            observer=Observer(trace=trace, registry=registry),
        )
        published = 0
        for round_index in range(1, 33):
            for kind, address in CHURN.get(round_index, ()):
                if kind == "publish":
                    published += 1
                    runtime.publish(
                        address, Event({"k": published}, event_id=published)
                    )
                elif kind == "join":
                    runtime.join(address, StaticInterest(True))
                else:
                    getattr(runtime, kind)(address)
            runtime.step()
        path = tmp_path / "churned.jsonl"
        assert write_jsonl(trace, str(path)) == 11740
        assert (
            hashlib.sha1(path.read_bytes()).hexdigest()
            == "832cc5914fbb3e68c46a809fcc4afa2dfded82e9"
        )
        gossip = registry.snapshot()["gossip_pull"]
        assert gossip["exchanges"] == 7750
        assert gossip["lines_updated"] == 2755
        # 5562 at 620fbc9, which compared tables the pair does not
        # share; 6852 while pulls ran one after another.
        assert gossip["synced_exchanges"] == 6685
        assert registry.snapshot()["membership"]["exclusions"] == 3
