"""FaultInjector semantics: scoping, determinism, RNG isolation."""

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.faults import FAULT_LOSS_PARTITION, FaultInjector, FaultPlan
from repro.faults.injector import FAULT_LOSS_BURST
from repro.interests import Event, StaticInterest
from repro.membership.tree import MembershipTree
from repro.obs.trace import TraceLog
from repro.sim import (
    LossyNetwork,
    PmcastGroup,
    derive_rng,
    run_dissemination,
)
from repro.core.messages import Envelope, GossipMessage
from tests.faults.clauses import with_crash, with_depth_crash


def make_tree(arity=4, depth=2, redundancy=2):
    space = AddressSpace.regular(arity, depth)
    members = {
        a: StaticInterest(True) for a in space.enumerate_regular(arity)
    }
    return MembershipTree.build(members, redundancy), sorted(members)


def envelope(sender, destination, event_id=7):
    return Envelope(
        destination=destination,
        message=GossipMessage(
            event=Event({}, event_id=event_id),
            rate=1.0,
            round=1,
            depth=1,
            sender=sender,
        ),
    )


def make_link(plan, tree, rng=None, emit=None):
    """The plan's link over a loss-free network."""
    return FaultInjector(
        plan,
        tree,
        rng if rng is not None else derive_rng(3, "faults"),
        LossyNetwork(0.0, derive_rng(1, "net")),
        emit,
    )


def transmit(link, round_index, envelopes):
    """What a driver does each round; returns (victims, arrivals)."""
    victims = link.begin_round(round_index)
    return victims, link.transmit(envelopes)


class TestTransmit:
    def test_passthrough_consumes_no_randomness(self):
        tree, addrs = make_tree()
        rng = derive_rng(3, "faults")
        before = rng.getstate()
        injector = make_link(FaultPlan(), tree, rng)
        __, out = transmit(injector, 0, [envelope(addrs[0], addrs[5])])
        assert len(out) == 1
        assert rng.getstate() == before

    def test_partition_cuts_only_in_window_and_scope(self):
        tree, addrs = make_tree()
        plan = FaultPlan().with_partition(1, 3, "0", "1")
        rng = derive_rng(3, "faults")
        before = rng.getstate()
        injector = make_link(plan, tree, rng)
        cross = envelope(addrs[0], addrs[4])      # 0.x -> 1.x
        back = envelope(addrs[4], addrs[0])       # 1.x -> 0.x
        outside = envelope(addrs[0], addrs[8])    # 0.x -> 2.x
        assert transmit(injector, 0, [cross])[1] == [cross]
        assert transmit(injector, 1, [cross, outside]) == ([], [outside])
        assert transmit(injector, 2, [back])[1] == []
        assert transmit(injector, 3, [cross, back])[1] == [cross, back]
        # Deterministic clauses never touch the stream.
        assert rng.getstate() == before
        assert injector.stats()["partition_drops"] == 2
        # The tallies a report reads are the network's underneath.
        assert injector._network._sent == 4
        assert injector.messages_lost == 0

    def test_full_burst_drops_without_randomness(self):
        tree, addrs = make_tree()
        plan = FaultPlan().with_loss_burst(0, 2, 1.0)
        rng = derive_rng(3, "faults")
        before = rng.getstate()
        injector = make_link(plan, tree, rng)
        assert transmit(injector, 0, [envelope(addrs[0], addrs[5])])[1] == []
        assert rng.getstate() == before

    def test_partial_burst_draws_once_per_in_scope_envelope(self):
        tree, addrs = make_tree()
        plan = FaultPlan().with_loss_burst(0, 2, 0.5, dest_prefix="1")
        rng = derive_rng(3, "faults")
        injector = make_link(plan, tree, rng)
        in_scope = envelope(addrs[0], addrs[4])
        out_of_scope = envelope(addrs[0], addrs[8])
        transmit(injector, 0, [in_scope, out_of_scope])
        shadow = derive_rng(3, "faults")
        shadow.random()  # exactly one draw: the in-scope envelope
        assert rng.getstate() == shadow.getstate()

    def test_delay_holds_and_releases(self):
        tree, addrs = make_tree()
        plan = FaultPlan().with_delay(0, 1, 2)
        injector = make_link(plan, tree)
        held = envelope(addrs[0], addrs[5])
        assert transmit(injector, 0, [held])[1] == []
        assert injector.has_pending
        assert transmit(injector, 1, [])[1] == []
        assert transmit(injector, 2, [])[1] == [held]
        assert not injector.has_pending
        stats = injector.stats()
        assert stats["delayed"] == 1 and stats["released"] == 1

    def test_diverted_ids_reported(self):
        tree, addrs = make_tree()
        plan = FaultPlan().with_partition(0, 2, "0", "1")
        injector = make_link(plan, tree)
        cross = envelope(addrs[0], addrs[4])
        kept = envelope(addrs[0], addrs[1])
        transmit(injector, 0, [cross, kept])
        assert injector.last_diverted == frozenset({id(cross)})


class TestCrashResolution:
    def test_delegate_crash_resolves_smallest_addresses(self):
        tree, addrs = make_tree(redundancy=2)
        from repro.addressing import Prefix

        plan = FaultPlan().with_delegate_crash(3, "2", count=2)
        injector = make_link(plan, tree)
        assert injector.begin_round(0) == []
        victims = injector.begin_round(3)
        assert victims == list(tree.delegates(Prefix((2,)))[:2])

    def test_depth_crash_picks_depth_delegates(self):
        tree, addrs = make_tree(redundancy=2)
        plan = with_depth_crash(FaultPlan(), 1, 2, count=3)
        injector = make_link(plan, tree)
        victims = injector.begin_round(1)
        assert len(victims) == 3
        assert all(tree.is_delegate(v, 2) for v in victims)
        assert victims == sorted(victims)

    def test_targeted_crash_skips_non_members(self):
        tree, addrs = make_tree()
        plan = with_crash(
            with_crash(FaultPlan(), 0, str(addrs[3])),
            0, "9.9",  # never a member
        )
        injector = make_link(plan, tree)
        assert injector.begin_round(0) == [addrs[3]]

    def test_a_process_is_scripted_once(self):
        # The static tree keeps listing a dead process, so a second
        # clause naming it — directly, or as the delegate it still is —
        # must not crash, record or count it again.
        from repro.addressing import Prefix

        tree, addrs = make_tree(redundancy=2)
        delegate = tree.delegates(Prefix((2,)))[0]
        log = TraceLog()
        plan = with_crash(
            with_crash(with_crash(FaultPlan(), 1, str(addrs[3])), 3, str(addrs[3]))
            .with_delegate_crash(1, "2", count=1)
            .with_delegate_crash(2, "2", count=1),
            3, str(delegate),
        )
        injector = make_link(plan, tree, emit=log.record)
        assert injector.begin_round(1) == sorted([addrs[3], delegate])
        assert injector.begin_round(2) == []
        assert injector.begin_round(3) == []
        assert injector.scripted_crashes == 2
        assert injector.stats()["targeted_crashes"] == 2
        assert len(log.filter(kind="fault_crash")) == 2


class TestTraceEmission:
    def test_every_fault_kind_emitted(self):
        tree, addrs = make_tree()
        log = TraceLog()
        plan = with_crash(
            FaultPlan()
            .with_partition(0, 2, "0", "1")
            .with_loss_burst(0, 2, 1.0, dest_prefix="2")
            .with_delay(0, 1, 1, dest_prefix="3"),
            1, str(addrs[-1]),
        )
        injector = make_link(plan, tree, emit=log.record)
        transmit(
            injector,
            0,
            [
                envelope(addrs[0], addrs[4]),   # partition victim
                envelope(addrs[0], addrs[8]),   # burst victim
                envelope(addrs[0], addrs[12]),  # delayed
            ],
        )
        victims, __ = transmit(injector, 1, [])
        assert victims == [addrs[-1]]
        injector.begin_round(2)  # partition heals at round 2
        counts = log.counts()
        assert counts["fault_partition"] == 1
        assert counts["fault_heal"] == 1
        assert counts["fault_loss"] == 2
        assert counts["fault_delay"] == 1
        assert counts["fault_release"] == 1
        assert counts["fault_crash"] == 1
        losses = {r.value for r in log.filter(kind="fault_loss")}
        assert losses == {FAULT_LOSS_BURST, FAULT_LOSS_PARTITION}
        # Schedule round 0 emits trace round 1, as every driver does.
        assert {r.round for r in log.filter(kind="fault_loss")} == {1}


class TestEngineRngIsolation:
    def test_faulted_run_draws_from_its_own_stream(self):
        """The fault stream must not perturb gossip/network draws.

        A plan whose clauses miss every envelope (burst scoped to a
        subtree that never receives in-window traffic) must reproduce
        the unfaulted run bit-for-bit.
        """
        space = AddressSpace.regular(4, 2)
        members = {
            a: StaticInterest(True)
            for a in space.enumerate_regular(4)
        }
        config = PmcastConfig(
            fanout=3, redundancy=2, min_rounds_per_depth=2
        )
        addrs = sorted(members)
        event = Event({}, event_id=11)

        group_a = PmcastGroup.build(members, config)
        trace_a = TraceLog()
        report_a = run_dissemination(
            group_a, addrs[0], event,
            SimConfig(seed=41, loss_probability=0.15),
            trace=trace_a,
        )
        group_b = PmcastGroup.build(members, config)
        trace_b = TraceLog()
        # The window opens long after the run ends.
        plan = FaultPlan().with_loss_burst(400, 402, 0.9)
        report_b = run_dissemination(
            group_b, addrs[0], event,
            SimConfig(seed=41, loss_probability=0.15),
            trace=trace_b, faults=plan,
        )
        assert report_a == report_b
        assert [r.to_dict() for r in trace_a] == [
            r.to_dict() for r in trace_b
        ]
