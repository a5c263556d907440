"""Tests for the live GroupRuntime: gossip + membership + detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.interests import Event, StaticInterest, parse_subscription
from repro.obs import MetricsRegistry, Observer, TraceLog
from repro.sim.rng import derive_rng
from repro.sim.runtime import GroupRuntime
from repro.sim.workload import bernoulli_interests

CONFIG = PmcastConfig(fanout=2, redundancy=2, min_rounds_per_depth=2)


def make_runtime(arity=3, depth=2, timeout=6, **kwargs):
    space = AddressSpace.regular(arity, depth)
    members = {
        address: StaticInterest(True)
        for address in space.enumerate_regular(arity)
    }
    return GroupRuntime(
        members,
        config=CONFIG,
        sim_config=SimConfig(seed=13),
        detector_timeout=timeout,
        **kwargs,
    ), sorted(members)


class TestPublishing:
    def test_publish_disseminates_over_rounds(self):
        runtime, addresses = make_runtime()
        event = Event({}, event_id=1)
        runtime.publish(addresses[0], event)
        runtime.run_until_idle()
        assert len(runtime.delivered_to(event)) == len(addresses)

    def test_multiple_concurrent_events(self):
        runtime, addresses = make_runtime()
        events = [Event({}, event_id=10 + i) for i in range(3)]
        for index, event in enumerate(events):
            runtime.publish(addresses[index], event)
        runtime.run_until_idle()
        for event in events:
            assert len(runtime.delivered_to(event)) == len(addresses)

    def test_unknown_publisher_rejected(self):
        runtime, __ = make_runtime()
        with pytest.raises(SimulationError):
            runtime.publish(Address((9, 9)), Event({}))

    def test_crashed_publisher_rejected(self):
        runtime, addresses = make_runtime()
        runtime.crash(addresses[0])
        with pytest.raises(SimulationError):
            runtime.publish(addresses[0], Event({}))


class TestFailureDetection:
    def test_silent_crash_is_detected_and_excluded(self):
        runtime, addresses = make_runtime(timeout=5)
        victim = addresses[4]          # 1.1: an inner member
        runtime.crash(victim)
        for __ in range(40):
            runtime.step()
        assert victim not in runtime.tree
        excluded = runtime.exclusion_round(victim)
        assert excluded is not None
        # Detection cannot beat the timeout itself.
        assert excluded > 5

    def test_only_the_victims_leaf_mates_report_it(self):
        # A process watches its leaf-mates only (§2.3), so after one
        # crash a round adds at most one suspicion report per live
        # leaf-mate of the victim: peers of other leaves it pulled from,
        # or heard an event from, are never reported.
        registry = MetricsRegistry()
        runtime, addresses = make_runtime(
            arity=4, depth=3, timeout=12, observer=Observer(registry=registry)
        )
        victim = addresses[21]
        mates = [
            a for a in addresses if a != victim and a.prefix(3) == victim.prefix(3)
        ]
        runtime.publish(addresses[0], Event({}, event_id=1))
        for __ in range(20):
            runtime.step()
        runtime.crash(victim)

        def reports():
            return registry.snapshot()["detector"]["suspicion_reports"]

        before = reports()
        for __ in range(30):
            runtime.step()
            assert reports() - before <= len(mates)
            before = reports()
        assert runtime.exclusion_round(victim) is not None
        assert before > 0

    def test_no_false_exclusions_without_crash(self):
        runtime, addresses = make_runtime(timeout=8)
        for __ in range(60):
            runtime.step()
        assert runtime.size == len(addresses)

    def test_crashed_delegate_excluded_and_replaced(self):
        runtime, addresses = make_runtime(timeout=5)
        victim = addresses[0]          # 0.0: delegate everywhere
        runtime.crash(victim)
        for __ in range(50):
            runtime.step()
        assert victim not in runtime.tree
        # The root view row for subtree 0 now leads with 0.1.
        # (Tables were refreshed on exclusion.)
        node = runtime.node(addresses[1])
        root_row = node._views[1].row(0)
        assert victim not in root_row.delegates

    def test_dissemination_heals_after_exclusion(self):
        runtime, addresses = make_runtime(timeout=5)
        victim = addresses[0]
        runtime.crash(victim)
        for __ in range(50):
            runtime.step()
        assert victim not in runtime.tree
        event = Event({}, event_id=99)
        publisher = addresses[-1]
        runtime.publish(publisher, event)
        runtime.run_until_idle()
        survivors = [a for a in addresses if a != victim]
        assert runtime.delivered_to(event) == survivors

    def test_explicit_quorum(self):
        runtime, addresses = make_runtime(timeout=5, exclusion_quorum=1)
        victim = addresses[4]
        runtime.crash(victim)
        for __ in range(30):
            runtime.step()
        assert victim not in runtime.tree

    @pytest.mark.parametrize("quorum", [0, -1])
    def test_a_quorum_below_one_is_rejected(self, quorum):
        # "Every live neighbor" is None; 0 must not mean it, nor -1 a
        # quorum the first accusation meets.
        with pytest.raises(SimulationError, match="exclusion_quorum"):
            make_runtime(exclusion_quorum=quorum)


def plant(runtime, replica, updates):
    """Install ``updates`` (depth, line) over ``replica`` (read off
    ``runtime``), copy-on-write, and make the runtime's replica hold the
    result."""
    tables = replica.tables
    for depth in dict.fromkeys(depth for depth, __ in updates):
        tables[depth] = tables[depth].overlay(
            [row for at, row in updates if at == depth]
        )
    runtime._install(
        runtime._contacts.slot_of[replica.owner], list(replica.tables.values())
    )


class TestMembershipGossip:
    def test_replicas_receive_contacts(self):
        runtime, addresses = make_runtime()
        for __ in range(5):
            runtime.step()
        # Every live process has heard from someone by now.
        for address in addresses:
            node = runtime.node(address)
            assert node.alive

    def test_runtime_round_counter(self):
        runtime, __ = make_runtime()
        for __ in range(7):
            runtime.step()
        assert runtime.round == 7

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            GroupRuntime({})

    def test_a_line_applied_to_one_replica_spreads(self):
        # The round sorts out synced pairs from the versions each
        # replica holds; a replica changed from outside a round must
        # show there as changed.
        runtime, addresses = make_runtime()
        for __ in range(3):
            runtime.step()
        source = runtime._replica(addresses[0])
        fresher = source.tables[2].rows()[0].with_timestamp(50)
        plant(runtime, source, [(2, fresher)])
        for __ in range(8):
            runtime.step()
        holders = [
            address
            for address in addresses[:3]  # the leaf subgroup of 0.0
            if runtime._replica(address).tables[2].rows()[0].timestamp == 50
        ]
        assert holders == addresses[:3]


#: Quiet rounds within which every replica holds its directory path
#: after joins stop at 5^3, ε = 0: at most 13 were needed over 80
#: scripted runs of 4 or 8 joins (a line moves one hop per round).
CONVERGED_WITHIN = 20


class TestReplicasConverge:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_replica_holds_its_path_once_joins_stop(self, seed):
        # Joins only: the newcomer's tables are how a refreshed version
        # enters the replicas; a leave's refreshed version enters none.
        addresses = sorted(AddressSpace.regular(5, 3).enumerate_regular(5))
        spare = addresses[seed::17]
        runtime = GroupRuntime(
            {a: StaticInterest(True) for a in addresses if a not in spare},
            config=PmcastConfig(fanout=2, redundancy=3, min_rounds_per_depth=2),
            sim_config=SimConfig(seed=seed, loss_probability=0.0),
            detector_timeout=40,
        )

        for address in spare:
            runtime.join(address, StaticInterest(True))
            runtime.step()
        assert runtime.stale_replicas()
        for __ in range(CONVERGED_WITHIN):
            runtime.step()
        assert runtime.stale_replicas() == 0
        assert runtime.size == len(addresses)

    def test_stale_replicas_counts_what_differs_from_the_path(self):
        # The count is the by-hand comparison of every live member's
        # replica against its directory path, table by table.
        addresses = sorted(AddressSpace.regular(4, 3).enumerate_regular(4))
        runtime = GroupRuntime(
            {a: StaticInterest(True) for a in addresses[1:]},
            config=PmcastConfig(fanout=2, redundancy=2),
            sim_config=SimConfig(seed=4, loss_probability=0.0),
            detector_timeout=40,
        )
        assert runtime.stale_replicas() == 0
        runtime.join(addresses[0], StaticInterest(True))
        runtime.crash(addresses[-1])
        seen = set()
        for __ in range(CONVERGED_WITHIN):
            behind = [
                (address, depth)
                for address in runtime.tree.members()
                if runtime.node(address).alive
                for depth, table in runtime._directory.path(address).items()
                if runtime._replica(address).tables[depth].rows() != table.rows()
            ]
            assert runtime.stale_replicas() == len(behind)
            seen.add(len(behind))
            runtime.step()
        assert len(seen) > 2 and 0 in seen


class TestContentBasedRuntime:
    def test_selective_delivery_in_runtime(self):
        space = AddressSpace.regular(3, 2)
        members = {}
        for index, address in enumerate(space.enumerate_regular(3)):
            text = "topic >= 5" if index % 2 == 0 else "topic >= 1"
            members[address] = parse_subscription(text)
        runtime = GroupRuntime(
            members, config=CONFIG, sim_config=SimConfig(seed=3)
        )
        event = Event({"topic": 2}, event_id=55)
        publisher = sorted(members)[0]
        runtime.publish(publisher, event)
        runtime.run_until_idle()
        delivered = runtime.delivered_to(event)
        for address in delivered:
            assert members[address].matches(event)
        interested = [
            address
            for address, interest in members.items()
            if interest.matches(event)
        ]
        assert len(delivered) == len(interested)


class TestPiggybackMembership:
    @staticmethod
    def after_event(**options):
        """``(staleness, exchanges)`` four rounds after an event left the
        owner of one freshened leaf line: the total timestamp of every
        replica's rows, and the anti-entropy exchanges it took."""
        registry = MetricsRegistry()
        runtime, addresses = make_runtime(
            arity=3, depth=2, observer=Observer(registry=registry), **options
        )
        # Make one process's leaf line fresher; others are stale.
        source = runtime._replica(addresses[0])
        bumped = source.tables[2].rows()[0].with_timestamp(50)
        plant(runtime, source, [(2, bumped)])
        runtime.publish(addresses[0], Event({}, event_id=777))
        for __ in range(4):
            runtime.step()
        staleness = sum(
            row.timestamp
            for address in addresses
            for table in runtime._replica(address).tables.values()
            for row in table.rows()
        )
        return staleness, registry.snapshot()["gossip_pull"]["exchanges"]

    def test_piggyback_converges_faster_along_event_paths(self):
        """§2.3: membership info piggybacked on event gossip spreads it."""
        on = self.after_event(piggyback_membership=True)
        off = self.after_event(piggyback_membership=False)
        # Piggybacking can only accelerate propagation of fresh lines,
        # at one extra exchange per received event gossip.
        assert on[0] >= off[0]
        assert on[1] > off[1]

    def test_piggyback_disabled_by_default(self):
        assert self.after_event() == self.after_event(
            piggyback_membership=False
        )


class TestActiveSetScheduling:
    def test_active_count_tracks_infection(self):
        runtime, addresses = make_runtime()
        assert len(runtime._active) == 0
        runtime.publish(addresses[0], Event({}, event_id=5))
        assert len(runtime._active) == 1
        for __ in range(2):
            runtime.step()
        assert len(runtime._active) > 1
        runtime.run_until_idle()
        assert len(runtime._active) == 0

    def test_crash_and_leave_deactivate(self):
        runtime, addresses = make_runtime()
        runtime.publish(addresses[0], Event({}, event_id=6))
        for __ in range(1):
            runtime.step()
        infected = len(runtime._active)
        assert infected >= 1
        runtime.crash(addresses[0])
        assert len(runtime._active) == infected - 1

    def test_a_join_that_doubles_the_slots_keeps_node_reads(self):
        # 4³ = 64 slots: the 65th address doubles the per-slot columns
        # right after a node's buffers were read, with no step between.
        runtime, addresses = make_runtime(arity=4, depth=3)
        runtime.crash(addresses[0])
        assert runtime.node(addresses[1]).is_idle
        newcomer = Address((0, 0, 4))
        runtime.join(newcomer, StaticInterest(True))
        assert runtime.node(newcomer).is_idle
        runtime.crash(newcomer)
        assert not runtime.node(newcomer).alive
        assert not runtime.node(addresses[0]).alive

    def test_a_wrongly_excluded_buffering_process_leaves_the_set(self):
        # Heavy loss and a hair-trigger detector convict live processes,
        # some of them while they still buffer the event.
        space = AddressSpace.regular(5, 3)
        members = {
            address: StaticInterest(True)
            for address in space.enumerate_regular(5)
        }
        runtime = GroupRuntime(
            members,
            config=PmcastConfig(fanout=2, redundancy=2),
            sim_config=SimConfig(seed=0, loss_probability=0.3),
            detector_timeout=2,
            exclusion_quorum=1,
        )
        addresses = sorted(members)
        runtime.publish(addresses[0], Event({}, event_id=1))
        assert runtime.run_until_idle(max_rounds=200) < 200
        assert len(runtime._active) == 0
        stranded = [
            address
            for address in addresses
            if address not in runtime.tree
            and runtime.node(address).alive
            and not runtime.node(address).is_idle
        ]
        assert stranded
        # Back through join(), such a process gossips its buffer out.
        runtime.join(stranded[0], StaticInterest(True))
        assert len(runtime._active) == 1
        assert runtime.run_until_idle(max_rounds=200) > 0
        assert runtime.node(stranded[0]).is_idle

    def test_both_modes_identical_through_churn(self):
        """The active-set walk gives what a scan of every node gave.

        Once a comparison of the two scheduling modes; the O(n) scan is
        gone, so the outcome it produced at the commit that removed it
        (identical to the active-set walk's) is pinned as literals.
        """
        runtime, addresses = make_runtime(timeout=5)
        event_a = Event({}, event_id=71)
        runtime.publish(addresses[0], event_a)
        for __ in range(2):
            runtime.step()
        runtime.crash(addresses[4])
        joiner = Address((2, 9))
        runtime.join(joiner, StaticInterest(True))
        event_b = Event({}, event_id=72)
        runtime.publish(addresses[-1], event_b)
        for __ in range(30):
            runtime.step()
        runtime.leave(addresses[2])
        idle = runtime.run_until_idle()
        assert [str(a) for a in runtime.delivered_to(event_a)] == [
            "0.0", "0.1", "1.0", "1.1", "1.2", "2.0", "2.1", "2.2", "2.9",
        ]
        assert [str(a) for a in runtime.delivered_to(event_b)] == [
            "0.0", "0.1", "1.0", "1.2", "2.0", "2.1", "2.2", "2.9",
        ]
        assert runtime.exclusion_round(addresses[4]) == 8
        assert runtime.round == 32
        assert idle == 0
        sent = sum(
            runtime.node(a).messages_sent for a in runtime.tree.members()
        )
        assert sent == 84


class TestCacheCorrectnessUnderChurn:
    def test_join_leave_rejoin_serves_no_stale_matches(self):
        """Recycled table state must not leak old match verdicts.

        The same address joins, leaves and joins again with the
        *opposite* interest.  Every refresh mutates path tables in
        place (same object identity — the worst case for an
        identity-keyed cache), so a stale cached match would misroute
        or misdeliver the event published after each flip.
        """
        runtime, addresses = make_runtime(arity=3, depth=2)
        churner = Address((2, 9))
        publisher = addresses[0]

        runtime.join(churner, StaticInterest(True))
        event_1 = Event({}, event_id=301)
        runtime.publish(publisher, event_1)
        runtime.run_until_idle()
        assert churner in runtime.delivered_to(event_1)

        runtime.leave(churner)
        runtime.join(churner, StaticInterest(False))
        event_2 = Event({}, event_id=302)
        runtime.publish(publisher, event_2)
        runtime.run_until_idle()
        assert churner not in runtime.delivered_to(event_2)

        runtime.leave(churner)
        runtime.join(churner, StaticInterest(True))
        event_3 = Event({}, event_id=303)
        runtime.publish(publisher, event_3)
        runtime.run_until_idle()
        assert churner in runtime.delivered_to(event_3)

    def test_leaving_holders_take_their_events_flats(self):
        # The kernel's flat cache holds no event that no buffer holds,
        # between rounds too: once every process buffering an event has
        # left, its flats are gone before the next round prunes.
        runtime, addresses = make_runtime()
        event = Event({}, event_id=7)
        runtime.publish(addresses[0], event)
        runtime.step()
        flats = runtime._kernel.flats._flats
        assert event.event_id in flats
        holders = [a for a in addresses if runtime.node(a).buffers.holds(event)]
        assert holders
        for address in holders:
            runtime.leave(address)
            buffered = {
                entry.event.event_id
                for member in runtime.tree.members()
                for __, entry in runtime.node(member).buffers
            }
            assert set(flats) <= buffered
        assert event.event_id not in flats

    def test_memos_stay_bounded_over_many_events(self):
        # A long-lived runtime publishes event after event: the kernel
        # fills neither of the context's memos, and holds a verdict
        # column only for an event some row buffers.
        members = {
            address: parse_subscription(f"{index % 6} <= k < {index % 6 + 4}")
            for index, address in enumerate(QUICK)
        }
        runtime = GroupRuntime(members, config=QUICK_CONFIG, sim_config=SimConfig(seed=4))
        ctx, flats = runtime._ctx, runtime._kernel.flats
        sizes = {}
        for index in range(1, 201):
            runtime.publish(QUICK[index % len(QUICK)], Event({"k": index % 9}, event_id=index))
            while runtime._active:
                runtime.step()
                assert len(flats._columns) <= len(runtime._rows.live_events())
            if index in (50, 200):
                sizes[index] = (
                    len(ctx._verdicts),
                    sum(len(per_event) for __, per_event in ctx._tables.values()),
                )
        assert sizes[200] == sizes[50]
        assert runtime._ctx.cache_stats.verdict_misses > 0

    def test_runtime_cache_stats_exposed(self):
        runtime, addresses = make_runtime()
        runtime.publish(addresses[0], Event({}, event_id=9))
        runtime.run_until_idle()
        stats = runtime._ctx.cache_stats
        assert stats.table_hits + stats.table_misses > 0
        assert 0.0 <= stats.table_hit_rate <= 1.0


QUICK = sorted(AddressSpace.regular(5, 3).enumerate_regular(5))
QUICK_CONFIG = PmcastConfig(fanout=3, redundancy=3, min_rounds_per_depth=2)


def quick_runtime(seed, **kwargs):
    members = bernoulli_interests(QUICK, 0.25, derive_rng(seed, "interests"))
    members[QUICK[0]] = StaticInterest(True)
    registry = MetricsRegistry()
    runtime = GroupRuntime(
        members,
        config=QUICK_CONFIG,
        sim_config=SimConfig(seed=seed, loss_probability=0.05),
        observer=Observer(registry=registry, trace=kwargs.pop("trace", None)),
        **kwargs,
    )
    return runtime, registry


def accounted(registry):
    """envelopes_sent minus every way an envelope can end."""
    counters = registry.snapshot()["runtime"]
    return counters["envelopes_sent"] - (
        counters["receptions"]
        + counters["envelopes_lost"]
        + counters["envelopes_undeliverable"]
    )


class TestRuntimeCounters:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_deliveries_count_the_publisher_too(self, seed):
        trace = TraceLog()
        runtime, registry = quick_runtime(seed, trace=trace)
        event = Event({"k": 1}, event_id=1)
        runtime.publish(QUICK[0], event)
        runtime.run_until_idle()
        deliveries = registry.snapshot()["runtime"]["deliveries"]
        assert deliveries == trace.counts()["deliver"]
        assert deliveries == len(runtime.delivered_to(event))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        script=st.lists(
            st.tuples(
                st.sampled_from(["publish", "crash", "leave", "join", "step", "step"]),
                st.integers(0, 10**6),
            ),
            min_size=3,
            max_size=16,
        ),
    )
    def test_every_envelope_is_received_lost_or_undeliverable(self, seed, script):
        # A crashed or departed process still gets envelopes (tables
        # list it until exclusion or refresh): they survive the link
        # and are counted undeliverable.
        runtime, registry = quick_runtime(seed)
        published = 0
        for kind, pick in script + [("step", 0)] * 4:
            members = sorted(runtime.tree.members())
            alive = [a for a in members if runtime.node(a).alive]
            if kind == "publish" and alive:
                published += 1
                runtime.publish(alive[pick % len(alive)], Event({}, event_id=published))
            elif kind == "crash" and len(alive) > 2:
                runtime.crash(alive[pick % len(alive)])
            elif kind == "leave" and len(members) > 2:
                runtime.leave(members[pick % len(members)])
            elif kind == "join":
                outside = [a for a in QUICK if a not in runtime.tree]
                if outside:
                    runtime.join(outside[pick % len(outside)], StaticInterest(True))
            elif kind == "step":
                runtime.step()
                assert accounted(registry) == 0

    def test_the_identity_holds_under_a_delay_plan_once_idle(self):
        plan = FaultPlan().with_delay(1, 6, 2)
        for seed in range(3):
            runtime, registry = quick_runtime(seed, fault_plan=plan)
            runtime.publish(QUICK[0], Event({"k": 1}, event_id=1))
            runtime.step()
            runtime.crash(QUICK[31])
            runtime.crash(QUICK[60])
            runtime.leave(QUICK[90])
            runtime.publish(QUICK[40], Event({"k": 2}, event_id=2))
            runtime.run_until_idle(64)
            assert runtime._faults.stats()["delayed"] > 0
            assert registry.snapshot()["runtime"]["envelopes_undeliverable"] > 0
            assert accounted(registry) == 0
