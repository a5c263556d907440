"""The live round's kernel against the per-node loop it replaced.

``GroupRuntime.step`` runs its fan-out and exchange on
:class:`repro.sim.vector.LiveRound`, array passes over the runtime's
row table.  :class:`LoopRuntime` is the per-node loop the kernel
replaced — ``PmcastNode`` objects of its own, one ``gossip_step`` per
fire of a buffered node, the envelopes through ``link.transmit``, one
``receive`` per survivor — kept here as the reference.  Under drawn 5^3
scripts of join / leave / crash / re-join / update_interest / publish /
step, over drawn protocol and link parameters, schedules and fault
plans, every step must leave both runtimes with equal process state as
``runtime.node(a)`` reads it (buffers in bucket order included), equal
active sets, equal gossip, loss, fault and membership RNG states, equal
registry snapshots (``match_cache`` included) and equal traces; a
traced script ends with equal trace bytes.  The kernel's flat cache
must never hold an event no buffer holds.

A schedule's extra fires are extra visits in the kernel's walk, and a
round that fires a process zero times leaves it out.  A fault plan's
link decides the kernel's envelopes one by one; no round falls back.

Its detection round is the per-accusation loop of every round, which
both array forms — ``ContactTable.accuse_all`` for a round that convicts
nobody, ``ContactTable.play`` between convictions — must reproduce.

Every pull batch (the membership round's, and the piggybacked pulls
after an exchange) is held the same way to the pulls it stands for:
each gossiper, in draw order, running ``_pull`` against a frozen copy
of its peer's replica taken as the batch starts (:class:`PullRuntime`).

The script properties never shrink a failing example: shrinking a
broken live round's churn script takes minutes, so they report the
first failing script as drawn, with its reproduction blob.
"""

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.core.node import PmcastNode
from repro.errors import MembershipError
from repro.faults.plan import FaultPlan
from repro.membership.gossip_pull import _pull
from repro.net.scheduler import JitteredSchedule, RoundSchedule, StragglerSchedule
from repro.obs import MetricsRegistry, Observer, TraceLog
from repro.sim.rng import derive_rng
from repro.sim.runtime import GroupRuntime
from repro.sim.workload import random_event, random_subscriptions
from repro.variants.base import emit_dispositions
from tests.faults.clauses import with_crash, with_depth_crash
from tests.traces import write_jsonl

ARITY, DEPTH = 5, 3
ADDRESSES = sorted(AddressSpace.regular(ARITY, DEPTH).enumerate_regular(ARITY))
HELD_BACK = (ADDRESSES[7], ADDRESSES[60], ADDRESSES[124], ADDRESSES[31])


class LoopRuntime(GroupRuntime):
    """The per-node loop over ``PmcastNode`` objects wired and re-wired
    as the runtime once did, and detection one accusation at a time: the
    reference the kernel is held to."""

    def __init__(self, *args, **kwargs):
        self._nodes = {}
        super().__init__(*args, **kwargs)
        refresh = self._directory.refresh_path

        def refresh_path(address):
            # A table a join newly creates is wired into its members.
            written, created, dropped = refresh(address)
            for fresh in created:
                for member in self._tree.subtree_members(fresh.prefix):
                    if member in self._nodes:
                        self._nodes[member]._views[fresh.depth] = fresh
            return written, created, dropped

        self._directory.refresh_path = refresh_path

    def node(self, address):
        try:
            return self._nodes[address]
        except KeyError:
            raise MembershipError(f"{address} has no node") from None

    def _wire(self, address):
        super()._wire(address)
        views = self._directory.path(address)
        node = self._nodes.get(address)
        if node is None:
            self._nodes[address] = PmcastNode(
                address, self._tree.interest_of(address), views, self._config
            )
        else:
            node._views.update(views)

    def _pmcast(self, slot, publisher, event):
        node = self._nodes[publisher]
        node.pmcast(event, self._ctx)
        return node.has_delivered(event)

    def crash(self, address):
        super().crash(address)
        self._nodes[address].alive = False

    def join(self, address, interest):
        super().join(address, interest)
        node = self._nodes[address]
        if node.alive and not node.is_idle:
            self._active.add(self._contacts.slot_of[address])

    def leave(self, address):
        super().leave(address)
        del self._nodes[address]

    def update_interest(self, address, interest):
        super().update_interest(address, interest)
        self._nodes[address]._interest = interest

    def _event_round(self):
        timeline = self._obs.timeline
        with timeline.span("fan_out", "runtime", self._round):
            envelopes = self._fan_out(self._walk())
        with timeline.span("exchange", "runtime", self._round):
            return self._exchange(envelopes)

    def _fan_out(self, walk):
        """One ``gossip_step`` per fire of each walked node; idle nodes
        drop off the set."""
        envelopes = []
        for slot in walk:
            node = self._nodes[self._contacts.addresses[slot]]
            for __ in range(self._fires_for(node.address)):
                envelopes.extend(node.gossip_step(self._ctx))
                if node.is_idle:
                    break
            if node.is_idle:
                self._active.discard(slot)
        return envelopes

    def _exchange(self, envelopes):
        """Transmit the envelopes and ``receive`` every survivor, in order."""
        slot_of = self._contacts.slot_of
        receivers, senders = [], []
        lost = self._link.messages_lost
        survivors = self._link.transmit(envelopes)
        self._m_sent.inc(len(envelopes))
        self._m_lost.inc(self._link.messages_lost - lost)
        if self._obs.tracing and envelopes:
            emit_dispositions(
                envelopes, {id(envelope) for envelope in survivors},
                self._link.last_diverted, self._obs.emit, self._round,
            )
        undeliverable = 0
        pulls = []
        for envelope in survivors:
            message, destination = envelope.message, envelope.destination
            receiver = self._nodes.get(destination)
            if receiver is None or not receiver.alive:
                undeliverable += 1
                continue
            fresh = self._obs.enabled and not receiver.has_delivered(message.event)
            receiver.receive(message, self._ctx)
            self._m_receptions.inc()
            if self._obs.tracing:
                self._obs.emit(
                    self._round, "receive", destination, peer=message.sender,
                    event_id=message.event.event_id, depth=message.depth,
                )
            if fresh and receiver.has_delivered(message.event):
                self._m_deliveries.inc()
                self._obs.emit(self._round, "deliver", destination, event_id=message.event.event_id)
            receivers.append(slot_of[destination])
            senders.append(slot_of[message.sender])
            if not receiver.is_idle:
                self._active.add(receivers[-1])
            if self._piggyback_membership and self._replica(message.sender) is not None:
                pulls.append((receivers[-1], senders[-1]))
        if pulls:
            pull_by_pull(self, *zip(*pulls), registry=self._reg)
        self._m_undeliverable.inc(undeliverable)
        return np.array(receivers, np.int64), np.array(senders, np.int64)

    def _detection_round(self):
        """Every round played one accusation at a time."""
        slots = self._live()[0]
        stale = self._contacts.stale(slots, self._round)
        self._play_detection(slots, stale, self._contacts.suspect_counts(stale))

    def _play_detection(self, slots, stale, counts):
        """Monitors in member order, each accusing its suspects in
        component order until one is convicted: the loop
        ``ContactTable.play`` replaced."""
        contacts, now = self._contacts, self._round
        addresses = contacts.addresses
        may_concur = np.zeros(len(addresses), bool)
        may_concur[slots] = True
        reports = dict(zip(slots.tolist(), counts.tolist()))
        rows, suspects = contacts.near_suspects(slots, stale)
        accusers = dict(zip(suspects.tolist(), contacts.accusers(suspects).tolist()))
        n_reports = n_accusations = n_convictions = 0
        for row, slot in enumerate(slots.tolist()):
            n_reports += reports[slot]
            for suspect_slot in suspects[rows == row].tolist():
                suspect = addresses[suspect_slot]
                if suspect not in self._tree:
                    continue
                col = contacts._col[suspect_slot]
                new = not contacts._accused[slot, col]
                contacts._accused[slot, col] = True
                if not contacts._required[suspect_slot]:
                    contacts._required[suspect_slot] = contacts._quorums(
                        np.array([suspect_slot]), may_concur
                    )[0]
                if new:
                    n_accusations += 1
                    accusers[suspect_slot] += 1
                if self._obs.tracing:
                    self._obs.emit(
                        now, "suspect", addresses[slot], peer=suspect,
                        value=accusers[suspect_slot],
                    )
                if accusers[suspect_slot] >= contacts._required[suspect_slot]:
                    n_convictions += 1
                    may_concur[suspect_slot] = False
                    self._exclude(suspect)
                    counts = contacts.suspect_counts(contacts.stale(slots, now))
                    reports = dict(zip(slots.tolist(), counts.tolist()))
                    break
        self._count_detection(n_reports, n_accusations, n_convictions)


def pull_by_pull(runtime, gossipers, peers, registry):
    """A pull batch as pulls: ``gossipers[j]``, in ``j`` order, runs
    ``_pull`` against a frozen copy of ``peers[j]``'s replica taken as
    the batch starts, counted as ``exchange`` counts; each gossiper ends
    holding what its last pull left.  Returns every pull's value."""
    addresses = runtime._contacts.addresses
    replies = {peer: runtime._replica(addresses[peer]) for peer in set(peers)}
    states, values = {}, []
    for gossiper, peer in zip(gossipers, peers):
        if gossiper not in states:
            states[gossiper] = runtime._replica(addresses[gossiper])
        values.append(_pull(states[gossiper], replies[peer]))
        registry.counter("gossip_pull", "exchanges").inc()
        if values[-1] < 0:
            registry.counter("gossip_pull", "synced_exchanges").inc()
        else:
            registry.counter("gossip_pull", "lines_updated").inc(values[-1])
    for slot, state in states.items():
        runtime._install(slot, list(state.tables.values()))
    return values


PLANS = [
    None,
    FaultPlan(),
    FaultPlan().with_loss_burst(1, 6, 0.4),
    FaultPlan().with_delay(0, 8, 2, probability=0.5),
    FaultPlan().with_partition(1, 5, "0", "1").with_delay(2, 6, 1),
    with_depth_crash(
        with_crash(
            FaultPlan()
            .with_loss_burst(0, 9, 1.0, sender_prefix="2")
            .with_loss_burst(3, 7, 1.0, dest_prefix="3"),
            2, "1.1.1",
        ).with_delegate_crash(3, "4", count=1),
        4, 2, count=1,
    ),
    FaultPlan().with_delay(1, 12, 3, dest_prefix="4").with_loss_burst(2, 7, 0.2),
]

PARAMS = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "epsilon": st.sampled_from([0.0, 0.05, 0.3]),
        "fanout": st.integers(1, 5),
        "redundancy": st.integers(1, 3),
        "min_rounds": st.sampled_from([0, 1, 2]),
        "shortcut": st.booleans(),
        "threshold_h": st.sampled_from([0, 3]),
        "flood": st.sampled_from([2.0, 0.5]),
        "piggyback": st.booleans(),
        "timeout": st.sampled_from([2, 4]),
        "schedule": st.sampled_from(
            [
                None,
                RoundSchedule(),
                JitteredSchedule(1.5, seed=3),
                JitteredSchedule(0.6, seed=8),
                StragglerSchedule(0.3, 2, seed=5),
                StragglerSchedule(0.5, 3, seed=1),
            ]
        ),
        "plan": st.sampled_from(PLANS),
    }
)
KINDS = ("publish", "publish", "join", "leave", "crash", "update", "step", "step", "step")
SCRIPTS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 10**6), st.integers(0, 10**6)),
    min_size=4,
    max_size=14,
)


def build(cls, params, traced):
    subscriptions = random_subscriptions(
        ADDRESSES, derive_rng(params["seed"], "kernel-subscriptions")
    )
    members = {a: s for a, s in subscriptions.items() if a not in HELD_BACK}
    registry = MetricsRegistry()
    trace = TraceLog() if traced else None
    runtime = cls(
        members,
        config=PmcastConfig(
            fanout=params["fanout"],
            redundancy=params["redundancy"],
            min_rounds_per_depth=params["min_rounds"],
            local_interest_shortcut=params["shortcut"],
            threshold_h=params["threshold_h"],
            leaf_flood_threshold=params["flood"],
        ),
        sim_config=SimConfig(seed=params["seed"], loss_probability=params["epsilon"]),
        detector_timeout=params["timeout"],
        exclusion_quorum=1,
        piggyback_membership=params["piggyback"],
        observer=Observer(registry=registry, trace=trace),
        schedule=params.get("schedule"),
        fault_plan=params.get("plan"),
    )
    return runtime, registry, trace, subscriptions


def nodes(runtime):
    """``runtime.node(a)`` of every wired address, in address order."""
    for address in ADDRESSES:
        try:
            yield address, runtime.node(address)
        except MembershipError:
            pass


def node_state(node, events):
    """What a process's readers read, over the ``events`` published."""
    return (
        node.alive,
        node.is_idle,
        [node.has_received(event) for event in events],
        [node.has_delivered(event) for event in events],
        [node.buffers.holds(event) for event in events],
        node.messages_sent,
        node.receptions,
        [(depth, entry.event.event_id, entry.rate, entry.round) for depth, entry in node.buffers],
    )


def state(runtime, registry, trace, events=()):
    """Everything the two paths must agree on after a step."""
    return {
        "nodes": [(str(a), node_state(n, events)) for a, n in nodes(runtime)],
        "active": sorted(runtime._active),
        "gossip rng": runtime._ctx.rng.getstate(),
        # Under a fault plan the link is the injector over the network.
        "loss rng": getattr(runtime._link, "_network", runtime._link)._rng.getstate(),
        "fault rng": None if runtime._faults is None else runtime._faults._rng.getstate(),
        "membership rng": runtime._membership_rng.getstate(),
        "registry": registry.snapshot(),
        "trace": None if trace is None else list(trace),
    }


def difference(first, second):
    """The first part in which two states differ, briefly; None if equal."""
    for part, value in first.items():
        other = second[part]
        if value == other:
            continue
        if part == "nodes":
            for (address, mine), (__, theirs) in zip(value, other):
                if mine != theirs:
                    return f"node {address}: {mine} != {theirs}"
        if part == "registry":
            for name in sorted(set(value) | set(other)):
                if value.get(name) != other.get(name):
                    return f"registry {name}: {value.get(name)} != {other.get(name)}"
        return part
    return None


def buffered_events(runtime):
    return {entry.event.event_id for __, node in nodes(runtime) for __, entry in node.buffers}


def play(runtime, op, subscriptions, published):
    """Apply one scripted operation; the target is picked off
    ``runtime``'s own state, which both runtimes share."""
    kind, pick, extra = op
    members = sorted(runtime.tree.members())
    alive = [a for a in members if runtime.node(a).alive]
    if kind == "step":
        for __ in range(1 + extra % 3):
            runtime.step()
    elif kind == "publish" and alive:
        event = random_event(derive_rng(pick, "kernel-event"), event_id=len(published) + 1)
        published.append(event)
        runtime.publish(alive[pick % len(alive)], event)
    elif kind == "join":
        outside = [a for a in ADDRESSES if a not in runtime.tree]
        if outside:
            target = outside[pick % len(outside)]
            runtime.join(target, subscriptions[ADDRESSES[extra % len(ADDRESSES)]])
    elif kind == "leave" and len(members) > 2:
        runtime.leave(members[pick % len(members)])
    elif kind == "crash" and len(alive) > 2:
        runtime.crash(alive[pick % len(alive)])
    elif kind == "update" and alive:
        runtime.update_interest(
            alive[pick % len(alive)], subscriptions[ADDRESSES[extra % len(ADDRESSES)]]
        )


def check_script(params, script, traced, tmp_path=None):
    kernel = build(GroupRuntime, params, traced)
    loop = build(LoopRuntime, params, traced)
    published_k, published_l = [], []
    for op in script + [("step", 0, 2)]:
        play(kernel[0], op, kernel[3], published_k)
        play(loop[0], op, loop[3], published_l)
        moved = difference(state(*kernel[:3], published_k), state(*loop[:3], published_l))
        assert moved is None, f"{op}: {moved}"
        assert set(kernel[0]._kernel.flats._flats) <= buffered_events(kernel[0])
    if tmp_path is not None:
        paths = tmp_path / "kernel.jsonl", tmp_path / "loop.jsonl"
        write_jsonl(kernel[2], str(paths[0]))
        write_jsonl(loop[2], str(paths[1]))
        assert paths[0].read_bytes() == paths[1].read_bytes()
    assert "sim" not in kernel[1].snapshot()


#: Draw and replay examples, never shrink one; print the blob that
#: reproduces a failure.
NO_SHRINK = dict(
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    print_blob=True,
)


#: Process 0.0.0 buffers event 1 at depth 1 behind event 2 at depth 2;
#: event 1, the older, is then demoted behind event 2.  Bucket order is
#: (depth, then arrival): event-id order would put event 1 first.
BUCKET_ORDER = dict(
    params=dict(
        seed=56155, epsilon=0.0, fanout=2, redundancy=3, min_rounds=1, shortcut=False,
        threshold_h=0, flood=2.0, piggyback=False, timeout=4, schedule=None, plan=None,
    ),
    script=[("publish", 95926, 0), ("publish", 98830, 0), ("step", 0, 2), ("step", 0, 2)],
)


class TestKernelEqualsTheLoop:
    @settings(max_examples=20, **NO_SHRINK)
    @given(params=PARAMS, script=SCRIPTS)
    @example(**BUCKET_ORDER)
    def test_untraced_scripts(self, params, script):
        check_script(params, script, traced=False)

    @settings(max_examples=12, **NO_SHRINK)
    @given(params=PARAMS, script=SCRIPTS)
    def test_traced_scripts(self, params, script, tmp_path_factory):
        check_script(params, script, traced=True, tmp_path=tmp_path_factory.mktemp("t"))

    def test_a_long_busy_run(self):
        # Four overlapping events under churn and crashes for some 30
        # rounds: demotions, cascades and removals at every depth.
        params = dict(
            seed=5, epsilon=0.05, fanout=3, redundancy=3, min_rounds=0,
            shortcut=False, threshold_h=0, flood=2.0, piggyback=False, timeout=4,
            schedule=None,
        )
        script = [("publish", 0, 0), ("step", 0, 0), ("publish", 40, 0),
                  ("join", 1, 5), ("crash", 17, 0), ("step", 0, 1),
                  ("publish", 90, 0), ("leave", 33, 0), ("update", 8, 3),
                  ("publish", 61, 0)] + [("step", 0, 2)] * 8
        check_script(params, script, traced=False)


class PullRuntime(GroupRuntime):
    """Every pull batch played pull by pull (:func:`pull_by_pull`)."""

    def _pull_batch(self, g, p):
        values = pull_by_pull(self, g.tolist(), p.tolist(), self._reg)
        return np.array(values, np.int64)


def batches_noted(cls):
    """``cls`` noting every pull batch: gossipers, peers, values."""

    class Noting(cls):
        def _pull_batch(self, g, p):
            values = super()._pull_batch(g, p)
            self.batches.append((g.tolist(), p.tolist(), values.tolist()))
            return values

    return Noting


def replica_rows(runtime):
    """Every slot's replica as rows per depth (None once it left)."""
    return [
        None if replica is None else [table.rows() for table in replica.tables.values()]
        for replica in map(runtime._replica, runtime._contacts.addresses)
    ]


class TestPullBatchEqualsThePulls:
    """The array pull batch against the pulls it stands for: each
    gossiper, in draw order, pulling from a frozen copy of its peer's
    replica taken as the batch starts — on the membership round and on
    the piggybacked pulls alike."""

    @settings(max_examples=20, **NO_SHRINK)
    @given(params=PARAMS, script=SCRIPTS)
    def test_scripts(self, params, script):
        arrays = build(batches_noted(GroupRuntime), params, False)
        pulls = build(batches_noted(PullRuntime), params, False)
        for runtime, *__ in (arrays, pulls):
            runtime.batches = []
        published_a, published_p = [], []
        for op in script + [("step", 0, 2)]:
            play(arrays[0], op, arrays[3], published_a)
            play(pulls[0], op, pulls[3], published_p)
            assert arrays[0].batches == pulls[0].batches, op
            assert replica_rows(arrays[0]) == replica_rows(pulls[0]), op
            moved = difference(state(*arrays[:3], published_a), state(*pulls[:3], published_p))
            assert moved is None, f"{op}: {moved}"
        assert arrays[0].batches


def fallback_pair(schedule=None, plan=None):
    params = dict(
        seed=3, epsilon=0.05, fanout=3, redundancy=2, min_rounds=2,
        shortcut=False, threshold_h=0, flood=2.0, piggyback=False, timeout=4,
        schedule=schedule, plan=plan,
    )
    return build(GroupRuntime, params, False), build(LoopRuntime, params, False)


class TestFallbacks:
    def run_pair(self, kernel, loop, rounds, before_step=None):
        events = [random_event(derive_rng(k, "e"), event_id=k) for k in (1, 2)]
        for runtime, __, __, __ in (kernel, loop):
            runtime.publish(ADDRESSES[0], events[0])
        fallbacks = 0
        for round_index in range(rounds):
            if round_index == 3:
                for runtime, __, __, __ in (kernel, loop):
                    runtime.crash(ADDRESSES[50])
                    runtime.publish(ADDRESSES[70], events[1])
            if before_step is not None:
                fallbacks += before_step(kernel[0])
            kernel[0].step()
            loop[0].step()
            moved = difference(state(*kernel[:3], events), state(*loop[:3], events))
            assert moved is None, moved
        return fallbacks

    def test_a_fault_plan_takes_the_kernel(self):
        plan = FaultPlan().with_loss_burst(1, 4, 0.3).with_delay(2, 5, 2)
        kernel, loop = fallback_pair(plan=plan)
        self.run_pair(kernel, loop, 12)
        assert "sim" not in kernel[1].snapshot()
        assert kernel[0]._faults.stats()["released"] > 0

    def test_a_jittered_schedule_takes_the_kernel(self):
        schedule = JitteredSchedule(jitter=1.5, seed=3)

        def uneven(runtime):
            # The round's walk: every live member still buffering.
            walk = [
                a for a in runtime.tree.members()
                if runtime.node(a).alive and not runtime.node(a).is_idle
            ]
            return any(
                schedule.fires_in_round(str(a), runtime.round + 1) != 1 for a in walk
            )

        kernel, loop = fallback_pair(schedule=schedule)
        assert self.run_pair(kernel, loop, 12, before_step=uneven) > 0
        assert "sim" not in kernel[1].snapshot()

    @pytest.mark.parametrize("schedule", [RoundSchedule(), JitteredSchedule(jitter=0.0)])
    def test_a_round_synchronous_schedule_takes_the_kernel(self, schedule):
        kernel, loop = fallback_pair(schedule=schedule)
        self.run_pair(kernel, loop, 8)
        assert "sim" not in kernel[1].snapshot()

    def test_an_empty_plan_takes_the_kernel(self):
        kernel, loop = fallback_pair(plan=FaultPlan())
        self.run_pair(kernel, loop, 8)
        assert "sim" not in kernel[1].snapshot()
