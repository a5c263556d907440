"""The four ledger workloads, their outcome checks and per-layer spans.

Each workload is one function ``(Run) -> Outcome``.  It generates its
inputs from the seed, repeats its set-up a few times (for ``setup_s``),
runs one untimed warm-up unit, then times its units through
``run.clock`` and checks every event before it counts.  With
``run.traced`` it alternates units with and without the observability
hooks the public functions already take (``timeline=``, ``observer=``,
``trace=``) and fills ``Outcome.layers``.

All layers are measured from outside: nothing here reads a private
attribute of ``repro`` and no file under ``src/`` knows this exists.
"""

from __future__ import annotations

import hashlib
import os
import resource
import time
import traceback
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import probes
from harness import RefClock, Unit, peak_rss_mb, quantile
from params import (
    CONFIG,
    DEPTH,
    EPSILON,
    LIVE_RATE_WINDOW,
    LIVE_VICTIMS,
    MATCHING_RATE,
    SETUP_REPEATS,
    TAU,
    UDP_PERIOD_S,
    BenchmarkError,
    Run,
    Scale,
    enumerate_addresses,
    sim_config,
    static_trial,
)

from repro.addressing import Address
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.net.udp import run_udp_dissemination
from repro.obs import MetricsRegistry, Observer, TimelineRecorder, TraceLog
from repro.par import TrialExecutor
from repro.par.subtree import build_regular_spec, run_sharded_dissemination
from repro.sim.engine import run_dissemination
from repro.sim.group import PmcastGroup
from repro.sim.rng import derive_rng
from repro.sim.runtime import GroupRuntime
from repro.sim.workload import (
    bernoulli_interests,
    random_event,
    random_subscriptions,
)
from repro.validate.oracles import (
    tree_delivery_prediction,
    tree_false_reception_prediction,
)


@dataclass
class EventRecord:
    """One multicast event, publish to quiescence."""

    rounds: int = 0
    messages: int = 0
    interested: int = 0
    delivered: int = 0
    uninterested: int = 0
    false_received: int = 0
    failure: Optional[str] = None
    event_s: Optional[Unit] = None  # its timed unit; None when it failed


@dataclass
class Outcome:
    """Everything a workload measured; ``run.py`` turns it into metrics."""

    events: List[EventRecord] = field(default_factory=list)
    setup: List[Unit] = field(default_factory=list)
    #: Normalised seconds per gossip round, one sample per event: its
    #: dissemination time / its rounds.
    round_s: List[float] = field(default_factory=list)
    timed_norm_s: float = 0.0
    #: Messages no single event owns (live_group counts per node).
    pooled_messages: int = 0
    layers: Dict[str, float] = field(default_factory=dict)


# -- outcome checks -----------------------------------------------------


class Oracle:
    """Eq 12-18 predictions at a measured matching rate, memoised."""

    def __init__(self, arity: int, crash_fraction: float, slack: float):
        self._arity = arity
        self._tau = crash_fraction
        self.slack = slack
        self._memo: Dict[float, Tuple[float, float]] = {}

    def __call__(self, rate: float) -> Tuple[float, float]:
        key = round(rate, 3)
        if key not in self._memo:
            args = (
                key, self._arity, DEPTH, CONFIG.redundancy, CONFIG.fanout,
                EPSILON, self._tau,
            )
            self._memo[key] = (
                tree_delivery_prediction(*args),
                tree_false_reception_prediction(*args),
            )
        return self._memo[key]


def check_ratios(record: EventRecord, oracle: Oracle) -> None:
    """Fail ``record`` if it misses either of the paper's guarantees."""
    if record.failure is not None:
        return
    if not record.interested or not record.uninterested:
        raise BenchmarkError("an event with nobody (un)interested: no check")
    delivery_floor, false_ceiling = oracle(
        record.interested / (record.interested + record.uninterested)
    )
    delivery = record.delivered / record.interested
    false_reception = record.false_received / record.uninterested
    if delivery < delivery_floor - oracle.slack:
        record.failure = (
            f"delivery {delivery:.4f} < oracle {delivery_floor:.4f} - slack"
        )
    elif false_reception > false_ceiling + oracle.slack:
        record.failure = (
            f"false reception {false_reception:.4f} > oracle "
            f"{false_ceiling:.4f} + slack"
        )


def record_from_report(
    report, max_rounds: Optional[int], wire_loss: float = 0.0
) -> EventRecord:
    """An EventRecord from a DisseminationReport, with completion and
    envelope conservation checked: every envelope sent was lost, received
    or addressed to a crashed process.  ``wire_loss`` is the share a real
    wire may drop on top (0 for the simulators)."""
    record = EventRecord(
        rounds=report.rounds,
        messages=report.messages_sent,
        interested=report.interested,
        delivered=report.delivered_interested,
        uninterested=report.uninterested,
        false_received=report.received_uninterested,
    )
    arrived = report.messages_sent - report.messages_lost
    missing = arrived - (report.received_total - 1 + report.duplicate_receptions)
    if max_rounds is not None and report.rounds >= max_rounds:
        record.failure = f"hit max_rounds={max_rounds}"
    elif missing < 0 or (report.crashed == 0 and missing > wire_loss * arrived):
        record.failure = (
            f"envelopes not conserved: {arrived} arrived, {missing} of them "
            f"never received, {report.crashed} processes crashed"
        )
    return record


def guarded(
    clock: RefClock, unit: Callable[[], EventRecord]
) -> Tuple[EventRecord, Unit]:
    """Time one event; an exception inside it is that event's failure."""

    def body() -> EventRecord:
        try:
            return unit()
        except BenchmarkError:
            raise
        except Exception:
            return EventRecord(failure=traceback.format_exc(limit=4))

    record, timing = clock.timed(body)
    if record.failure is None:
        record.event_s = timing
    return record, timing


def counts_digest(outcome: Outcome) -> str:
    """sha1 over what each event did, for showing bit-identical behaviour."""
    digest = hashlib.sha1()
    for record in outcome.events:
        digest.update(
            f"{record.rounds},{record.messages},{record.delivered},"
            f"{record.false_received};".encode("ascii")
        )
    digest.update(str(outcome.pooled_messages).encode("ascii"))
    return digest.hexdigest()


def repeat_setup(run: Run, outcome: Outcome, set_up: Callable[[], object]):
    """Run ``set_up`` SETUP_REPEATS times, timed; return the last result.
    A traced pass does not report ``setup_s`` and sets up once."""
    built = None
    for _ in range(1 if run.traced else SETUP_REPEATS):
        built = None  # drop the previous copy before building the next
        built, unit = run.clock.timed(set_up)
        outcome.setup.append(unit)
    return built


def account(outcome: Outcome, record: EventRecord, timing: Unit) -> None:
    outcome.events.append(record)
    outcome.timed_norm_s += timing.norm_s


def overhead_share(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """(traced - untraced) / untraced over equally many units of each."""
    pairs = min(len(traced), len(untraced))
    if not pairs:
        return 0.0
    plain = sum(untraced[:pairs])
    return (sum(traced[:pairs]) - plain) / plain


def seed_plan(rng, count: int, population: int) -> List[Tuple[int, int]]:
    """``count`` pairs of (event seed, publisher index)."""
    return [
        (rng.randrange(2 ** 31), rng.randrange(population)) for _ in range(count)
    ]


# -- static_tree --------------------------------------------------------


def static_tree(run: Run) -> Outcome:
    """Sequential Figure 4/5 trials: redraw interests, build, disseminate."""
    scale, outcome = run.scale, Outcome()
    oracle = Oracle(scale.arity, TAU, scale.oracle_slack)
    trials = scale.units("static_tree", run.seconds)

    def set_up():
        addresses = enumerate_addresses(scale.arity)
        rng = derive_rng(run.seed, "ledger", "static_tree")
        oracle(MATCHING_RATE)
        # One more than the trials: the last is the warm-up.
        return addresses, seed_plan(rng, trials + 1, len(addresses))

    addresses, plan = repeat_setup(run, outcome, set_up)
    build_s: List[float] = []
    dissem_s: List[float] = []
    dissem_traced_s: List[float] = []
    fan_out_s: List[float] = []
    exchange_s: List[float] = []

    def trial(index: int, timeline: Optional[TimelineRecorder]):
        members, publisher, event, sim = static_trial(scale, addresses, plan, index)
        spans: List[float] = []

        def unit() -> EventRecord:
            started = time.perf_counter()
            group = PmcastGroup.build(members, CONFIG)
            built = time.perf_counter()
            report = run_dissemination(
                group, publisher, event, sim, timeline=timeline
            )
            spans.extend((built - started, time.perf_counter() - built))
            return record_from_report(report, sim.max_rounds)

        record, timing = guarded(run.clock, unit)
        check_ratios(record, oracle)
        return record, timing, spans

    trial(trials, None)  # warm-up, untimed
    for index in range(trials):
        timeline = TimelineRecorder() if run.traced and index % 2 else None
        record, timing, spans = trial(index, timeline)
        account(outcome, record, timing)
        if record.failure is not None:
            continue
        outcome.round_s.append(spans[1] * timing.scale / record.rounds)
        if timeline is None:
            build_s.append(spans[0] * timing.scale)
            dissem_s.append(spans[1] * timing.scale)
        else:
            dissem_traced_s.append(spans[1] * timing.scale)
            totals = timeline.totals()
            fan_out_s.append(totals[("engine", "fan_out")] * timing.scale)
            exchange_s.append(totals[("engine", "exchange")] * timing.scale)

    if run.traced and dissem_s and fan_out_s:
        messages = [r.messages for r in outcome.events if r.failure is None]
        outcome.layers.update(
            {
                "sim.group_build_s": median(build_s),
                "sim.dissem_s": median(dissem_s),
                "sim.dissem_s.p90": quantile(dissem_s, 0.9),
                "sim.exchange_s": median(exchange_s),
                "core.fan_out_s": median(fan_out_s),
                "core.fan_out_us_per_msg": 1e6
                * median(fan_out_s)
                / median(messages),
                "obs.traced_overhead_share": overhead_share(
                    dissem_traced_s, dissem_s
                ),
            }
        )
        outcome.layers.update(
            probes.static_tree_layers(run, addresses, plan, median(dissem_s))
        )
    return outcome


# -- live_group ---------------------------------------------------------

#: Script rounds count from 1, after the warm-up step.
LIVE_CRASH_ROUND = 3
#: Rounds of its script the untraced arm of a traced pass plays.
LIVE_COMPARE_ROUNDS = 8


@dataclass
class LiveScript:
    """A round-indexed script for one GroupRuntime, drawn from the seed:
    an event every 2nd round, a join or a leave every round, three crashes.

    Churn in *every* round keeps the rounds alike.  With it in every 3rd,
    round times were bimodal and their median moved 10 % between runs of
    one seed; now it repeats within 1 %.
    """

    subscriptions: Dict[Address, Interest]
    initial: Dict[Address, Interest]
    joiners: List[Address]
    leavers: List[Address]
    victims: List[Address]
    publishers: List[Address]
    events: List[Event]

    def publish_round(self, index: int) -> int:
        return 1 + 2 * index

    def churn_at(self, round_index: int) -> Optional[Tuple[str, Address]]:
        op = round_index - 1
        if not 0 <= op < 2 * len(self.joiners):
            return None
        if op % 2 == 0:
            return "join", self.joiners[op // 2]
        return "leave", self.leavers[op // 2]


def live_script(seed: int, scale: Scale, events: int) -> LiveScript:
    addresses = enumerate_addresses(scale.arity)
    subscriptions = random_subscriptions(
        addresses, derive_rng(seed, "ledger", "subscriptions")
    )
    rng = derive_rng(seed, "ledger", "live_group")
    joiners = rng.sample(addresses, scale.joiners)
    held_back = set(joiners)
    initial = {
        address: interest
        for address, interest in subscriptions.items()
        if address not in held_back
    }
    # Victims, leavers and publishers are distinct, so the script never
    # asks a crashed or departed process to publish.
    cast = rng.sample(sorted(initial), LIVE_VICTIMS + scale.joiners + events)
    victims = cast[:LIVE_VICTIMS]
    leavers = cast[LIVE_VICTIMS:LIVE_VICTIMS + scale.joiners]
    publishers = cast[LIVE_VICTIMS + scale.joiners:]
    interests = list(initial.values())
    chosen: List[Event] = []
    low, high = LIVE_RATE_WINDOW
    for _ in range(100 * events):
        if len(chosen) == events:
            break
        event = random_event(rng, event_id=1000 + len(chosen))
        rate = sum(1 for i in interests if i.matches(event)) / len(interests)
        if low <= rate <= high:
            chosen.append(event)
    else:
        raise BenchmarkError("could not draw events inside LIVE_RATE_WINDOW")
    return LiveScript(
        subscriptions, initial, joiners, leavers, victims, publishers, chosen
    )


@dataclass
class LivePass:
    """What one pass over the live script produced."""

    records: List[EventRecord]
    expected_size: int
    rounds: List[Unit] = field(default_factory=list)
    join_s: List[float] = field(default_factory=list)
    leave_s: List[float] = field(default_factory=list)
    exclusion_rounds: List[int] = field(default_factory=list)
    messages: int = 0
    final_size: int = 0


def play_live_script(
    run: Run, runtime: GroupRuntime, script: LiveScript, last_round: int
) -> LivePass:
    """Step ``runtime`` through ``script``; each step is a timed unit.

    Stops when every event is quiescent and every victim excluded, or
    after ``last_round`` rounds.
    """
    clock, tree = run.clock, runtime.tree
    out = LivePass(
        [EventRecord() for _ in script.events],
        expected_size=len(script.initial) - LIVE_VICTIMS,
    )
    published_at: Dict[int, int] = {}
    in_flight: Dict[int, Event] = {}
    departed_messages = 0
    crashed_at = 0

    _, timing = clock.timed(runtime.step)  # warm-up, untimed
    for round_index in range(1, last_round + 1):
        for index, event in enumerate(script.events):
            if script.publish_round(index) == round_index:
                runtime.publish(script.publishers[index], event)
                published_at[index] = len(out.rounds)
                in_flight[index] = event
        churn = script.churn_at(round_index)
        if churn is not None:
            kind, address = churn
            if kind == "leave":
                departed_messages += runtime.node(address).messages_sent
            started = time.perf_counter()
            if kind == "join":
                runtime.join(address, script.subscriptions[address])
            else:
                runtime.leave(address)
            spent = (time.perf_counter() - started) * timing.scale
            (out.join_s if kind == "join" else out.leave_s).append(spent)
            out.expected_size += 1 if kind == "join" else -1
        if round_index == LIVE_CRASH_ROUND:
            crashed_at = runtime.round
            for victim in script.victims:
                runtime.crash(victim)
        _, timing = clock.timed(runtime.step)
        out.rounds.append(timing)

        members = list(tree.members())
        nodes = [runtime.node(address) for address in members]
        for index, event in list(in_flight.items()):
            if any(n.alive and n.buffers.holds(event) for n in nodes):
                continue
            del in_flight[index]
            record = out.records[index]
            spent = out.rounds[published_at[index]:]
            raw = sum(u.raw_s for u in spent)
            record.rounds = len(spent)
            record.event_s = Unit(raw, sum(u.norm_s for u in spent) / raw)
            for address, node in zip(members, nodes):
                if tree.interest_of(address).matches(event):
                    record.interested += 1
                    record.delivered += node.has_delivered(event)
                elif address != script.publishers[index]:
                    record.uninterested += 1
                    record.false_received += node.has_received(event)
        out.exclusion_rounds = [
            excluded - crashed_at
            for excluded in map(runtime.exclusion_round, script.victims)
            if excluded is not None
        ]
        if (
            len(published_at) == len(script.events)
            and not in_flight
            and len(out.exclusion_rounds) == LIVE_VICTIMS
        ):
            break

    for index, record in enumerate(out.records):
        if index not in published_at:
            record.failure = "never published"
        elif index in in_flight:
            record.failure = f"still in flight after {last_round} rounds"
    out.final_size = runtime.size
    # An excluded victim has left the tree but its node is still there.
    senders = set(tree.members()).union(script.victims)
    out.messages = departed_messages + sum(
        runtime.node(address).messages_sent for address in senders
    )
    return out


def live_group(run: Run) -> Outcome:
    """One GroupRuntime under publishes, churn and crashes at once."""
    scale, outcome = run.scale, Outcome()
    oracle = Oracle(scale.arity, 0.0, scale.oracle_slack)
    events = scale.units("live_group", run.seconds)
    sim = sim_config(run.seed, max_rounds=512, crash_fraction=0.0)

    def build(script: LiveScript, observer=None) -> GroupRuntime:
        return GroupRuntime(
            dict(script.initial), config=CONFIG, sim_config=sim,
            observer=observer,
        )

    def set_up():
        script = live_script(run.seed, scale, events)
        oracle(MATCHING_RATE)
        return script, build(script)

    script, runtime = repeat_setup(run, outcome, set_up)
    registry, timeline = MetricsRegistry(), TimelineRecorder()
    if run.traced:
        # The untraced arm plays only far enough to compare round times.
        plain = play_live_script(run, runtime, script, LIVE_COMPARE_ROUNDS)
        del runtime
        runtime, build_unit = run.clock.timed(
            lambda: build(script, Observer(registry=registry, timeline=timeline))
        )
    played = play_live_script(run, runtime, script, scale.live_max_rounds)

    for record in played.records:
        check_ratios(record, oracle)
    excluded = len(played.exclusion_rounds)
    if excluded != LIVE_VICTIMS or played.final_size != played.expected_size:
        for record in played.records:
            record.failure = record.failure or (
                f"group outcome: {excluded}/{LIVE_VICTIMS} victims excluded, "
                f"size {played.final_size}, scripted {played.expected_size}"
            )
    outcome.events = played.records
    outcome.round_s = [
        r.event_s.norm_s / r.rounds for r in played.records if r.failure is None
    ]
    step_s = [u.norm_s for u in played.rounds]
    outcome.timed_norm_s = sum(step_s)
    outcome.pooled_messages = played.messages

    if run.traced:
        rounds = len(played.rounds)
        snapshot = registry.snapshot()
        # Runtime rounds count the warm-up step as round 1.
        scales = {i + 2: u.scale for i, u in enumerate(played.rounds)}
        spans = {"membership": 0.0, "fan_out": 0.0, "exchange": 0.0}
        for span in timeline.spans():
            if span["round"] in scales:
                spans[span["phase"]] += span["seconds"] * scales[span["round"]]
        membership = snapshot["membership"]
        gossip = snapshot["gossip_pull"]
        cache = snapshot["match_cache"]
        churn = (
            membership["joins"] + membership["leaves"] + membership["exclusions"]
        )
        far = membership["far_cache_hits"] + membership["far_cache_misses"]
        outcome.layers.update(
            {
                "membership.round_s": spans["membership"] / rounds,
                "membership.join_ms": 1e3 * median(played.join_s),
                "membership.leave_ms": 1e3 * median(played.leave_s),
                "membership.pulls_per_round": membership["pulls"]
                / snapshot["runtime"]["rounds"],
                "membership.synced_exchange_rate": gossip["synced_exchanges"]
                / gossip["exchanges"],
                "membership.far_cache_hit_rate": membership["far_cache_hits"]
                / far,
                "membership.exclusion_rounds": median(played.exclusion_rounds)
                if played.exclusion_rounds
                else 0.0,
                "interests.verdict_hit_rate": cache["verdict_hit_rate"],
                "interests.table_hit_rate": cache["table_hit_rate"],
                "interests.invalidations_per_churn": cache["invalidations"]
                / churn,
                "sim.runtime_build_s": build_unit.norm_s,
                "sim.runtime_fan_out_s": spans["fan_out"] / rounds,
                "sim.runtime_exchange_s": spans["exchange"] / rounds,
                "sim.step_s": median(step_s),
                "sim.step_s.p90": quantile(step_s, 0.9),
                "obs.traced_overhead_share": overhead_share(
                    step_s, [u.norm_s for u in plain.rounds]
                ),
            }
        )
        outcome.layers.update(probes.live_group_layers(run, script))
    return outcome


# -- udp_live -----------------------------------------------------------


def raise_fd_limit(needed: int) -> None:
    """Soft RLIMIT_NOFILE up to the hard one; fail rather than shrink."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if hard != resource.RLIM_INFINITY and hard < needed:
        raise BenchmarkError(
            f"udp_live needs {needed} file descriptors, the hard "
            f"RLIMIT_NOFILE is {hard}"
        )
    if soft != resource.RLIM_INFINITY and soft < needed:
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))


def udp_live(run: Run) -> Outcome:
    """Sequential events over real localhost UDP sockets, one asyncio loop."""
    scale, outcome = run.scale, Outcome()
    oracle = Oracle(scale.arity, 0.0, scale.oracle_slack)
    events = scale.units("udp_live", run.seconds)
    size = scale.arity ** DEPTH
    raise_fd_limit(size + 352)

    def set_up():
        addresses = enumerate_addresses(scale.arity)
        members = bernoulli_interests(
            addresses, MATCHING_RATE, derive_rng(run.seed, "ledger", "udp_live")
        )
        oracle(MATCHING_RATE)
        return addresses, PmcastGroup.build(members, CONFIG)

    addresses, group = repeat_setup(run, outcome, set_up)
    plan = seed_plan(derive_rng(run.seed, "ledger", "udp_events"), events, size)
    traced_s: List[float] = []
    plain_s: List[float] = []
    first_traced = None

    def one(index: int, trace: Optional[TraceLog]):
        event_seed, publisher = plan[index]
        kept = []

        def unit() -> EventRecord:
            cpu, wall = time.process_time(), time.perf_counter()
            report, stats = run_udp_dissemination(
                group,
                addresses[publisher],
                Event({"ledger": 1}, event_id=index + 1),
                seed=event_seed,
                loss_probability=EPSILON,
                period_s=UDP_PERIOD_S,
                hard_timeout_s=60.0,
                trace=trace,
            )
            busy = (time.process_time() - cpu) / (time.perf_counter() - wall)
            kept.extend((stats, busy))
            # Loopback may drop a datagram under burst; more than 1 % is
            # a fault of the plane, not of the wire.
            record = record_from_report(report, None, wire_loss=0.01)
            if not stats.completed:
                record.failure = "hit hard_timeout_s"
            return record

        record, timing = guarded(run.clock, unit)
        if record.failure is None:
            # The unit here is the run's own elapsed time, which leaves
            # out asyncio.run()'s start-up and teardown.
            record.event_s = Unit(kept[0].elapsed_seconds, timing.scale)
        check_ratios(record, oracle)
        return record, timing, kept

    # No warm-up event: it would cost a quarter of the run, and the median
    # of the events absorbs a cold first one.
    for index in range(events):
        trace = TraceLog() if run.traced and index % 2 else None
        record, timing, kept = one(index, trace)
        account(outcome, record, timing)
        if record.failure is not None:
            continue
        outcome.round_s.append(record.event_s.norm_s / record.rounds)
        if trace is None:
            plain_s.append(record.event_s.norm_s)
        else:
            traced_s.append(record.event_s.norm_s)
            first_traced = first_traced or (
                trace, kept, record, addresses[plan[index][1]]
            )

    if first_traced is not None:
        trace, (stats, busy), record, publisher = first_traced
        interested = set(group.interested_members(Event({"ledger": 1})))
        latencies = [
            entry.time_us / 1e3 * record.event_s.scale
            for entry in trace.filter(kind="deliver")
            if entry.process in interested and entry.process != publisher
        ]
        outcome.layers.update(
            {
                "net.timer_fires_per_event": stats.timer_fires,
                "net.msgs_per_event": stats.messages_sent,
                "net.lost_share": stats.messages_lost / stats.messages_sent,
                "net.protocol_events_per_s": stats.events
                / record.event_s.norm_s,
                "net.cpu_busy_share": busy,
                "net.deliver_latency_ms_p50": median(latencies),
                "net.deliver_latency_ms_p90": quantile(latencies, 0.9),
                "obs.traced_overhead_share": overhead_share(traced_s, plain_s),
                "sim.group_build_s": median([u.norm_s for u in outcome.setup]),
            }
        )
        outcome.layers.update(probes.udp_live_layers(run))
    return outcome


# -- scale_1m -----------------------------------------------------------


def scale_1m(run: Run) -> Outcome:
    """The sharded numpy kernel at big_arity ** 3 members, one job."""
    scale, outcome = run.scale, Outcome()
    oracle = Oracle(scale.big_arity, TAU, scale.oracle_slack)
    events = scale.units("scale_1m", run.seconds)
    size = scale.big_arity ** DEPTH

    def set_up():
        oracle(MATCHING_RATE)
        # Two more than the events: the warm-up and the jobs=2 event.
        return seed_plan(
            derive_rng(run.seed, "ledger", "scale_1m"), events + 2, size
        )

    plan = repeat_setup(run, outcome, set_up)
    spec_s: List[float] = []
    plain_s: List[float] = []
    traced_s: List[float] = []
    fan_out_s: List[float] = []
    exchange_s: List[float] = []

    def one(index: int, timeline=None, executor=None):
        event_seed, publisher = plan[index]
        spans: List[float] = []

        def unit() -> EventRecord:
            started = time.perf_counter()
            spec = build_regular_spec(
                scale.big_arity,
                DEPTH,
                MATCHING_RATE,
                config=CONFIG,
                sim_config=sim_config(event_seed, scale.big_max_rounds),
                event_id=index + 1,
                publisher=publisher,
            )
            spans.append(time.perf_counter() - started)
            report = run_sharded_dissemination(
                spec, executor=executor, timeline=timeline
            )
            return record_from_report(report, spec.max_rounds)

        record, timing = guarded(run.clock, unit)
        check_ratios(record, oracle)
        return record, timing, spans

    one(events)  # warm-up, untimed
    for index in range(events):
        timeline = TimelineRecorder() if run.traced and index % 2 else None
        record, timing, spans = one(index, timeline)
        account(outcome, record, timing)
        if record.failure is not None:
            continue
        outcome.round_s.append(timing.norm_s / record.rounds)
        spec_s.append(spans[0] * timing.scale)
        if timeline is None:
            plain_s.append(timing.norm_s)
        else:
            traced_s.append(timing.norm_s)
            totals = timeline.totals()
            fan_out_s.append(totals[("subtree", "fan_out")] * timing.scale)
            exchange_s.append(totals[("subtree", "exchange")] * timing.scale)

    if run.traced and plain_s and traced_s:
        # The multi-core run: every allowed CPU, a fresh two-worker pool,
        # one event — pool start is inside the unit (README, finding 2).
        os.sched_setaffinity(0, set(run.allowed_cpus))
        try:
            with TrialExecutor(jobs=2) as executor:
                record, timing, _ = one(events + 1, executor=executor)
        finally:
            os.sched_setaffinity(0, {run.allowed_cpus[-1]})
        if record.failure is not None:
            raise BenchmarkError(f"jobs=2 event failed: {record.failure}")
        outcome.layers.update(
            {
                "par.spec_build_s": median(spec_s),
                "par.fan_out_s": median(fan_out_s),
                "par.exchange_s": median(exchange_s),
                "par.jobs2_event_s": timing.norm_s,
                "par.dispatch_share": 1.0 - median(plain_s) / timing.norm_s,
                "par.parent_rss_mb": peak_rss_mb(),
                "obs.traced_overhead_share": overhead_share(traced_s, plain_s),
            }
        )
    return outcome


WORKLOADS: Dict[str, Callable[[Run], Outcome]] = {
    "static_tree": static_tree,
    "live_group": live_group,
    "udp_live": udp_live,
    "scale_1m": scale_1m,
}
