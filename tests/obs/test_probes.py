"""Observer semantics, golden probe sequences, and overhead bounds.

The golden tests pin the *exact* record sequence of two seeded
scenarios — a 2-depth dissemination and a join -> crash -> suspect ->
exclude membership episode — so any probe added, dropped or reordered
by a refactor shows up as a diff against a readable expectation, not
as a flaky aggregate count.
"""

import time

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.interests import Event, StaticInterest
from repro.obs import (
    NULL_OBSERVER,
    JsonlSink,
    MetricsRegistry,
    Observer,
    TraceLog,
    read_trace,
)
from repro.sim import PmcastGroup, run_dissemination
from repro.sim.runtime import GroupRuntime


def compact(trace):
    """(round, kind, process, peer, event_id, depth) tuples."""
    return [
        (
            r.round,
            r.kind,
            str(r.process),
            None if r.peer is None else str(r.peer),
            r.event_id,
            r.depth,
        )
        for r in trace
    ]


class TestObserver:
    def test_disabled_observer(self):
        assert NULL_OBSERVER.enabled is False
        assert NULL_OBSERVER.tracing is False
        NULL_OBSERVER.emit(0, "publish", Address((0,)))
        NULL_OBSERVER.annotate(ignored=True)
        assert NULL_OBSERVER.registry.snapshot() == {}

    def test_registry_only_observer(self):
        observer = Observer(registry=MetricsRegistry())
        assert observer.enabled is True
        assert observer.tracing is False
        observer.emit(0, "publish", Address((0,)))  # no destination: no-op

    def test_emit_reaches_a_sink(self, tmp_path):
        """A sink is a trace destination like a log: the same records
        and metadata come back from its file."""
        trace = TraceLog()
        path = str(tmp_path / "trace.jsonl")
        with JsonlSink(path) as sink:
            for destination in (trace, sink):
                observer = Observer(trace=destination)
                assert observer.tracing is True
                observer.emit(1, "send", Address((0, 0)),
                              peer=Address((0, 1)), event_id=3, depth=1)
                observer.annotate(seed=9)
        assert len(trace) == 1
        assert trace.meta == {"seed": 9}
        loaded = read_trace(path)
        assert compact(loaded) == compact(trace)
        assert loaded.meta == trace.meta

    def test_emit_carries_time_us(self):
        """Round-less (event-plane) records go through the same emit."""
        trace = TraceLog()
        Observer(trace=trace).emit(
            None, "timer_fire", Address((0, 1)), event_id=2, time_us=1500
        )
        (record,) = trace
        assert (record.round, record.time_us) == (None, 1500)


class TestGoldenDisseminationTrace:
    """Seeded 2-depth dissemination: the exact probe sequence."""

    def run(self):
        space = AddressSpace.regular(2, 2)
        members = {
            address: StaticInterest(True)
            for address in space.enumerate_regular(2)
        }
        group = PmcastGroup.build(
            members,
            PmcastConfig(fanout=1, redundancy=1, min_rounds_per_depth=1),
        )
        trace = TraceLog()
        report = run_dissemination(
            group, sorted(members)[0], Event({}, event_id=9),
            SimConfig(seed=3), trace=trace,
        )
        return report, trace

    def test_exact_record_sequence(self):
        report, trace = self.run()
        assert compact(trace) == [
            (0, "publish", "0.0", None, 9, 0),
            (0, "deliver", "0.0", None, 9, 0),
            (1, "send", "0.0", "1.0", 9, 1),
            (1, "receive", "1.0", "0.0", 9, 1),
            (1, "deliver", "1.0", None, 9, 0),
            (2, "send", "0.0", "1.0", 9, 1),
            (2, "send", "1.0", "0.0", 9, 1),
            (2, "receive", "1.0", "0.0", 9, 1),
            (2, "receive", "0.0", "1.0", 9, 1),
            (3, "send", "0.0", "0.1", 9, 2),
            (3, "send", "1.0", "1.1", 9, 2),
            (3, "receive", "0.1", "0.0", 9, 2),
            (3, "deliver", "0.1", None, 9, 0),
            (3, "receive", "1.1", "1.0", 9, 2),
            (3, "deliver", "1.1", None, 9, 0),
            (4, "send", "0.0", "0.1", 9, 2),
            (4, "send", "1.0", "1.1", 9, 2),
            (4, "send", "0.1", "0.0", 9, 2),
            (4, "send", "1.1", "1.0", 9, 2),
            (4, "receive", "0.1", "0.0", 9, 2),
            (4, "receive", "1.1", "1.0", 9, 2),
            (4, "receive", "0.0", "0.1", 9, 2),
            (4, "receive", "1.0", "1.1", 9, 2),
        ]
        assert report.delivered_interested == 4

    def test_meta_carries_ground_truth(self):
        __, trace = self.run()
        assert trace.meta["publisher"] == "0.0"
        assert trace.meta["interested"] == ["0.0", "0.1", "1.0", "1.1"]
        assert trace.meta["uninterested_count"] == 0
        assert trace.meta["rounds"] == 5
        assert trace.meta["seed"] == 3

    def test_trace_does_not_perturb_run(self):
        """An observed run is bit-identical to an unobserved one."""
        traced, __ = self.run()
        space = AddressSpace.regular(2, 2)
        members = {
            address: StaticInterest(True)
            for address in space.enumerate_regular(2)
        }
        group = PmcastGroup.build(
            members,
            PmcastConfig(fanout=1, redundancy=1, min_rounds_per_depth=1),
        )
        untraced = run_dissemination(
            group, sorted(members)[0], Event({}, event_id=9),
            SimConfig(seed=3),
        )
        assert untraced == traced


class TestGoldenMembershipEpisode:
    """join -> crash -> suspect -> exclude, with view refreshes."""

    def run(self, observer):
        space = AddressSpace.regular(2, 2)
        addresses = space.enumerate_regular(2)
        members = {
            address: StaticInterest(True) for address in addresses[:-1]
        }
        runtime = GroupRuntime(
            members,
            config=PmcastConfig(fanout=1, redundancy=1),
            sim_config=SimConfig(seed=2),
            detector_timeout=3,
            observer=observer,
        )
        runtime.join(addresses[-1], StaticInterest(True))
        runtime.crash(addresses[0])
        for __ in range(12):
            runtime.step()
        return runtime

    def test_exact_episode_sequence(self):
        observer = Observer(trace=TraceLog())
        runtime = self.run(observer)
        episode = [
            (r.round, r.kind, str(r.process),
             None if r.peer is None else str(r.peer), r.value)
            for r in observer.trace
            if r.kind in ("join", "leave", "crash",
                          "suspect", "exclude", "refresh")
        ]
        assert episode == [
            (0, "join", "1.1", None, 0),
            (0, "refresh", "1.1", None, 2),
            (0, "crash", "0.0", None, 0),
            (4, "suspect", "0.1", "0.0", 1),
            (4, "exclude", "0.0", None, 0),
            (4, "refresh", "0.0", None, 2),
        ]
        assert runtime.size == 3

    def test_metrics_match_episode(self):
        observer = Observer(registry=MetricsRegistry(), trace=TraceLog())
        self.run(observer)
        snapshot = observer.registry.snapshot()
        assert snapshot["membership"]["joins"] == 1
        assert snapshot["membership"]["crashes"] == 1
        assert snapshot["membership"]["exclusions"] == 1
        assert snapshot["detector"]["convictions"] == 1
        # The crash landed at round 0 and was excluded at round 4.
        latency = snapshot["detector"]["exclusion_latency_rounds"]
        assert latency["count"] == 1
        assert latency["sum"] == 4
        assert snapshot["views"]["path_refreshes"] == 2

    def test_observer_does_not_perturb_runtime(self):
        observed = self.run(Observer(registry=MetricsRegistry(),
                                     trace=TraceLog()))
        bare = self.run(NULL_OBSERVER)
        assert observed.round == bare.round
        assert sorted(map(str, observed.tree.members())) == sorted(
            map(str, bare.tree.members())
        )


class TestOverhead:
    def build_and_run(self, observer):
        space = AddressSpace.regular(3, 2)
        addresses = space.enumerate_regular(3)
        members = {
            address: StaticInterest(True) for address in addresses
        }
        runtime = GroupRuntime(
            members,
            config=PmcastConfig(fanout=2, redundancy=2),
            sim_config=SimConfig(seed=1),
            observer=observer,
        )
        event = Event({}, event_id=1)
        runtime.publish(addresses[0], event)
        runtime.run_until_idle(max_rounds=64)
        return sorted(map(str, runtime.delivered_to(event)))

    def test_null_observer_produces_nothing(self):
        delivered = self.build_and_run(NULL_OBSERVER)
        assert delivered  # the run itself worked
        assert NULL_OBSERVER.registry.snapshot() == {}
        assert NULL_OBSERVER.trace is None

    def test_observed_run_identical_and_bounded(self):
        started = time.perf_counter()
        bare = self.build_and_run(NULL_OBSERVER)
        bare_seconds = time.perf_counter() - started

        observer = Observer(registry=MetricsRegistry(), trace=TraceLog())
        started = time.perf_counter()
        observed = self.build_and_run(observer)
        observed_seconds = time.perf_counter() - started

        assert observed == bare  # byte-identical outcome
        assert len(observer.trace) > 0
        # Generous bound: full tracing may cost real time, but an order
        # of magnitude would mean a probe landed inside an inner loop.
        assert observed_seconds < max(10 * bare_seconds, 0.5)
