"""Every driver records through its ``Observer`` — and only through it.

One seeded 5³ run per (driver, destination, rate): whatever the
observer's destinations are — an in-memory ``TraceLog``, a streaming
``JsonlSink``, or both — the same record lines and the same header come
out; a sampled run is exactly the full trace filtered by
:func:`repro.obs.sampling.keep`; ``fault_*`` records are outside
sampling; and observing never changes the run.  At the parent the
engine, the variants and the virtual-clock runtime could not reach a
sink at all, ``run_dissemination(observer=Observer(trace=log))`` left
``log`` empty, and a sink's header was written before anything was
annotated.
"""

import json

import pytest

from repro.addressing import AddressSpace
from repro.baselines.flat import flat_gossip_broadcast
from repro.config import PmcastConfig, SimConfig
from repro.errors import ObservabilityError
from repro.faults import FaultPlan
from repro.interests.events import Event
from repro.net import run_sim_dissemination, run_udp_dissemination
from repro.obs import (
    SAMPLING_SCHEME,
    JsonlSink,
    Observer,
    TimelineRecorder,
    TraceLog,
    TraceSampler,
    read_trace,
)
from repro.obs.cli import summarize_trace
from repro.obs.sampling import is_exact, keep
from repro.par.subtree import build_regular_spec, run_sharded_dissemination
from repro.sim.engine import run_dissemination
from repro.sim.group import PmcastGroup
from repro.sim.rng import derive_rng
from repro.sim.runtime import GroupRuntime
from repro.sim.workload import bernoulli_interests
from repro.variants import bounded_view_broadcast, lazy_pull_broadcast

ADDRESSES = AddressSpace.regular(5, 3).enumerate_regular(5)
CONFIG = PmcastConfig()
SIM = SimConfig(seed=3, loss_probability=0.05)
EVENT = Event({}, event_id=1)
RATE = 0.25
PLAN = (
    FaultPlan(name="matrix")
    .with_partition(1, 8, "0", "1")
    .with_loss_burst(1, 6, 0.3)
)


def members():
    return bernoulli_interests(ADDRESSES, 0.5, derive_rng(1, "i"))


def group():
    return PmcastGroup.build(members(), CONFIG)


def engine(observer, faults=None, sim=SIM):
    return run_dissemination(
        group(), ADDRESSES[0], EVENT, sim, faults=faults, observer=observer
    )


def reference_loop(observer, faults=None):
    return engine(
        observer, faults, SimConfig(seed=3, loss_probability=0.05,
                                    vectorized=False)
    )


def flat(broadcast):
    def run(observer, faults=None):
        return broadcast(
            members(), ADDRESSES[0], EVENT, 2, SIM,
            faults=faults, observer=observer,
        )
    return run


def event_loop(observer, faults=None):
    return run_sim_dissemination(
        group(), ADDRESSES[0], EVENT, SIM, faults=faults, observer=observer
    )


def sharded(observer, faults=None):
    assert faults is None, "the sharded kernel takes no fault plan"
    spec = build_regular_spec(5, 3, 0.5, CONFIG, SIM, event_id=1)
    return run_sharded_dissemination(spec, observer=observer)


def runtime(observer, faults=None):
    live = GroupRuntime(
        members(), config=CONFIG, sim_config=SIM,
        observer=observer, fault_plan=faults,
    )
    live.publish(ADDRESSES[0], EVENT)
    rounds = live.run_until_idle(64)
    return rounds, live.delivered_to(EVENT)


DRIVERS = {
    "kernel": engine,
    "reference_loop": reference_loop,
    "flat_gossip": flat(flat_gossip_broadcast),
    "lazy_pull": flat(lazy_pull_broadcast),
    "bounded_view": flat(bounded_view_broadcast),
    "event_loop": event_loop,
    "sharded": sharded,
    "runtime": runtime,
}
FAULTABLE = [name for name in DRIVERS if name != "sharded"]


def observed(name, destination, rate, tmp_path, faults=None):
    """One run of ``DRIVERS[name]`` observed into ``destination``:
    ``(report, {destination: (meta, record dicts)})`` — the sink's half
    read back from its file."""
    log = TraceLog() if destination in ("trace", "both") else None
    path = str(tmp_path / f"{name}-{destination}-{rate}.jsonl")
    sink = JsonlSink(path) if destination in ("sink", "both") else None
    sampler = None if rate is None else TraceSampler(rate)
    try:
        report = DRIVERS[name](
            Observer(trace=log, sink=sink, sampler=sampler), faults
        )
    finally:
        if sink is not None:
            sink.close()
    captured = {}
    if log is not None:
        captured["trace"] = log
    if sink is not None:
        captured["sink"] = read_trace(path)
    return report, {
        where: (
            json.loads(json.dumps(trace.meta)),
            [record.to_dict() for record in trace],
        )
        for where, trace in captured.items()
    }


@pytest.mark.parametrize("rate", [None, RATE])
@pytest.mark.parametrize("name", DRIVERS)
class TestDestinationsAgree:
    def test_same_lines_same_header_same_report(self, name, rate, tmp_path):
        bare = DRIVERS[name](Observer())
        report, captured = observed(name, "trace", rate, tmp_path)
        assert report == bare, "observing changed the run"
        meta, records = captured["trace"]
        assert records
        if name != "runtime":  # a live group closes no run
            assert meta["rounds"] > 0
        if rate is None:
            assert "sampling" not in meta
        else:
            assert meta["sampling"] == {
                "rate": rate, "scheme": SAMPLING_SCHEME,
            }
        for destination in ("sink", "both"):
            other, captured = observed(name, destination, rate, tmp_path)
            assert other == bare
            for where, got in captured.items():
                assert got == (meta, records), (destination, where)


@pytest.mark.parametrize("name", DRIVERS)
def test_sampled_is_the_full_trace_filtered_by_keep(name, tmp_path):
    __, captured = observed(name, "trace", None, tmp_path)
    full = captured["trace"][1]
    __, captured = observed(name, "trace", RATE, tmp_path)
    sampled = captured["trace"][1]
    assert sampled == [
        record for record in full
        if keep(record["kind"], record["process"], record["event_id"], RATE)
    ]
    assert 0 < len(sampled) < len(full)


@pytest.mark.parametrize("name", FAULTABLE)
def test_fault_records_are_kept_at_any_rate(name, tmp_path):
    def faults_of(records):
        return [record for record in records if is_exact(record["kind"])]

    bare = DRIVERS[name](Observer(), PLAN)
    report, captured = observed(name, "trace", None, tmp_path, PLAN)
    full = faults_of(captured["trace"][1])
    sampled_report, captured = observed(name, "both", RATE, tmp_path, PLAN)
    assert report == sampled_report == bare
    assert full, "the plan never fired"
    for where, (meta, records) in captured.items():
        assert faults_of(records) == full, where
        if name != "runtime":  # a live group closes no run
            assert meta["fault_plan"]["name"] == "matrix"
            assert meta["fault_stats"]["injected_losses"] > 0


@pytest.mark.parametrize("rate", [1.0, 0.5])
@pytest.mark.parametrize(
    "name", ["kernel", "flat_gossip", "sharded", "runtime"]
)
def test_sink_summarizes_like_the_log(name, rate, tmp_path):
    """The sink satellite's pin: at the parent the sink's header was
    ``{}`` — no ``sampling`` block, so a rate-0.5 capture was summarized
    as exact, and no ``rounds`` (12 vs 13 on the sharded 5³ case)."""
    log = TraceLog()
    DRIVERS[name](Observer(trace=log, sampler=TraceSampler(rate)))
    path = str(tmp_path / "sink.jsonl.gz")
    with JsonlSink(path) as sink:
        DRIVERS[name](Observer(sink=sink, sampler=TraceSampler(rate)))
    summary = summarize_trace(log)
    assert summarize_trace(path) == summary
    assert summary["sampling"]["rate"] == rate
    assert summary["rounds"] == log.meta.get("rounds", summary["rounds"])


class TestSurvivingShorthands:
    """``trace=`` / ``timeline=`` survive on three functions (the frozen
    ledger passes them): each folds into the observer; naming a
    destination twice is an error, never a precedence rule."""

    def test_run_dissemination_trace(self):
        log, via_observer = TraceLog(), TraceLog()
        report = run_dissemination(group(), ADDRESSES[0], EVENT, SIM, trace=log)
        assert report == engine(Observer(trace=via_observer))
        assert list(log) == list(via_observer) and log.meta == via_observer.meta
        assert len(log) > 0
        with pytest.raises(ObservabilityError, match="trace="):
            run_dissemination(
                group(), ADDRESSES[0], EVENT, SIM,
                trace=log, observer=Observer(trace=TraceLog()),
            )

    def test_run_dissemination_timeline(self, tmp_path):
        timeline = TimelineRecorder()
        with JsonlSink(str(tmp_path / "t.jsonl")) as sink:
            # A shorthand joins what the observer already names.
            run_dissemination(
                group(), ADDRESSES[0], EVENT, SIM,
                timeline=timeline, observer=Observer(sink=sink),
            )
            assert sink.records_written > 0
        assert {span["phase"] for span in timeline.spans()} >= {
            "fan_out", "exchange",
        }
        with pytest.raises(ObservabilityError, match="timeline="):
            run_dissemination(
                group(), ADDRESSES[0], EVENT, SIM, timeline=timeline,
                observer=Observer(timeline=TimelineRecorder()),
            )

    def test_run_udp_dissemination_trace(self):
        # Folded on the first line: refused before any socket is bound
        # (the fold itself runs in tests/integration/test_udp_localhost).
        with pytest.raises(ObservabilityError, match="trace="):
            run_udp_dissemination(
                group(), ADDRESSES[0], EVENT,
                trace=TraceLog(), observer=Observer(trace=TraceLog()),
            )

    def test_run_sharded_dissemination_timeline(self):
        spec = build_regular_spec(5, 3, 0.5, CONFIG, SIM, event_id=1)
        timeline, log = TimelineRecorder(), TraceLog()
        run_sharded_dissemination(
            spec, timeline=timeline, observer=Observer(trace=log)
        )
        assert len(log) > 0
        assert {span["subsystem"] for span in timeline.spans()} == {"subtree"}
        with pytest.raises(ObservabilityError, match="timeline="):
            run_sharded_dissemination(
                spec, timeline=timeline,
                observer=Observer(timeline=TimelineRecorder()),
            )
