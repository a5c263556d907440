"""Deployment-style integration: ~200 live UDP processes on localhost.

The whole stack end to end — real datagrams through
:class:`FairLossUdpTransport`, :class:`AsyncProcess` mailboxes built on
a member's first datagram, timer callbacks on the loop — must
disseminate with a delivery ratio inside the Eqs 12–18 conformance
bands the round simulator is validated against.  The run is wall-clock bounded (``hard_timeout_s``)
so a wedged event loop fails the test instead of hanging CI, and every
test skips gracefully where UDP sockets are unavailable (sandboxed
builders).
"""

import asyncio
import errno
import socket
import types

import pytest

from repro.addressing import AddressSpace
from repro.config import PmcastConfig
from repro.interests.events import Event
from repro.net import AsyncProcess, run_udp_dissemination
from repro.net import transport as transport_module
from repro.net import udp as udp_module
from repro.obs import (
    NULL_OBSERVER,
    SAMPLING_SCHEME,
    JsonlSink,
    MetricsRegistry,
    Observer,
    TraceLog,
    TraceSampler,
    read_trace,
    validate_trace,
)
from repro.obs.cli import summarize_trace
from repro.obs.sampling import keep
from repro.sim import PmcastGroup, bernoulli_interests, derive_rng
from repro.validate.oracles import tree_delivery_prediction
from tests.traces import write_jsonl

ARITY = 6
DEPTH = 3  # 6^3 = 216 live processes
RATE = 0.3
FANOUT = 2
REDUNDANCY = 2

#: Single-run tolerance below the Eq 18 point prediction.  The
#: statistical suite averages many trials against a tight band; one
#: integration run gets a generous one — it pins "the deployment path
#: actually disseminates", not the estimator's variance.
BAND = 0.10


def build_group(seed):
    addresses = AddressSpace.regular(ARITY, DEPTH).enumerate_regular(ARITY)
    members = bernoulli_interests(
        addresses, RATE, derive_rng(seed, "udp-int")
    )
    group = PmcastGroup.build(
        members, PmcastConfig(fanout=FANOUT, redundancy=REDUNDANCY)
    )
    return group, addresses


def run_udp(seed, trace=None, loss_probability=0.0, observer=None):
    group, addresses = build_group(seed)
    try:
        report, stats = run_udp_dissemination(
            group,
            addresses[0],
            Event({"udp": 1}, event_id=9),
            seed=seed,
            loss_probability=loss_probability,
            period_s=0.02,
            hard_timeout_s=20.0,
            trace=trace,
            observer=observer,
        )
    except OSError as exc:
        pytest.skip(f"UDP sockets unavailable: {exc}")
    return report, stats


class TestUdpLocalhost:
    def test_delivery_ratio_inside_conformance_band(self):
        report, stats = run_udp(seed=5)
        assert report.group_size == ARITY ** DEPTH
        assert stats.completed, "run hit the hard timeout"
        prediction = tree_delivery_prediction(
            RATE, ARITY, DEPTH, REDUNDANCY, FANOUT, 0.0
        )
        ratio = report.delivered_interested / report.interested
        assert ratio >= prediction - BAND, (
            f"delivery ratio {ratio:.3f} fell below the Eq 18 band "
            f"(prediction {prediction:.3f} - {BAND})"
        )
        assert ratio <= 1.0

    def test_report_is_internally_consistent(self):
        report, stats = run_udp(seed=6)
        assert stats.completed
        assert report.delivered_interested <= report.interested
        assert report.received_total <= report.group_size
        assert report.messages_sent > 0
        assert stats.events > 0
        assert stats.events / stats.elapsed_seconds > 0
        assert stats.members == report.group_size
        # The software ε was off: every loss would be a kernel drop,
        # which localhost should not produce at this rate.
        assert stats.messages_lost == 0

    def test_software_loss_is_accounted(self):
        report, stats = run_udp(seed=7, loss_probability=0.05)
        assert stats.completed
        assert stats.messages_lost > 0
        assert report.messages_lost == stats.messages_lost
        assert report.messages_lost <= report.messages_sent

    def test_trace_validates_and_summarizes(self, tmp_path):
        trace = TraceLog()
        report, __ = run_udp(seed=8, trace=trace)
        path = tmp_path / "udp.jsonl"
        write_jsonl(trace, str(path))
        count, problems = validate_trace(str(path))
        assert problems == []
        assert count == len(trace)
        summary = summarize_trace(str(path))
        assert summary["event_records"] > 0
        # Only interested processes deliver, each exactly once, so the
        # trace's deliver count agrees with the report.
        deliveries = sum(
            1 for record in trace if record.kind == "deliver"
        )
        assert deliveries == report.delivered_interested

    def test_sampled_run_streams_to_a_gz_sink(self, tmp_path):
        """The structural half of tests/obs/test_observer_matrix.py (a
        UDP run is not reproducible record for record): the plane
        reaches a sink, sampling is the observer's, and what the run
        annotates last arrives through the sink's closing line."""
        path = str(tmp_path / "udp.jsonl.gz")
        rate = 0.25
        with JsonlSink(path) as sink:
            report, stats = run_udp(
                seed=8, observer=Observer(trace=sink, sampler=TraceSampler(rate))
            )
        count, problems = validate_trace(path)
        trace = read_trace(path)
        assert problems == [] and count == len(trace) > 0
        meta = trace.meta
        assert meta["sampling"] == {"rate": rate, "scheme": SAMPLING_SCHEME}
        assert meta["producer"] == "repro.net.udp"
        assert meta["rounds"] == report.rounds  # annotated after the run
        kinds = set()
        for record in trace:
            assert keep(record.kind, record.process, record.event_id, rate)
            kinds.add(record.kind)
        assert {"timer_fire", "send", "recv", "receive"} <= kinds
        # Sends are sampled by sender: far fewer than were sent.
        summary = summarize_trace(path)
        assert summary["sampling"]["rate"] == rate
        assert summary["kind_counts"]["send"] < stats.messages_sent

    def test_registry_reads_the_run_stats(self):
        registry = MetricsRegistry()
        __, stats = run_udp(
            seed=7, loss_probability=0.05, observer=Observer(registry=registry)
        )
        rows = registry.snapshot()["net"]
        assert rows == {
            name: getattr(stats, name)
            for name in (
                "timer_fires", "messages_sent", "messages_lost",
                "datagrams_received", "receptions", "undrained",
                "malformed_datagrams", "misrouted_datagrams", "wire_drops",
            )
        }
        assert rows["messages_lost"] > 0 and rows["receptions"] > 0
        assert rows["undrained"] == 0

    def test_a_cut_run_counts_what_its_mailboxes_still_hold(self):
        """A run stopped by ``hard_timeout_s`` leaves datagrams queued:
        every received datagram is drained or counted undrained."""
        group, addresses = build_group(1)
        registry = MetricsRegistry()
        try:
            __, stats = run_udp_dissemination(
                group,
                addresses[0],
                Event({"udp": 1}, event_id=9),
                seed=1,
                period_s=0.02,
                hard_timeout_s=0.05,
                observer=Observer(registry=registry),
            )
        except OSError as exc:
            pytest.skip(f"UDP sockets unavailable: {exc}")
        assert not stats.completed
        assert stats.datagrams_received == stats.receptions + stats.undrained
        assert registry.snapshot()["net"]["undrained"] == stats.undrained


class TestPerDatagramCost:
    """A member costs a socket; everything else waits for a datagram."""

    def test_processes_materialise_on_first_datagram_with_fresh_streams(
        self, monkeypatch
    ):
        seed, period_s, built, tasks, caches = 11, 0.02, {}, set(), []
        nodes = []
        group, addresses = build_group(seed)

        class Recording(AsyncProcess):
            def __init__(self, node, ctx, transport, **kwargs):
                super().__init__(node, ctx, transport, **kwargs)
                assert node.address not in built, "a process was built twice"
                nodes.append(node)
                # Nothing has drawn yet: equal states, equal draws.
                built[node.address] = (
                    ctx.rng.getstate(), transport.rng.getstate(),
                    self.timer_offset_s,
                )
                caches.append(ctx.cache_stats)

            def drain(self):
                tasks.add(len(asyncio.all_tasks()))
                return super().drain()

        monkeypatch.setattr(udp_module, "AsyncProcess", Recording)
        try:
            report, stats = run_udp_dissemination(
                group, addresses[0], Event({"udp": 1}, event_id=9),
                seed=seed, loss_probability=0.05, period_s=period_s,
                hard_timeout_s=20.0,
            )
        except OSError as exc:
            pytest.skip(f"UDP sockets unavailable: {exc}")
        assert stats.completed
        receivers = {node.address for node in nodes if node.receptions}
        assert set(built) == {addresses[0]} | receivers
        assert len(built) < group.size, "nobody stayed a bare socket"
        assert report.received_total == len(built)
        # Only the runner: no Task per process, per burst or per fire.
        assert tasks == {1}
        # One match cache for the run: a table is filled once, not once
        # per process holding it.
        assert all(stats_ is caches[0] for stats_ in caches)
        tables = {
            id(node._views[depth])
            for node in nodes
            for depth in range(1, group.tree.depth + 1)
        }
        assert caches[0].table_misses <= len(tables)
        for address, (gossip, loss, offset_s) in built.items():
            name = str(address)
            assert gossip == derive_rng(seed, "net-gossip", name).getstate()
            assert loss == derive_rng(seed, "net-loss", name).getstate()
            assert offset_s == (
                derive_rng(seed, "net-sched", name).random() * period_s
            )
        assert (stats.malformed_datagrams, stats.misrouted_datagrams,
                stats.wire_drops) == (0, 0, 0)

    def test_failed_bind_closes_every_opened_socket(self, monkeypatch):
        fail_at, opened = 40, []

        class Recording(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append((self, self.fileno()))

            def bind(self, address):
                if len(opened) == fail_at:
                    raise OSError(errno.EMFILE, "Too many open files")
                super().bind(address)

        # Only the transport's view of the module: asyncio keeps its own.
        monkeypatch.setattr(
            transport_module, "socket",
            types.SimpleNamespace(
                socket=Recording, AF_INET=socket.AF_INET,
                SOCK_DGRAM=socket.SOCK_DGRAM,
            ),
        )
        group, addresses = build_group(13)
        built = []

        class Recording(AsyncProcess):
            def __init__(self, node, *args, **kwargs):
                super().__init__(node, *args, **kwargs)
                built.append(node)

        monkeypatch.setattr(udp_module, "AsyncProcess", Recording)

        async def scenario():
            loop = asyncio.get_running_loop()
            with pytest.raises(OSError) as caught:
                await udp_module._run_udp(
                    group, addresses[0], Event({"udp": 1}, event_id=9),
                    13, 0.0, 0.02, 20.0, NULL_OBSERVER, "127.0.0.1",
                )
            assert caught.value.errno == errno.EMFILE
            assert len(opened) == fail_at
            assert all(sock.fileno() == -1 for sock, __ in opened)
            assert not any(loop.remove_reader(fd) for __, fd in opened)

        asyncio.run(scenario())
        assert not built, "published although the group was not reachable"
