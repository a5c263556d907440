"""Deployment-style dissemination over real UDP datagrams on localhost.

One asyncio event loop hosts every member, and a member costs one bound
non-blocking socket (:class:`~repro.net.transport.FairLossUdpTransport`)
until a datagram reaches it: its :class:`~repro.net.process.AsyncProcess`
— mailbox, gossip stream, loss stream — is built on its first datagram
or its publish.  The match cache is the run's, not the process's: every
context is a :meth:`~repro.core.context.GossipContext.fork` of one.
While a process has protocol work its gossip timer is a
``loop.call_later`` callback that re-arms itself every ``period_s``
(first fire after a seeded start offset, so timers do not herd) and
parks when the work runs out; a datagram enqueues into the mailbox and
restarts a parked timer.  The run quiesces when no send or receive
happened for :data:`QUIET_PERIODS` periods and every timer parked, or at
the ``hard_timeout_s`` wall-clock cap.

The protocol logic is the engine's own :class:`PmcastNode`, untouched,
and the outcome is scored by the same arithmetic
(:func:`~repro.sim.group.assemble_pmcast_report`) — so a UDP
run's :class:`~repro.sim.metrics.DisseminationReport` is directly
comparable against the Eqs 12–18 oracle bands, which is exactly what
the integration test does.  Outcomes are *not* deterministic (kernel
scheduling reorders datagrams); determinism lives in the virtual-clock
runtime (:mod:`repro.net.runtime`).

The run's :class:`~repro.obs.probes.Observer` receives round-less
``publish``/``timer_fire``/``send``/``recv``/``receive``/``deliver``
records ordered by ``time_us`` on its trace destination, and one ``net``
collector (the :class:`UdpRunStats` counters) on its registry; no
timeline spans yet (ROADMAP item 6).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.addressing import Address, distance
from repro.core.context import GossipContext
from repro.errors import SimulationError
from repro.interests.events import Event
from repro.net.process import AsyncProcess
from repro.net.transport import FairLossUdpTransport, UdpEndpointRegistry
from repro.obs.probes import Observer, fold_shorthands
from repro.obs.trace import TraceLog, dissemination_meta
from repro.sim.group import PmcastGroup, assemble_pmcast_report
from repro.sim.metrics import DisseminationReport
from repro.sim.rng import derive_rng

__all__ = ["UdpRunStats", "run_udp_dissemination"]

#: The quiescence window: a run ends after this many gossip periods
#: with no send, receive, or pending mailbox.
QUIET_PERIODS = 5


@dataclass(frozen=True)
class UdpRunStats:
    """Throughput-facing counters of one UDP run.

    ``events`` counts protocol events processed — timer fires, protocol
    sends, and drained receptions.  ``completed`` is True when the run
    quiesced on its own (no activity for the quiet window)
    rather than hitting the hard timeout.  ``undrained`` counts the
    received datagrams still queued in a mailbox when the run stopped
    (0 for a completed run), so ``datagrams_received == receptions +
    undrained``.  The last three fields sum the endpoints' dispositions
    of what never became a reception: datagrams that failed to decode,
    well-formed ones addressed to another member, and sends the kernel
    refused.
    """

    members: int
    elapsed_seconds: float
    timer_fires: int
    messages_sent: int
    messages_lost: int
    datagrams_received: int
    receptions: int
    completed: bool
    undrained: int = 0
    malformed_datagrams: int = 0
    misrouted_datagrams: int = 0
    wire_drops: int = 0

    @property
    def events(self) -> int:
        return self.timer_fires + self.messages_sent + self.receptions


def run_udp_dissemination(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    seed: int = 0,
    loss_probability: float = 0.0,
    period_s: float = 0.05,
    hard_timeout_s: float = 30.0,
    trace: Optional[TraceLog] = None,
    host: str = "127.0.0.1",
    observer: Optional[Observer] = None,
) -> Tuple[DisseminationReport, UdpRunStats]:
    """Multicast one event through live UDP processes; score the outcome.

    Args:
        group: the wired group; node state is borrowed like the engine
            borrows it.
        seed: derives every per-process RNG stream (gossip draws,
            software-loss draws, timer start offsets).
        loss_probability: software ε applied at send per transport —
            seeded, so the *loss model* is reproducible even though
            datagram timing is not.
        period_s: the gossip period P, real seconds; the run ends after
            :data:`QUIET_PERIODS` periods with no send, receive, or
            pending mailbox.
        hard_timeout_s: wall-clock cap; hitting it reports
            ``completed=False`` instead of hanging a test or bench.
        trace: shorthand for ``observer=Observer(trace=...)``
            (:func:`~repro.obs.probes.fold_shorthands`).
        observer: optional :class:`~repro.obs.probes.Observer`: the
            round-less event trace (``time_us`` ordered) goes to its
            trace destination, the run's counters to its registry
            (``net``).

    Returns:
        ``(report, stats)``.

    Raises:
        SimulationError: if ``publisher`` is not a live member — checked
            before any socket is bound, as the simulated drivers do.
    """
    if not group.node(publisher).alive:
        raise SimulationError(f"publisher {publisher} has crashed")
    observer = fold_shorthands(observer, trace)
    return asyncio.run(
        _run_udp(
            group, publisher, event, seed, loss_probability, period_s,
            hard_timeout_s, observer, host,
        )
    )


async def _run_udp(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    seed: int,
    loss_probability: float,
    period_s: float,
    hard_timeout_s: float,
    observer: Observer,
    host: str,
) -> Tuple[DisseminationReport, UdpRunStats]:
    loop = asyncio.get_running_loop()
    registry = UdpEndpointRegistry()
    addresses = group.addresses()
    interested = set(group.interested_members(event))
    sent_before = sum(node.messages_sent for node in group.nodes())
    receptions_before = sum(node.receptions for node in group.nodes())
    depth = group.tree.depth

    started_at = loop.time()

    def now_us() -> int:
        return int((loop.time() - started_at) * 1_000_000)

    emit = observer.emit if observer.tracing else None
    if emit is not None:
        observer.annotate(
            **dissemination_meta(
                "repro.net.udp",
                publisher,
                event.event_id,
                group.size,
                interested,
                seed,
            ),
            net={
                "transport": "udp",
                "period_us": int(period_s * 1_000_000),
                "loss_probability": loss_probability,
            },
        )

    def emit_envelope(kind, address, peer, envelope, stamp) -> None:
        emit(
            None, kind, address, peer=peer,
            event_id=envelope.message.event.event_id,
            depth=envelope.message.depth, time_us=stamp,
        )

    counters = {"timer_fires": 0, "messages_sent": 0, "receptions": 0}
    messages_by_distance = [0] * depth
    last_activity = [loop.time()]
    # One scan, then a running count kept where a drain first infects.
    infected = [sum(1 for node in group.nodes() if node.has_received(event))]
    # One match cache for the run; each process forks it around its own
    # stream (this one is never drawn from).
    match_cache = GossipContext(
        derive_rng(seed, "net-gossip"), threshold_h=group.config.threshold_h
    )
    transports: Dict[Address, FairLossUdpTransport] = {}
    processes: Dict[Address, AsyncProcess] = {}
    driving: Set[Address] = set()
    stopping = [False]

    def net_counters() -> Dict[str, int]:
        """The :class:`UdpRunStats` counters, as of now."""
        endpoints = transports.values()
        return {
            **counters,
            "messages_lost": sum(t.messages_lost for t in endpoints),
            "datagrams_received": sum(t.messages_received for t in endpoints),
            "undrained": sum(len(p.mailbox) for p in processes.values()),
            "malformed_datagrams": sum(
                t.malformed_datagrams for t in endpoints
            ),
            "misrouted_datagrams": sum(
                t.misrouted_datagrams for t in endpoints
            ),
            "wire_drops": sum(t.wire_drops for t in endpoints),
        }

    observer.registry.register_collector("net", net_counters)

    def materialise(address: Address) -> AsyncProcess:
        # A member costs a socket until its first datagram (or its
        # publish); every stream derives from (seed, label, address)
        # alone, so building them late cannot change a draw.
        name = str(address)
        transport = transports[address]
        transport.rng = derive_rng(seed, "net-loss", name)
        ctx = match_cache.fork(derive_rng(seed, "net-gossip", name))
        # Desynchronized start: real deployments' timers are not
        # phase-aligned, and neither is the localhost herd.
        offset_s = derive_rng(seed, "net-sched", name).random() * period_s
        process = processes[address] = AsyncProcess(
            group.node(address), ctx, transport, timer_offset_s=offset_s
        )
        return process

    def spawn(process: AsyncProcess) -> None:
        if not stopping[0] and process.address not in driving:
            driving.add(process.address)
            loop.call_later(process.timer_offset_s, fire, process)

    def on_receive(envelope) -> None:
        # Shared by every endpoint: a transport hands over only what is
        # addressed to itself, so the destination is the owner.
        address = envelope.destination
        process = processes.get(address) or materialise(address)
        process.deliver(envelope)
        last_activity[0] = loop.time()
        if emit is not None:
            emit_envelope(
                "recv", address, envelope.message.sender, envelope, now_us()
            )
        spawn(process)

    def fire(process: AsyncProcess) -> None:
        """One gossip-timer fire; re-arms itself while there is work."""
        if stopping[0]:
            return
        address, node = process.address, process.node
        received_before = node.has_received(event)
        delivered_before = node.has_delivered(event)
        drained = process.drain()
        if not received_before and node.has_received(event):
            infected[0] += 1
        sent = []
        if node.alive:
            process.timer_fires += 1
            counters["timer_fires"] += 1
            sent = node.gossip_step(process.ctx)
            for envelope in sent:
                hops = distance(envelope.message.sender, envelope.destination)
                messages_by_distance[max(hops, 1) - 1] += 1
                process.transport.send(envelope)
        if emit is not None:
            stamp = now_us()
            emit(
                None, "timer_fire", address,
                event_id=event.event_id, time_us=stamp,
            )
            for envelope in drained:
                emit_envelope(
                    "receive", address, envelope.message.sender, envelope, stamp
                )
            if not delivered_before and node.has_delivered(event):
                emit(
                    None, "deliver", address,
                    event_id=event.event_id, time_us=stamp,
                )
            for envelope in sent:
                emit_envelope(
                    "send", address, envelope.destination, envelope, stamp
                )
        if drained:
            counters["receptions"] += len(drained)
        if sent:
            counters["messages_sent"] += len(sent)
            last_activity[0] = loop.time()
        if process.has_work:
            loop.call_later(period_s, fire, process)
        else:
            driving.discard(address)

    infection_curve: List[int] = []
    completed = False
    try:
        # Every member must be reachable before the first gossip, so
        # every socket is bound up front — inside the guarded region: a
        # bind that fails at member k still closes the k - 1 before it.
        for address in addresses:
            transports[address] = await FairLossUdpTransport.create(
                address, registry, on_receive,
                loss_probability=loss_probability, host=host,
            )

        # PMCAST: seed the publisher's buffers and start its timer.
        origin_process = materialise(publisher)
        origin_process.node.pmcast(event, origin_process.ctx)
        infected[0] += 1
        if emit is not None:
            emit(None, "publish", publisher, event_id=event.event_id, time_us=0)
            if origin_process.node.has_delivered(event):
                emit(
                    None, "deliver", publisher,
                    event_id=event.event_id, time_us=0,
                )
        spawn(origin_process)

        while loop.time() - started_at < hard_timeout_s:
            await asyncio.sleep(period_s)
            infection_curve.append(infected[0])
            quiet = loop.time() - last_activity[0]
            if not driving and quiet >= QUIET_PERIODS * period_s:
                completed = True
                break
    finally:
        # A timer callback still pending sees the flag and does nothing.
        stopping[0] = True
        for transport in transports.values():
            transport.close()

    elapsed = loop.time() - started_at
    totals = net_counters()
    # The live collector holds every endpoint; its last reading, none.
    observer.registry.register_collector("net", totals.copy)
    rounds = len(infection_curve)
    observer.annotate(rounds=rounds)
    report = assemble_pmcast_report(
        group,
        publisher,
        event,
        interested,
        infected[0],
        rounds,
        tuple(infection_curve),
        tuple(messages_by_distance),
        totals["messages_lost"],
        crashed=0,
        sent_before=sent_before,
        receptions_before=receptions_before,
    )
    stats = UdpRunStats(
        members=group.size,
        elapsed_seconds=elapsed,
        completed=completed,
        **totals,
    )
    return report, stats
