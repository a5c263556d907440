"""Fair-loss transports: the seam between protocol logic and the wire.

The paper's model assumes *fair-loss* point-to-point links: a message
is delivered at most once, is never fabricated, and is dropped
independently with probability ε.  Both execution styles implement the
same :class:`Transport` contract:

* :class:`SimTransport` — deterministic in-process delivery driven by a
  :class:`~repro.net.clock.VirtualClock`.  Sends are *batched by flush
  instant*: every envelope sent at virtual time t is queued until
  ``t + latency_us``; the runtime then takes the batch and pushes it
  through the run's link — the seeded
  :class:`~repro.sim.network.LossyNetwork`, or the fault plan wrapping
  it — **in send order** (``link.transmit(transport.take(t))``).
  Because the round-synchronous engine transmits each round's fan-out
  as one ordered batch, a zero-jitter schedule makes the flush batch
  equal the engine's round batch — same loss draws, in the same RNG
  order, hence bit-identical outcomes (docs/NETWORK.md).
* :class:`FairLossUdpTransport` — real datagrams over a plain
  non-blocking UDP socket on localhost, read through the event loop's
  ``add_reader``.  UDP *is* a fair-loss link; an optional software ε
  adds seeded drops on top so loss-model tests do not depend on kernel
  buffer pressure.  Wire format: one JSON object per datagram carrying
  the Figure 3 tuple (:mod:`repro.core.codec`).

Neither transport ever duplicates or forges an envelope — the property
suite (tests/net/test_properties.py) pins ``delivered ⊆ sent`` and
exactly-once handoff per sent envelope.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
from abc import ABC, abstractmethod
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable, Dict, List, Optional, Tuple

from repro.addressing import Address
from repro.core.codec import decode_event, encode_event
from repro.core.messages import Envelope, GossipMessage
from repro.errors import NetError
from repro.interests.events import Event
from repro.net.clock import PRIORITY_FLUSH, VirtualClock
from repro.sim.network import LossyNetwork

__all__ = [
    "Transport",
    "SimTransport",
    "UdpEndpointRegistry",
    "FairLossUdpTransport",
    "encode_envelope",
    "decode_envelope",
]


class Transport(ABC):
    """A fair-loss point-to-point message transport."""

    @abstractmethod
    def send(self, envelope: Envelope) -> None:
        """Queue one envelope for delivery (may be dropped per ε)."""


class SimTransport(Transport):
    """Deterministic virtual-clock transport over the seeded ε model.

    Args:
        clock: the runtime's virtual clock; flush events are scheduled
            on it with :data:`~repro.net.clock.PRIORITY_FLUSH`.
        network: the run's link (the seeded loss model, or the fault
            plan wrapping it) — read for the sent/lost tallies only;
            the runtime hands it each batch it takes.
        latency_us: wire latency; the model requires it strictly below
            the gossip period (everything sent in a round arrives in
            that round), which the runtime validates.
    """

    def __init__(
        self,
        clock: VirtualClock,
        network: LossyNetwork,
        latency_us: int,
    ):
        if latency_us < 1:
            raise NetError(f"latency_us {latency_us} must be >= 1")
        self._clock = clock
        self._network = network
        self._latency_us = int(latency_us)
        self._batches: Dict[int, List[Envelope]] = {}

    @property
    def in_flight(self) -> bool:
        """Whether any flush batch is still pending on the clock."""
        return bool(self._batches)

    def send(self, envelope: Envelope) -> None:
        """Queue ``envelope`` for the flush at ``now + latency``.

        All envelopes sent at one instant share a flush batch, in send
        order — the invariant that keeps loss draws aligned with the
        round engine.
        """
        self.ensure_flush(self._clock.now_us + self._latency_us).append(
            envelope
        )

    def ensure_flush(self, flush_time_us: int) -> List[Envelope]:
        """The (possibly empty) batch flushing at ``flush_time_us``.

        Creating a batch schedules its flush event.  The runtime also
        calls this with no sends pending while the link holds delayed
        envelopes: the engine transmits every round even on an empty
        fan-out, and the empty flush reproduces that.
        """
        batch = self._batches.get(flush_time_us)
        if batch is None:
            batch = self._batches[flush_time_us] = []
            self._clock.schedule(
                flush_time_us, PRIORITY_FLUSH, ("flush", flush_time_us)
            )
        return batch

    def take(self, flush_time_us: int) -> List[Envelope]:
        """Detach and return the batch for a popped flush event."""
        batch = self._batches.pop(flush_time_us, None)
        if batch is None:
            raise NetError(f"no batch pending at t={flush_time_us}us")
        return batch


def _event_json(event: Event) -> str:
    return json.dumps(encode_event(event), sort_keys=True)


def _splice(envelope: Envelope, event_json: str) -> bytes:
    """The datagram around an already serialised event sub-object.

    Byte for byte ``json.dumps({"to": ..., "msg": encode_message(...)},
    sort_keys=True)``: keys in sorted order, default separators, the
    address strings JSON-escaped, the numbers as ``json`` writes them.
    """
    message = envelope.message
    rate = message.rate
    return (
        '{"msg": {"depth": %d, "event": %s, "rate": %s, "round": %d, '
        '"sender": %s}, "to": %s}'
        % (
            message.depth,
            event_json,
            float.__repr__(rate) if type(rate) is float else json.dumps(rate),
            message.round,
            _json_string(str(message.sender)),
            _json_string(str(envelope.destination)),
        )
    ).encode("ascii")


def encode_envelope(envelope: Envelope) -> bytes:
    """One envelope as one UDP datagram payload."""
    return _splice(envelope, _event_json(envelope.message.event))


#: Dotted string -> validated address.  Every datagram names two of at
#: most n members, and a string validated once stays valid, so the wire
#: path parses each at most once; bounded, because the strings come off
#: the wire.
_parse_address = lru_cache(maxsize=1 << 16)(Address.parse)


def decode_envelope(data: bytes) -> Envelope:
    """Inverse of :func:`encode_envelope`.

    The message is :func:`repro.core.codec.decode_message`'s, built here
    so both addresses go through the memoised parser.

    Raises:
        NetError: on any malformed datagram — a deployment runtime must
            reject garbage off the wire, not crash on it.
    """
    try:
        wire = json.loads(data.decode("utf-8"))
        msg = wire["msg"]
        return Envelope(
            destination=_parse_address(wire["to"]),
            message=GossipMessage(
                event=decode_event(msg["event"]),
                rate=msg["rate"],
                round=msg["round"],
                depth=msg["depth"],
                sender=_parse_address(msg["sender"]),
            ),
        )
    except Exception as exc:
        raise NetError(f"malformed datagram: {exc}") from exc


class UdpEndpointRegistry:
    """The shared ``Address -> (host, port)`` resolver for one UDP run.

    Real deployments would resolve through membership metadata; on
    localhost every process registers its ephemeral port here at bind
    time.
    """

    def __init__(self) -> None:
        self._endpoints: Dict[Address, Tuple[str, int]] = {}
        # event id -> its serialised sub-object.  Per run, never per
        # process: an id names one event only within a run (the
        # protocol's own dedup rule), and a later run may reuse it.
        self._event_json: Dict[int, str] = {}

    def encode(self, envelope: Envelope) -> bytes:
        """:func:`encode_envelope`, serialising each event of the run
        once: every datagram of a dissemination carries the same event,
        so only the five fields around it are formatted per send."""
        event = envelope.message.event
        event_json = self._event_json.get(event.event_id)
        if event_json is None:
            event_json = self._event_json[event.event_id] = _event_json(event)
        return _splice(envelope, event_json)

    def register(self, address: Address, host: str, port: int) -> None:
        self._endpoints[address] = (host, port)

    def resolve(self, address: Address) -> Tuple[str, int]:
        try:
            return self._endpoints[address]
        except KeyError:
            raise NetError(f"no UDP endpoint registered for {address}")


class FairLossUdpTransport(Transport):
    """One process's UDP endpoint: real datagrams on localhost.

    Built with :meth:`create` (binds an ephemeral port, registers it and
    adds the socket to the running loop's readers).  ``on_receive`` is
    invoked on the event loop for every well-formed envelope addressed
    to this endpoint.  Anything else ends in exactly one counted
    disposition and is dropped, never raised into the loop:
    ``malformed_datagrams`` failed to decode, ``misrouted_datagrams``
    were well-formed envelopes for another process (this mailbox is not
    theirs), and ``wire_drops`` are sends the kernel refused on a full
    buffer — a fair-loss link losing a message, outside the model's ε.
    ``messages_received`` counts what reached ``on_receive``.

    Args:
        loss_probability: software ε applied at *send* with a seeded
            per-transport RNG — deterministic fair-loss injection on
            top of whatever the kernel does.
        rng: that stream.  It is first drawn from at the first
            :meth:`send`, so an owner may leave it out and assign
            :attr:`rng` later: an endpoint that never sends never pays
            for one.  A lossy endpoint still without one at that send
            raises :class:`~repro.errors.NetError`.
    """

    __slots__ = (
        "address", "rng", "messages_received", "malformed_datagrams",
        "misrouted_datagrams", "wire_drops", "_registry", "_on_receive",
        "_loss_probability", "_loop", "_sock", "_sent", "_lost",
    )

    def __init__(
        self,
        address: Address,
        registry: UdpEndpointRegistry,
        on_receive: Callable[[Envelope], None],
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if not 0.0 <= loss_probability < 1.0:
            raise NetError(
                f"loss probability {loss_probability} not in [0, 1)"
            )
        self.address = address
        self.rng = rng
        self._registry = registry
        self._on_receive = on_receive
        self._loss_probability = loss_probability
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._sock: Optional[socket.socket] = None
        self._sent = self._lost = self.messages_received = 0
        self.malformed_datagrams = self.misrouted_datagrams = 0
        self.wire_drops = 0

    @classmethod
    async def create(
        cls,
        address: Address,
        registry: UdpEndpointRegistry,
        on_receive: Callable[[Envelope], None],
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        host: str = "127.0.0.1",
    ) -> "FairLossUdpTransport":
        """Bind an ephemeral UDP port, register it, start reading."""
        transport = cls(address, registry, on_receive, loss_probability, rng)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind((host, 0))
            sock_host, sock_port = sock.getsockname()[:2]
            transport._loop = asyncio.get_running_loop()
            transport._loop.add_reader(sock.fileno(), transport._on_readable)
        except BaseException:
            sock.close()
            raise
        transport._sock = sock
        registry.register(address, sock_host, sock_port)
        return transport

    @property
    def messages_lost(self) -> int:
        return self._lost

    def send(self, envelope: Envelope) -> None:
        if self._sock is None:
            raise NetError(f"transport for {self.address} is not open")
        lossy = self._loss_probability > 0.0
        if lossy and self.rng is None:
            # Never a default stream: every endpoint left without one
            # would replay the same loss sequence.
            raise NetError(
                f"lossy transport for {self.address} has no loss stream: "
                "pass rng= or assign .rng before the first send"
            )
        self._sent += 1
        if lossy and self.rng.random() < self._loss_probability:
            self._lost += 1
            return
        try:
            self._sock.sendto(
                self._registry.encode(envelope),
                self._registry.resolve(envelope.destination),
            )
        except BlockingIOError:
            self.wire_drops += 1

    def _on_readable(self) -> None:
        # One datagram per readiness event, like asyncio's own endpoint
        # (a level-triggered selector reports the rest on the next
        # pass); 64 KiB holds any UDP payload, so nothing is truncated.
        try:
            data = self._sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        try:
            envelope = decode_envelope(data)
        except NetError:
            self.malformed_datagrams += 1
            return
        if envelope.destination != self.address:
            self.misrouted_datagrams += 1
            return
        self.messages_received += 1
        self._on_receive(envelope)

    def close(self) -> None:
        """Remove the reader and close the socket (idempotent)."""
        if self._sock is not None:
            self._loop.remove_reader(self._sock.fileno())
            self._sock.close()
            self._sock = None
