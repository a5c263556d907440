"""One event-driven process: protocol logic behind a mailbox.

The component layering of reliable-distributed-programming kernels:
the protocol state machine (:class:`~repro.core.node.PmcastNode`)
never touches a socket or a clock.  An :class:`AsyncProcess` wraps it
with a mailbox and two event-driven entry points:

* :meth:`deliver` — the transport's receive callback appends an
  envelope to the per-process mailbox (no protocol work on the I/O
  path);
* :meth:`drain` — apply the mailbox through ``node.receive``.

A gossip-timer fire is the driver's: the UDP runtime
(:mod:`repro.net.udp`) drains, then calls ``node.gossip_step`` itself
and hands the fan-out to :attr:`transport`, because it traces and
counts between the two.  The class is sans-io on purpose: event-loop
callbacks drive it — the runtime builds one only when a member's first
datagram (or its publish) arrives — and the protocol logic stays
byte-for-byte the code the round engine runs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.addressing import Address
from repro.core.context import GossipContext
from repro.core.messages import Envelope
from repro.core.node import PmcastNode
from repro.net.transport import Transport

__all__ = ["AsyncProcess"]


class AsyncProcess:
    """A :class:`PmcastNode` driven by mailbox and timer events.

    Args:
        node: the protocol state machine, wired for this run
            (:meth:`~repro.sim.group.PmcastGroup.node`).
        ctx: this process's gossip context — event-driven processes do
            not share an RNG stream, each draws from its own (the match
            cache behind it may be a run-wide one:
            :meth:`~repro.core.context.GossipContext.fork`).
        transport: where the driver sends a timer fire's fan-out.
        timer_offset_s: the seeded phase of its gossip timer — the wait
            between (re)starting the timer and its first fire.
    """

    __slots__ = (
        "node", "ctx", "transport", "timer_offset_s", "mailbox",
        "timer_fires", "drained",
    )

    def __init__(
        self,
        node: PmcastNode,
        ctx: GossipContext,
        transport: Transport,
        timer_offset_s: float = 0.0,
    ):
        self.node = node
        self.ctx = ctx
        self.transport = transport
        self.timer_offset_s = timer_offset_s
        self.mailbox: Deque[Envelope] = deque()
        self.timer_fires = 0
        self.drained = 0

    @property
    def address(self) -> Address:
        return self.node.address

    @property
    def has_work(self) -> bool:
        """Whether a timer fire would do anything: pending receptions
        or a non-empty gossip buffer."""
        return bool(self.mailbox) or (self.node.alive and not self.node.is_idle)

    def deliver(self, envelope: Envelope) -> None:
        """Transport receive callback: enqueue, never run protocol."""
        self.mailbox.append(envelope)

    def drain(self) -> List[Envelope]:
        """Apply every queued envelope, in arrival order.

        Returns the drained envelopes so the driver can emit per-record
        observability without re-decoding anything.
        """
        drained: List[Envelope] = []
        while self.mailbox:
            envelope = self.mailbox.popleft()
            self.node.receive(envelope.message, self.ctx)
            drained.append(envelope)
        self.drained += len(drained)
        return drained

    def __repr__(self) -> str:
        return (
            f"AsyncProcess({self.address}, mailbox={len(self.mailbox)}, "
            f"fires={self.timer_fires})"
        )
