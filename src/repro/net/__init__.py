"""The network plane: event-driven runtimes behind a transport seam.

Two execution styles for the same untouched protocol logic
(:mod:`repro.core` + :mod:`repro.membership`):

* :func:`repro.net.runtime.run_sim_dissemination` — deterministic
  discrete-event simulation on a :class:`~repro.net.clock.VirtualClock`
  over :class:`~repro.net.transport.SimTransport`; bit-identical to
  the round-synchronous engine under the zero-jitter schedule, and a
  jitter/straggler laboratory beyond it.
* :func:`repro.net.udp.run_udp_dissemination` — real UDP datagrams on
  localhost under one asyncio loop: one socket per member, one
  :class:`~repro.net.process.AsyncProcess` per member a datagram reached
  (the ledger's ``udp_live`` workload and the integration tests).

The scheduler seam (:mod:`repro.net.scheduler`) is shared with the
round loop: ``GroupRuntime(..., schedule=...)`` accepts the same
objects.  See docs/NETWORK.md for the transport contract and the
determinism rules.
"""

from repro.net.clock import VirtualClock
from repro.net.process import AsyncProcess
from repro.net.runtime import run_sim_dissemination
from repro.net.scheduler import (
    JitteredSchedule,
    RoundSchedule,
    Schedule,
    StragglerSchedule,
)
from repro.net.transport import (
    FairLossUdpTransport,
    SimTransport,
    Transport,
    UdpEndpointRegistry,
)
from repro.net.udp import UdpRunStats, run_udp_dissemination

__all__ = [
    "VirtualClock",
    "AsyncProcess",
    "run_sim_dissemination",
    "Schedule",
    "RoundSchedule",
    "JitteredSchedule",
    "StragglerSchedule",
    "Transport",
    "SimTransport",
    "FairLossUdpTransport",
    "UdpEndpointRegistry",
    "UdpRunStats",
    "run_udp_dissemination",
]
