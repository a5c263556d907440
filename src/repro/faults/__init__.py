"""Deterministic, scripted fault injection (beyond the §4.1 model).

:class:`FaultPlan` scripts an episode of structured failures — loss
bursts, partitions between subtrees, delay/reorder windows, targeted
and delegate/depth-targeted crashes — as pure, serializable data;
:class:`FaultInjector` replays it as the *link* of
:func:`repro.sim.engine.run_dissemination` (``faults=``) or a
:class:`repro.sim.runtime.GroupRuntime` (``fault_plan=``) — it wraps
the run's :class:`~repro.sim.network.LossyNetwork` and presents its
shape, so drivers call one ``begin_round`` / ``transmit`` either way —
from a dedicated RNG stream, emitting every injected fault as a
``repro.obs.trace/v1`` record.  See ``docs/VALIDATION.md``.
"""

from repro.faults.injector import (
    FAULT_LOSS_BURST,
    FAULT_LOSS_PARTITION,
    FaultInjector,
)
from repro.faults.plan import (
    FAULT_SCHEMA,
    DelayWindow,
    DelegateCrash,
    DepthCrash,
    FaultPlan,
    LossBurst,
    Partition,
    TargetedCrash,
)

__all__ = [
    "FAULT_SCHEMA",
    "FAULT_LOSS_BURST",
    "FAULT_LOSS_PARTITION",
    "FaultPlan",
    "FaultInjector",
    "LossBurst",
    "Partition",
    "DelayWindow",
    "TargetedCrash",
    "DelegateCrash",
    "DepthCrash",
]
