"""Round-synchronous simulation of pmcast groups (§4.1, §5).

Build a :class:`PmcastGroup` over an interest assignment from
:mod:`~repro.sim.workload`, then measure a dissemination with
:func:`run_dissemination` under a :class:`LossyNetwork` and a
:class:`CrashSchedule` (:func:`run_dissemination_outcome` returns the
run's per-member :class:`RunOutcome` with the report).
"""

from repro.obs.trace import TraceLog, TraceRecord
from repro.sim.churn import ChurnEvent, ChurnSchedule, poisson_churn, run_with_churn
from repro.sim.crashes import CrashSchedule
from repro.sim.engine import run_dissemination, run_dissemination_outcome
from repro.sim.group import PmcastGroup, RunOutcome
from repro.sim.metrics import DisseminationReport
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_rng, derive_seed
from repro.sim.runtime import GroupRuntime
from repro.sim.vector import (
    RegularTreeSpec,
    TreeState,
    VectorUnsupported,
    try_run_vectorized,
)
from repro.sim.workload import (
    bernoulli_interests,
    random_event,
    random_subscriptions,
)

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "poisson_churn",
    "run_with_churn",
    "CrashSchedule",
    "run_dissemination",
    "run_dissemination_outcome",
    "PmcastGroup",
    "RunOutcome",
    "DisseminationReport",
    "LossyNetwork",
    "GroupRuntime",
    "TraceLog",
    "TraceRecord",
    "RegularTreeSpec",
    "TreeState",
    "VectorUnsupported",
    "try_run_vectorized",
    "derive_rng",
    "derive_seed",
    "bernoulli_interests",
    "random_event",
    "random_subscriptions",
]
