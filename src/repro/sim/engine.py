"""The round-synchronous simulation engine (§4.1, §5).

"The stochastic analysis [...] is based on the assumption that
processes gossip in synchronous rounds, and there is an upper bound on
the network latency which is smaller than a gossip period P."

One round therefore is: (1) crash the processes scheduled to crash,
(2) every live process fires its GOSSIP task (over the buffer state
left by the previous round's receptions), (3) the lossy network drops
each envelope independently with probability ε, (4) survivors are
received.  The run ends when every node is idle (passive garbage
collection emptied all buffers) or at the ``max_rounds`` safety cap.

Two loops implement that round.  :func:`run_dissemination` runs it on
the array kernel (:func:`repro.sim.vector.try_run_vectorized`, the
live round's :class:`~repro.sim.vector.LiveRound` over one event),
fault plan or not; ``SimConfig(vectorized=False)`` selects the scalar
reference loop (:func:`repro.variants.base.run_variant`) so a test can
diff them.  Both start from the group's wiring alone and return the
run's outcome (:class:`~repro.sim.group.RunOutcome`) with its report,
and the two are bit-identical on every run — report, trace records,
outcome.

Either loop is observed through the one
:class:`~repro.obs.probes.Observer` the run is handed (trace
destination, sampler, timeline, registry); ``trace=`` and ``timeline=`` are
shorthands folded into it on the first line.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.addressing import Address
from repro.config import SimConfig
from repro.faults.plan import FaultPlan
from repro.interests.events import Event
from repro.obs.probes import NULL_OBSERVER, Observer, fold_shorthands
from repro.obs.timeline import TimelineRecorder
from repro.obs.trace import TraceLog
from repro.sim.crashes import CrashSchedule
from repro.sim.group import PmcastGroup, RunOutcome
from repro.sim.metrics import DisseminationReport
from repro.sim.vector import try_run_vectorized

__all__ = ["run_dissemination", "run_dissemination_outcome"]


def run_dissemination(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    sim_config: Optional[SimConfig] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    trace: Optional[TraceLog] = None,
    faults: Optional[FaultPlan] = None,
    observer: Optional[Observer] = None,
    timeline: Optional[TimelineRecorder] = None,
) -> DisseminationReport:
    """Multicast one event through the group and measure the outcome.

    Args:
        group: the wired group (see :class:`~repro.sim.group.PmcastGroup`).
        publisher: the PMCAST-ing process.
        event: the event to multicast.
        sim_config: environment (loss ε, crash τ, seed, round cap);
            ``vectorized=False`` forces the reference loop.
        crash_schedule: explicit crash plan; when omitted, one is
            sampled from ``sim_config.crash_fraction`` over a horizon of
            ``max_rounds`` (the analysis model's τ).
        trace: shorthand for ``observer=Observer(trace=...)``
            (:func:`~repro.obs.probes.fold_shorthands`).
        faults: optional :class:`~repro.faults.plan.FaultPlan`; the
            run's link then replays it (:mod:`repro.faults`) over its
            own RNG stream (label ``"faults"``), so a faulted run with
            the same seed leaves the gossip/network/crash draws — and
            therefore every unfaulted result — untouched.  Injected
            faults appear in the trace as ``fault_*`` records.
        observer: optional :class:`~repro.obs.probes.Observer`.  Its
            trace destination receives one record per publish/send/loss/
            receive/delivery/crash — all of them, or the subset its
            sampler keeps (never a ``fault_*`` record:
            :func:`repro.obs.sampling.is_exact`) — under a header
            (publisher, interest ground truth, final round count) from
            which ``python -m repro.obs summarize`` reproduces this
            function's report.  Its timeline receives per-round
            ``engine`` ``fan_out``/``exchange`` spans from either loop;
            its registry the kernel's ``vector.*`` counters.
            Observation draws no randomness: the report is the same
            observed or not.
        timeline: shorthand for ``observer=Observer(timeline=...)``.

    Returns:
        the :class:`~repro.sim.metrics.DisseminationReport` of the run.
    """
    return run_dissemination_outcome(
        group, publisher, event, sim_config, crash_schedule, faults,
        fold_shorthands(observer, trace, timeline),
    )[0]


def run_dissemination_outcome(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    sim_config: Optional[SimConfig] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    faults: Optional[FaultPlan] = None,
    observer: Observer = NULL_OBSERVER,
) -> Tuple[DisseminationReport, RunOutcome]:
    """:func:`run_dissemination`, returning the run's outcome too: who
    is alive, received, delivered, what each member sent and received,
    and what it still buffers, as columns over ``group.addresses()``."""
    sim_config = sim_config or SimConfig()
    # Imported here: repro.variants itself imports from repro.sim.
    from repro.variants.base import run_variant
    from repro.variants.pmcast import PmcastVariant, prepare_pmcast_run

    emit = observer.emit if observer.tracing else None
    link, crash_schedule, ctx = prepare_pmcast_run(
        group, publisher, event, sim_config, crash_schedule, emit, faults,
    )

    if sim_config.vectorized:
        # The array kernel consumes the same RNG streams in the same
        # order — and emits the same trace records — so its run is
        # bit-identical to the reference loop below.
        return try_run_vectorized(
            group, publisher, event, sim_config, ctx, link, crash_schedule, observer,
        )

    # The reference loop is the pmcast dissemination strategy running
    # on the shared round driver (the strategy seam extracted from this
    # very loop — see repro.variants.base).  PmcastVariant is an exact
    # port: same insertion-ordered active set, same RNG draw order,
    # same trace records, bit-identical reports.
    variant = PmcastVariant(group, publisher, event, ctx, sim_config)
    report = run_variant(variant, sim_config, link, crash_schedule, observer)
    return report, variant.outcome
