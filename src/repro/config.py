"""Protocol and simulation parameter sets.

:class:`PmcastConfig` gathers every knob of the pmcast algorithm
(Figure 3 plus the §5.3 tuning and the §6 extensions);
:class:`SimConfig` gathers the environmental parameters of the analysis
model (§4.1): message-loss probability ε, crash probability τ = f/n,
and the experiment bookkeeping (seed, round caps).

Both are frozen dataclasses: a configuration is a value, shared freely
between the nodes of a group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError

__all__ = ["PmcastConfig", "SimConfig"]


@dataclass(frozen=True)
class PmcastConfig:
    """Parameters of the pmcast algorithm.

    Attributes:
        fanout: the gossip fanout ``F`` (Figure 3) — how many
            destinations each infected process draws per round.
        redundancy: the delegate redundancy factor ``R`` (§2.2).
        period_ms: the gossip period ``P`` in milliseconds.  The
            round-based simulator treats one round as one period; the
            value is carried for documentation and latency reporting.
        pittel_c: the additive constant ``c`` of Pittel's asymptote
            (Eq 3).  The paper chooses conservative values; 0 reproduces
            the small-``p_d`` degradation of Figure 4.
        threshold_h: the §5.3 tuning threshold ``h``.  When fewer than
            ``h`` entries of a view are interested in an event, the
            first ``h`` entries of the view are treated as interested
            too.  0 disables the tuning (the "Original" curve).
        loss_aware_rounds: when True, the round bound uses the
            loss-adjusted ``T_f`` of Eq 11 instead of plain ``T``; this
            requires nodes to know (conservative estimates of) ε and τ,
            as §3.3 suggests for environmental parameters.
        assumed_loss: the ε estimate used when ``loss_aware_rounds``.
        assumed_crash: the τ estimate used when ``loss_aware_rounds``.
        min_rounds_per_depth: a floor on the per-depth round bound —
            one of the §5.3 remedies is simply never gossiping fewer
            than a couple of rounds.  0 keeps the raw Figure 3 bound.
        max_rounds_per_depth: a safety cap on the per-depth round
            bound (passive garbage collection has to terminate even on
            adversarial inputs).
        local_interest_shortcut: §3.2's note — at multicast time, skip
            root depths where the only interested subtree is the
            sender's own, passing the event immediately to the next
            depth.
        leaf_flood_threshold: §6 extension 1 — at depth ``d``, if the
            matching rate reaches this threshold, flood the leaf
            subgroup (send to every interested neighbor once) instead
            of random gossip.  A value > 1 disables flooding.
    """

    fanout: int = 2
    redundancy: int = 3
    period_ms: int = 100
    pittel_c: float = 0.0
    threshold_h: int = 0
    loss_aware_rounds: bool = False
    assumed_loss: float = 0.0
    assumed_crash: float = 0.0
    min_rounds_per_depth: int = 0
    max_rounds_per_depth: int = 64
    local_interest_shortcut: bool = False
    leaf_flood_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ConfigError(f"fanout F={self.fanout} must be >= 1")
        if self.redundancy < 1:
            raise ConfigError(f"redundancy R={self.redundancy} must be >= 1")
        if self.period_ms < 1:
            raise ConfigError(f"period {self.period_ms}ms must be >= 1")
        if self.threshold_h < 0:
            raise ConfigError(f"threshold h={self.threshold_h} must be >= 0")
        if not 0.0 <= self.assumed_loss < 1.0:
            raise ConfigError(f"assumed_loss {self.assumed_loss} not in [0, 1)")
        if not 0.0 <= self.assumed_crash < 1.0:
            raise ConfigError(f"assumed_crash {self.assumed_crash} not in [0, 1)")
        if self.min_rounds_per_depth < 0:
            raise ConfigError("min_rounds_per_depth must be >= 0")
        if self.max_rounds_per_depth < 1:
            raise ConfigError("max_rounds_per_depth must be >= 1")
        if self.min_rounds_per_depth > self.max_rounds_per_depth:
            raise ConfigError(
                "min_rounds_per_depth exceeds max_rounds_per_depth"
            )
        if self.leaf_flood_threshold < 0:
            raise ConfigError("leaf_flood_threshold must be >= 0")

    def tuned(self, threshold_h: int) -> "PmcastConfig":
        """A copy with the §5.3 tuning threshold set."""
        return replace(self, threshold_h=threshold_h)


@dataclass(frozen=True)
class SimConfig:
    """Environmental parameters of the analysis model (§4.1).

    Attributes:
        loss_probability: ε — each message is independently lost with
            this probability.
        crash_fraction: τ = f/n — the fraction of processes that crash
            during the run (each process crashes independently at a
            uniformly random round of the run).
        seed: master seed for all randomness of a run.
        max_rounds: hard stop for the simulation loop.
        vectorized: ``True`` (the default) runs
            :func:`~repro.sim.engine.run_dissemination` on the array
            kernel (:mod:`repro.sim.vector`), fault plan or not,
            bit-identical to the scalar loop in report, trace records
            and outcome.  ``False`` means only "the reference loop":
            what the equivalence tests compare the kernel against.
    """

    loss_probability: float = 0.0
    crash_fraction: float = 0.0
    seed: int = 0
    max_rounds: int = 512
    vectorized: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigError(
                f"loss probability {self.loss_probability} not in [0, 1)"
            )
        if not 0.0 <= self.crash_fraction < 1.0:
            raise ConfigError(
                f"crash fraction {self.crash_fraction} not in [0, 1)"
            )
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds {self.max_rounds} must be >= 1")
