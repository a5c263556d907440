"""Equation → oracle adapters: the *prediction* side of conformance.

Each function wraps one analytical model from :mod:`repro.analysis`
into the exact quantity the harness measures empirically, so every
check in a :class:`~repro.validate.harness.ValidationReport` names the
paper equation it pins:

========================  =============================================
oracle                    paper equations
========================  =============================================
flat_infection            Eqs 8–10 (reach probability, transition
                          matrix, state distribution — ``E[s_t]``)
saturation_rounds         Eq 11 (Pittel's log n + log log n with loss
                          and crashes folded in)
tree_delivery             Eqs 12–18 (per-depth views, rounds, entity
                          distributions, reliability degree)
tree_false_reception      Eqs 16–17 (infected-entity counts) feeding
                          the DESIGN.md false-reception estimate
========================  =============================================
"""

from __future__ import annotations

from repro.analysis.markov import expected_infected
from repro.analysis.reliability import (
    delivery_probability,
    false_reception_estimate,
)
from repro.core.rounds import loss_adjusted_rounds

__all__ = [
    "EQUATIONS",
    "flat_infection_prediction",
    "saturation_rounds_prediction",
    "tree_delivery_prediction",
    "tree_false_reception_prediction",
]

#: check family -> the paper equations its oracle implements.
EQUATIONS = {
    "flat_infection": "Eqs 8-10",
    "saturation_rounds": "Eq 11",
    "tree_delivery": "Eqs 12-18",
    "tree_false_reception": "Eqs 16-17",
    "fault_plane": "deterministic",
    # The dissemination-variant ablations have no closed-form oracle in
    # the paper; their conformance bands compare against the paired pure
    # push baseline run on the same seed (docs/VALIDATION.md §variants).
    "variant_lazy_pull": "paired vs push",
    "variant_bounded_view": "paired vs push",
}


def flat_infection_prediction(
    n: int,
    fanout: float,
    rounds: int,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
) -> float:
    """``E[s_t]``: expected infected after ``rounds`` rounds (Eqs 8–10)."""
    return expected_infected(
        n, fanout, rounds, loss_probability, crash_fraction
    )


def saturation_rounds_prediction(
    n: int,
    fanout: float,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
    c: float = 0.0,
) -> float:
    """Eq 11: expected rounds to saturate ``n`` processes under (ε, τ)."""
    return loss_adjusted_rounds(
        n, fanout, loss_probability, crash_fraction, c
    )


def tree_delivery_prediction(
    matching_rate: float,
    arity: int,
    depth: int,
    redundancy: int,
    fanout: int,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
) -> float:
    """Eq 18's reliability degree: P[an interested process delivers]."""
    return delivery_probability(
        matching_rate,
        arity,
        depth,
        redundancy,
        fanout,
        loss_probability,
        crash_fraction,
    )


def tree_false_reception_prediction(
    matching_rate: float,
    arity: int,
    depth: int,
    redundancy: int,
    fanout: int,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
) -> float:
    """P[an uninterested process receives] from the Eqs 16–17 counts."""
    return false_reception_estimate(
        matching_rate,
        arity,
        depth,
        redundancy,
        fanout,
        loss_probability,
        crash_fraction,
    )
