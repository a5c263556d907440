"""Parameter selection from the analysis (paper §3.3 and §5.3).

"Like in most gossip-based algorithms, where simulations or analytical
expressions enable the computing of 'reasonable' values for parameters
[...] choosing conservative values is the best way of ensuring a good
performance."  And for the tuning threshold: "By fixing a lower bound
on the desired reliability degree, h can be obtained through analysis
or simulation."

:func:`recommend_parameters` performs that computation: given the group
shape (a, d, R), the environment (ε, τ) and a target reliability over a
set of matching rates, it searches the §4 analytical model for the
cheapest ``(F, h, c)`` meeting the target, and returns a ready-to-use
:class:`~repro.config.PmcastConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.reliability import delivery_probability
from repro.config import PmcastConfig
from repro.errors import ConfigError

__all__ = ["Recommendation", "recommend_parameters"]


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict for one target.

    Attributes:
        config: the recommended protocol parameters.
        predicted_delivery: matching rate -> the model's delivery
            probability under ``config``.
        achieved: True when every rate meets the target; False when the
            search space was exhausted and ``config`` is simply the
            most conservative candidate examined.
    """

    config: PmcastConfig
    predicted_delivery: Dict[float, float]
    achieved: bool

    @property
    def worst_case(self) -> float:
        """The lowest predicted delivery across the requested rates."""
        return min(self.predicted_delivery.values())


def _predict(
    arity: int,
    depth: int,
    redundancy: int,
    fanout: int,
    matching_rates: Sequence[float],
    loss_probability: float,
    crash_fraction: float,
    pittel_c: float,
    threshold_h: int,
) -> Dict[float, float]:
    return {
        rate: delivery_probability(
            rate,
            arity,
            depth,
            redundancy,
            fanout,
            loss_probability,
            crash_fraction,
            pittel_c,
            threshold_h,
        )
        for rate in matching_rates
    }


#: The values of Pittel's additive constant c the search tries.
_C_CANDIDATES = (0.0, 1.0, 2.0)


def recommend_parameters(
    arity: int,
    depth: int,
    target_reliability: float,
    matching_rates: Sequence[float] = (0.1, 0.5, 1.0),
    redundancy: int = 3,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
    max_fanout: int = 6,
    max_threshold: Optional[int] = None,
) -> Recommendation:
    """Search the §4 model for the cheapest config meeting a target.

    Candidates are ordered by cost — fanout first (every unit of F
    multiplies steady-state traffic), then the tuning threshold h (it
    trades uninterested receptions), then the additive constant c
    (extra rounds everywhere) — and the first candidate whose
    *worst-case* predicted delivery over ``matching_rates`` reaches
    ``target_reliability`` wins.

    Args:
        arity: the regular branch factor a (n = a**depth).
        depth: the tree depth d.
        target_reliability: desired lower bound on delivery probability.
        matching_rates: the p_d values the deployment must handle.
        redundancy: the delegate factor R (a membership policy, fixed).
        loss_probability: the assumed ε (also wired into the config's
            loss-aware round bounds when > 0).
        crash_fraction: the assumed τ.
        max_fanout: largest F to consider.
        max_threshold: largest h to consider (defaults to the inner
            view size R*a).

    Returns:
        a :class:`Recommendation`; ``achieved`` is False if even the
        most conservative candidate misses the target (the caller
        should then grow R or rethink the tree shape).

    Raises:
        ConfigError: on an invalid target or empty rate list.
    """
    if not 0.0 < target_reliability <= 1.0:
        raise ConfigError(
            f"target reliability {target_reliability} not in (0, 1]"
        )
    if not matching_rates:
        raise ConfigError("matching_rates must be non-empty")
    if max_threshold is None:
        max_threshold = redundancy * arity
    threshold_steps = sorted(
        {0, redundancy, 2 * redundancy, 4 * redundancy, max_threshold}
    )
    threshold_steps = [h for h in threshold_steps if h <= max_threshold]

    best: Optional[Tuple[Dict[float, float], PmcastConfig]] = None
    for fanout in range(1, max_fanout + 1):
        for threshold_h in threshold_steps:
            for pittel_c in _C_CANDIDATES:
                predicted = _predict(
                    arity,
                    depth,
                    redundancy,
                    fanout,
                    matching_rates,
                    loss_probability,
                    crash_fraction,
                    pittel_c,
                    threshold_h,
                )
                config = PmcastConfig(
                    fanout=fanout,
                    redundancy=redundancy,
                    pittel_c=pittel_c,
                    threshold_h=threshold_h,
                    loss_aware_rounds=(
                        loss_probability > 0.0 or crash_fraction > 0.0
                    ),
                    assumed_loss=loss_probability,
                    assumed_crash=crash_fraction,
                )
                best = (predicted, config)
                if min(predicted.values()) >= target_reliability:
                    return Recommendation(
                        config=config,
                        predicted_delivery=predicted,
                        achieved=True,
                    )
    assert best is not None
    predicted, config = best
    return Recommendation(
        config=config, predicted_delivery=predicted, achieved=False
    )
