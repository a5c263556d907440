"""Gossip-round estimation: Pittel's asymptote and its loss adjustment.

Eq 3 (Pittel [10]): the number of rounds to infect a (large) group of
size ``n`` with fanout ``F`` is

    T(n, F) = log n * (1/F + 1/log(F + 1)) + c + O(1)

Eq 11 folds in the environmental parameters: with message-loss
probability ε and crash probability τ, only ``F(1-ε)(1-τ)`` of a
gossiper's F targets are expected infected, so

    T_f(n, F) = T(n(1-ε)(1-τ), F(1-ε)(1-τ))

The paper leans on a boundary behaviour of this asymptote: for
``n <= 1`` (one expected interested process) the estimate collapses to
the constant ``c`` — which is exactly why reliability droops for very
small matching rates (Figure 4) until the §5.3 tuning lifts it.  The
functions below preserve that behaviour rather than papering over it.
"""

from __future__ import annotations

import math

from repro.config import PmcastConfig
from repro.errors import AnalysisError

__all__ = ["pittel_rounds", "loss_adjusted_rounds", "round_bound", "depth_round_bound"]


def pittel_rounds(n: float, fanout: float, c: float = 0.0) -> float:
    """Eq 3: expected rounds to infect ``n`` processes at fanout ``F``.

    Args:
        n: effective group size (may be fractional: ``n·p_d`` etc.).
        fanout: effective fanout (may be fractional: ``F·p_d``).
        c: the additive constant of the asymptote.

    Returns:
        the (real-valued) round estimate; 0-clamped.  For ``n <= 1``
        there is nobody left to infect and the estimate is ``max(c, 0)``
        — the collapse the paper discusses in §5.1.

    Raises:
        AnalysisError: on a negative ``n`` or non-positive inputs that
            make the formula meaningless (``fanout < 0``).
    """
    if n < 0:
        raise AnalysisError(f"group size n={n} must be >= 0")
    if fanout < 0:
        raise AnalysisError(f"fanout F={fanout} must be >= 0")
    if n <= 1.0:
        return max(c, 0.0)
    if fanout == 0.0:
        # Nobody forwards: infection never completes.
        return math.inf
    estimate = math.log(n) * (1.0 / fanout + 1.0 / math.log(fanout + 1.0)) + c
    return max(estimate, 0.0)


def loss_adjusted_rounds(
    n: float,
    fanout: float,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
    c: float = 0.0,
) -> float:
    """Eq 11: Pittel's estimate with message loss ε and crashes τ folded in."""
    if not 0.0 <= loss_probability < 1.0:
        raise AnalysisError(f"loss probability {loss_probability} not in [0, 1)")
    if not 0.0 <= crash_fraction < 1.0:
        raise AnalysisError(f"crash fraction {crash_fraction} not in [0, 1)")
    scale = (1.0 - loss_probability) * (1.0 - crash_fraction)
    return pittel_rounds(n * scale, fanout * scale, c)


def round_bound(
    estimate: float,
    minimum: int = 0,
    maximum: int = 64,
) -> int:
    """Turn a real-valued round estimate into Figure 3's integer bound.

    The bound is the ceiling of the estimate, floored at ``minimum``
    (one §5.3 remedy) and capped at ``maximum`` (passive garbage
    collection must terminate).
    """
    if minimum < 0 or maximum < minimum:
        raise AnalysisError(
            f"invalid bound clamp [{minimum}, {maximum}]"
        )
    if math.isinf(estimate):
        return maximum
    return min(max(int(math.ceil(estimate)), minimum), maximum)


def depth_round_bound(
    entry_count: int, rate: float, config: PmcastConfig
) -> int:
    """Figure 3 line 7: ``T(|view|·R·rate, F·rate)`` as an integer bound.

    ``entry_count`` is the view's ``|view|·R`` (its delegate entries),
    ``rate`` the matching rate the event carries at that depth; the
    estimate is Eq 11's when ``config.loss_aware_rounds`` else Eq 3's,
    clamped to the configured per-depth window.
    """
    effective_n = entry_count * rate
    effective_f = config.fanout * rate
    if config.loss_aware_rounds:
        estimate = loss_adjusted_rounds(
            effective_n,
            effective_f,
            config.assumed_loss,
            config.assumed_crash,
            config.pittel_c,
        )
    else:
        estimate = pittel_rounds(effective_n, effective_f, config.pittel_c)
    return round_bound(
        estimate,
        config.min_rounds_per_depth,
        config.max_rounds_per_depth,
    )
