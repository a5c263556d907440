"""Event propagation in the tree (paper §4.1 and §4.3, Eqs 4–18).

For a *regular* tree — every prefix has ``a`` populated subgroups, so
``n = a^d`` — with interests i.i.d. Bernoulli(p_d):

* Eq 7 — the probability a depth-``i`` entity is interested (possibly
  on behalf of represented processes): ``p_i = 1 - (1-p_d)^(a^(d-i))``;
* Eq 12 — per-depth view sizes ``m_i``;
* Eq 11/13 — per-depth round counts ``T_i = T_f(m_i p_i, F p_i)`` and
  their sum ``T_tot``;
* Eq 14 — ``E[s_Ti]`` from the flat Markov chain of
  :mod:`repro.analysis.markov`;
* Eq 15 — the probability ``r_i`` that an interested "node" (the R
  delegates of a subgroup; a single process at depth d) is infected
  after gossiping at depth ``i``;
* Eqs 16–17 — the distribution of the number of infected entities
  ``g_i`` at each depth;
* Eq 18 — the expected number of infected processes
  ``prod_i r_i a p_i`` and the reliability degree obtained by dividing
  by the ``n p_d`` interested processes.

:func:`analyze_tree` evaluates the whole pipeline and returns a
:class:`TreeAnalysis` with every intermediate quantity, so the figure
harnesses and the tests can interrogate any step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis.markov import InfectionChain, _binomial_pmf
from repro.core.rounds import loss_adjusted_rounds, round_bound
from repro.errors import AnalysisError

__all__ = [
    "subgroup_interest_probability",
    "regular_view_size",
    "TreeAnalysis",
    "analyze_tree",
    "entity_count_distribution",
]


def _round_half_up(value: float) -> int:
    """Round half-up, matching the Markov chain's _effective_size.

    ``round()`` is banker's rounding (2.5 -> 2); the docs promise
    half-up, and both models must agree on fractional entity counts.
    """
    return int(math.floor(value + 0.5))


def subgroup_interest_probability(
    matching_rate: float, arity: int, depth: int, level: int
) -> float:
    """Eq 7: ``p_i = 1 - (1 - p_d)^(a^(d-i))``.

    Args:
        matching_rate: p_d.
        arity: a.
        depth: d.
        level: i, in [1, d].
    """
    if not 0.0 <= matching_rate <= 1.0:
        raise AnalysisError(f"matching rate {matching_rate} not in [0, 1]")
    if not 1 <= level <= depth:
        raise AnalysisError(f"level {level} out of range [1, {depth}]")
    represented = arity ** (depth - level)
    return 1.0 - (1.0 - matching_rate) ** represented


def regular_view_size(arity: int, depth: int, redundancy: int, level: int) -> int:
    """Eq 12: ``m_i = R a`` for i < d, ``m_d = a``."""
    if not 1 <= level <= depth:
        raise AnalysisError(f"level {level} out of range [1, {depth}]")
    if level < depth:
        return redundancy * arity
    return arity


@dataclass(frozen=True)
class TreeAnalysis:
    """Every intermediate quantity of the §4.3 pipeline, per depth.

    Lists are indexed ``0..d-1`` for depths ``1..d``.

    Attributes:
        arity: a (regular branch factor).
        depth: d.
        redundancy: R.
        fanout: F.
        matching_rate: p_d.
        interest_probabilities: Eq 7's ``p_i``.
        view_sizes: Eq 12's ``m_i``.
        rounds_per_depth: the integer per-depth bounds ``T_i``.
        expected_infected_per_depth: Eq 14's ``E[s_Ti]``.
        node_infection_probabilities: Eq 15's ``r_i``.
        expected_entities: ``E[g_i] = prod_{j<=i} r_j a p_j`` factors
            accumulated per depth (Eq 18's partial products).
        expected_infected_processes: Eq 18's product.
        reliability_degree: Eq 18 divided by ``n p_d`` (clamped to 1).
    """

    arity: int
    depth: int
    redundancy: int
    fanout: int
    matching_rate: float
    interest_probabilities: Tuple[float, ...]
    view_sizes: Tuple[int, ...]
    rounds_per_depth: Tuple[int, ...]
    expected_infected_per_depth: Tuple[float, ...]
    node_infection_probabilities: Tuple[float, ...]
    expected_entities: Tuple[float, ...]
    expected_infected_processes: float
    reliability_degree: float

    @property
    def group_size(self) -> int:
        """n = a^d."""
        return self.arity ** self.depth


def analyze_tree(
    matching_rate: float,
    arity: int,
    depth: int,
    redundancy: int,
    fanout: int,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
    pittel_c: float = 0.0,
    min_rounds: int = 0,
    max_rounds: int = 64,
    threshold_h: int = 0,
) -> TreeAnalysis:
    """Run the full §4.3 pipeline for one parameter point.

    ``threshold_h`` models the §5.3 tuning analytically: at every depth
    the effective number of interested view entries is floored at
    ``h`` (the audience inflation), which feeds both the round estimate
    and the chain size — the analytical counterpart of the "Improved"
    curve of Figure 7.
    """
    if arity < 1 or depth < 1 or redundancy < 1 or fanout < 1:
        raise AnalysisError("arity, depth, redundancy and fanout must be >= 1")
    if not 0.0 <= matching_rate <= 1.0:
        raise AnalysisError(f"matching rate {matching_rate} not in [0, 1]")
    if threshold_h < 0:
        raise AnalysisError(f"threshold h={threshold_h} must be >= 0")

    interest_probabilities: List[float] = []
    view_sizes: List[int] = []
    rounds_per_depth: List[int] = []
    expected_infected: List[float] = []
    node_probabilities: List[float] = []
    expected_entities: List[float] = []

    product = 1.0
    for level in range(1, depth + 1):
        p_i = subgroup_interest_probability(matching_rate, arity, depth, level)
        m_i = regular_view_size(arity, depth, redundancy, level)
        effective_interested = m_i * p_i
        effective_rate = p_i
        if threshold_h > 0 and effective_interested < threshold_h:
            # §5.3: the first h view entries are treated as interested.
            effective_interested = min(float(threshold_h), float(m_i))
            effective_rate = effective_interested / m_i
        estimate = loss_adjusted_rounds(
            effective_interested,
            fanout * effective_rate,
            loss_probability,
            crash_fraction,
            pittel_c,
        )
        t_i = round_bound(estimate, min_rounds, max_rounds)
        chain = InfectionChain(
            effective_interested,
            fanout * effective_rate,
            loss_probability,
            crash_fraction,
        )
        e_s = chain.expected_after(t_i)
        node_members = m_i / arity
        if effective_interested > 1.0:
            # Eq 15: an interested "node" has m_i / a members (R below
            # depth d, the single process at depth d); it is infected if
            # any of them is.
            fraction = min(e_s / effective_interested, 1.0)
            r_i = 1.0 - (1.0 - fraction) ** node_members
        elif level == depth:
            # Degenerate leaf audience (< 1 expected interested member):
            # the Pittel bound collapses to zero rounds, so nothing is
            # gossiped inside the leaf group and the lone interested
            # member delivers only if it happens to be one of the R
            # already-infected delegates.  This is exactly the small-p_d
            # breakdown the paper discusses in §5.1.
            r_i = min(redundancy / arity, 1.0)
        else:
            # An interior depth with < 1 expected interested entity:
            # no rounds are spent there, so no *other* subtree gets
            # infected (the publisher's own chain continues regardless;
            # the Eq 18 product below is floored accordingly).
            r_i = 0.0
        interest_probabilities.append(p_i)
        view_sizes.append(m_i)
        rounds_per_depth.append(t_i)
        expected_infected.append(e_s)
        node_probabilities.append(r_i)
        # Eq 18 factors: expected infected entities multiply by
        # r_i * a * p_i per depth.  The product is floored at the
        # publisher's own always-infected chain down the tree — a
        # PMCAST-ing process takes part at every depth (§3.2), so at
        # least one entity per depth carries the event.
        product = max(product * r_i * arity * p_i, 1.0)
        expected_entities.append(product)

    n_interested = (arity ** depth) * matching_rate
    if n_interested <= 0:
        reliability = 1.0
    else:
        reliability = min(product / n_interested, 1.0)
    return TreeAnalysis(
        arity=arity,
        depth=depth,
        redundancy=redundancy,
        fanout=fanout,
        matching_rate=matching_rate,
        interest_probabilities=tuple(interest_probabilities),
        view_sizes=tuple(view_sizes),
        rounds_per_depth=tuple(rounds_per_depth),
        expected_infected_per_depth=tuple(expected_infected),
        node_infection_probabilities=tuple(node_probabilities),
        expected_entities=tuple(expected_entities),
        expected_infected_processes=product,
        reliability_degree=reliability,
    )


def entity_count_distribution(
    analysis: TreeAnalysis, level: int
) -> np.ndarray:
    """Eqs 16–17: the distribution of ``g_i`` at a given depth.

    Iterates ``P[g_i = k] = sum_j P[g_{i-1} = j] * Binom(j a p_i, r_i)``
    from ``g_0 = 1``, rounding the (possibly fractional) susceptible
    entity counts ``j a p_i`` half-up as in the Markov chain.

    Returns a vector over ``k = 0..max_entities`` for depth ``level``.
    """
    if not 1 <= level <= analysis.depth:
        raise AnalysisError(
            f"level {level} out of range [1, {analysis.depth}]"
        )
    distribution = np.ones(2)  # g_0 = 1 with probability 1 -> index 1
    distribution[0] = 0.0
    for current in range(1, level + 1):
        p_i = analysis.interest_probabilities[current - 1]
        r_i = analysis.node_infection_probabilities[current - 1]
        max_parents = len(distribution) - 1
        max_children = max(
            _round_half_up(max_parents * analysis.arity * p_i), 1
        )
        fresh = np.zeros(max_children + 1)
        for j, weight in enumerate(distribution):
            if weight <= 0.0:
                continue
            susceptible = _round_half_up(j * analysis.arity * p_i)
            if susceptible <= 0:
                fresh[0] += weight
                continue
            fresh[: susceptible + 1] += weight * _binomial_pmf(
                susceptible, r_i
            )
        total = fresh.sum()
        if total > 0:
            fresh /= total
        distribution = fresh
    return distribution
