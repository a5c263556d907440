"""The stochastic analysis of §4: Markov chain, tree model, reliability.

These modules evaluate the paper's closed-form/iterative models — they
never run the protocol.  Comparing their predictions with the
simulator's measurements is itself part of the test suite.
"""

from repro.analysis.markov import (
    InfectionChain,
    expected_infected,
    reach_probability,
    state_distribution,
    transition_matrix,
)
from repro.analysis.pittel import (
    loss_adjusted_rounds,
    pittel_rounds,
    round_bound,
    tree_total_rounds,
)
from repro.analysis.reliability import (
    delivery_probability,
    false_reception_estimate,
)
from repro.analysis.tree_model import (
    TreeAnalysis,
    analyze_tree,
    entity_count_distribution,
    regular_view_size,
    subgroup_interest_probability,
)

__all__ = [
    "InfectionChain",
    "reach_probability",
    "transition_matrix",
    "state_distribution",
    "expected_infected",
    "pittel_rounds",
    "loss_adjusted_rounds",
    "round_bound",
    "tree_total_rounds",
    "TreeAnalysis",
    "analyze_tree",
    "entity_count_distribution",
    "subgroup_interest_probability",
    "regular_view_size",
    "delivery_probability",
    "false_reception_estimate",
]
