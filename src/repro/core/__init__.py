"""The pmcast algorithm itself (paper §3, Figure 3).

:class:`PmcastNode` is the per-process state machine; the satellite
modules implement its pieces: per-depth buffers, the matching-rate
GETRATE, Pittel round bounds (Eq 3 / Eq 11), and the §5.3 small-rate
tuning.
"""

from repro.core.advisor import Recommendation, recommend_parameters
from repro.core.buffers import BufferedEvent, DepthBuffers
from repro.core.context import GossipContext
from repro.core.messages import Envelope, GossipMessage
from repro.core.node import PmcastNode
from repro.core.rate import TableMatch, match_table, sample_positions
from repro.core.rounds import loss_adjusted_rounds, pittel_rounds, round_bound
from repro.core.tuning import choose_threshold, inflate_audience

__all__ = [
    "Recommendation",
    "recommend_parameters",
    "BufferedEvent",
    "DepthBuffers",
    "GossipContext",
    "Envelope",
    "GossipMessage",
    "PmcastNode",
    "TableMatch",
    "match_table",
    "sample_positions",
    "pittel_rounds",
    "loss_adjusted_rounds",
    "round_bound",
    "inflate_audience",
    "choose_threshold",
]
