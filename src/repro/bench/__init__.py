"""Every table this repository publishes, and the one CLI that runs them.

``python -m repro.bench --figure 4`` (etc.) regenerates the paper's
evaluation figures and ``--experiment NAME`` every other table of
EXPERIMENTS.md; both read :data:`repro.bench.cli.REGISTRY`, and
``tests/bench`` calls the same functions at reduced scale.
"""

from repro.bench.figures import (
    DEFAULT_RATES,
    figure4,
    figure5,
    figure6,
    figure7,
    reliability_sweep,
)
from repro.bench.series import FigureResult, Series

__all__ = [
    "DEFAULT_RATES",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "reliability_sweep",
    "FigureResult",
    "Series",
]
