"""Pluggable dissemination variants over the shared round driver.

The strategy seam extracted from the scalar engine loop
(:mod:`repro.variants.base`), the exact ports of the two historical
algorithms (:class:`~repro.variants.pmcast.PmcastVariant`,
:class:`~repro.variants.flat_push.FlatPushVariant`) and the two new
ablations the paper's evaluation is compared against:

* :func:`~repro.variants.lazy_pull.lazy_pull_broadcast` — epidemic
  push until a horizon round, then pull-based recovery;
* :func:`~repro.variants.bounded_view.bounded_view_broadcast` —
  lpbcast-style gossip over bounded random partial views.

See docs/VARIANTS.md for the strategy contract and how to add one.
"""

from repro.variants.base import (
    CONTROL_KINDS,
    PAYLOAD,
    DisseminationVariant,
    VariantEnvelope,
    VariantMessage,
    run_variant,
)
from repro.variants.bounded_view import BoundedViewVariant, bounded_view_broadcast
from repro.variants.flat_push import FlatPushVariant, run_flat_style
from repro.variants.lazy_pull import LazyPullVariant, lazy_pull_broadcast
from repro.variants.pmcast import PmcastVariant

__all__ = [
    "CONTROL_KINDS",
    "PAYLOAD",
    "BoundedViewVariant",
    "DisseminationVariant",
    "FlatPushVariant",
    "LazyPullVariant",
    "PmcastVariant",
    "VariantEnvelope",
    "VariantMessage",
    "bounded_view_broadcast",
    "lazy_pull_broadcast",
    "run_flat_style",
    "run_variant",
]
