"""Membership: the compound spanning tree and its loose coordination.

Implements §2 of the paper: delegate election over hierarchical
addresses (:mod:`tree`), per-depth view tables (:mod:`views`), view
derivation and the Eq 2 / Eq 12 knowledge accounting (:mod:`knowledge`),
gossip-pull anti-entropy (:mod:`gossip_pull`), the group directory that
join and leave refresh (:mod:`lifecycle`), and last-contact failure
detection (:mod:`failure_detector`).
"""

from repro.membership.gossip_pull import MembershipState
from repro.membership.knowledge import (
    build_all_views,
    build_process_views,
    build_view,
    known_process_count,
    refresh_path,
    refreshed_rows,
    regular_total_view_size,
    regular_view_sizes,
)
from repro.membership.lifecycle import GroupDirectory
from repro.membership.tree import MembershipTree
from repro.membership.views import ViewRow, ViewTable

__all__ = [
    "MembershipTree",
    "ViewRow",
    "ViewTable",
    "build_view",
    "refreshed_rows",
    "refresh_path",
    "build_process_views",
    "build_all_views",
    "known_process_count",
    "regular_view_sizes",
    "regular_total_view_size",
    "MembershipState",
    "GroupDirectory",
]
