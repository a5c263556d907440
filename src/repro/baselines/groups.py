"""Per-destination-subset broadcast groups: the third §1 alternative.

"A third alternative consists in using broadcast algorithms by mapping
possible destination subsets of a large group to smaller, possibly
overlapping, broadcast groups [...] one can however end up with a large
number of groups (2^n at maximum) [...] But, above all, establishing
these individual broadcast groups requires a global knowledge of the
interests of processes, and might have to be repeated every time the
composition of the overall group varies."

:class:`BroadcastGroupMapper` implements that scheme honestly: it keeps
global subscription knowledge, computes each event's exact destination
subset, memoizes subsets as named broadcast groups, and counts how many
groups accumulate (the 2^n-bounded blow-up) and how often group state
must be rebuilt on membership or subscription change.  Dissemination
inside a group is a flat gossip among exactly the subset — delivery is
as good as flat gossip and false reception is zero, which makes the
*costs* (group count, global knowledge, re-establishment churn) the
interesting columns in the comparison bench.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.addressing import Address
from repro.config import SimConfig
from repro.baselines.flat import flat_genuine_multicast
from repro.errors import SimulationError
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.sim.metrics import DisseminationReport

__all__ = ["BroadcastGroupMapper"]


class BroadcastGroupMapper:
    """Global-knowledge mapping of destination subsets to groups."""

    def __init__(self, members: Mapping[Address, Interest]):
        if not members:
            raise SimulationError("cannot map groups over no members")
        self._members: Dict[Address, Interest] = dict(members)
        self._groups: Dict[FrozenSet[Address], int] = {}
        self._rebuilds = 0

    @property
    def group_count(self) -> int:
        """Distinct broadcast groups established so far (<= 2^n)."""
        return len(self._groups)

    @property
    def rebuild_count(self) -> int:
        """How many times group state was invalidated by churn."""
        return self._rebuilds

    def destination_subset(self, event: Event) -> FrozenSet[Address]:
        """The exact destination subset of ``event`` (global matching)."""
        return frozenset(
            address
            for address, interest in self._members.items()
            if interest.matches(event)
        )

    def group_for(self, event: Event) -> Tuple[int, bool]:
        """The broadcast group of ``event``'s subset.

        Returns ``(group_id, created)`` where ``created`` tells whether
        a new group had to be established for this subset.
        """
        subset = self.destination_subset(event)
        if subset in self._groups:
            return self._groups[subset], False
        group_id = len(self._groups)
        self._groups[subset] = group_id
        return group_id, True

    def update_member(self, address: Address, interest: Interest) -> None:
        """A join or re-subscription: all established groups are stale.

        "[The mapping] might have to be repeated every time the
        composition of the overall group (interests, processes) varies."
        """
        self._members[address] = interest
        self._groups.clear()
        self._rebuilds += 1

    def remove_member(self, address: Address) -> None:
        """A leave/failure: likewise invalidates the group mapping."""
        if address not in self._members:
            raise SimulationError(f"{address} is not a member")
        del self._members[address]
        self._groups.clear()
        self._rebuilds += 1

    def multicast(
        self,
        publisher: Address,
        event: Event,
        fanout: int = 2,
        sim_config: Optional[SimConfig] = None,
    ) -> Tuple[DisseminationReport, int, bool]:
        """Establish (or reuse) the event's group and gossip inside it.

        Returns ``(report, group_id, group_created)``.  The gossip
        inside the subset is the flat genuine multicast — within a
        purpose-built group, targeting exactly the subset is what the
        group *is*.
        """
        group_id, created = self.group_for(event)
        report = flat_genuine_multicast(
            self._members, publisher, event, fanout, sim_config
        )
        return report, group_id, created
