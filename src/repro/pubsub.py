"""A high-level publish/subscribe facade over the pmcast stack.

The lower layers expose every moving part of the paper; this module is
the API a downstream application actually wants:

* :class:`PubSubSystem` owns a live group — membership tree, converged
  views (one :class:`~repro.membership.lifecycle.GroupDirectory`), the
  members that are down — and offers ``subscribe`` / ``unsubscribe`` /
  ``publish`` / ``crash``.
* Membership changes immediately refresh the affected shared view
  tables in place (the converged end-state that gossip-pull
  anti-entropy reaches in a running deployment; §2.3).
* ``publish`` multicasts one event through the simulated network on a
  :class:`~repro.sim.group.PmcastGroup` wired from those tables and
  returns its :class:`~repro.sim.metrics.DisseminationReport`;
  what the system keeps of the run is who crashed in it and who
  delivered the event, so ``delivered_to`` answers exactly which
  subscribers got it.

This is also what the churn-heavy example and integration tests drive.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import compress
from typing import Dict, List, Optional, Set

from repro.addressing import Address, AddressSpace
from repro.addressing.allocation import AddressAllocator
from repro.config import PmcastConfig, SimConfig
from repro.errors import MembershipError, SimulationError
from repro.interests.events import Event
from repro.interests.regrouping import RegroupPolicy
from repro.interests.subscriptions import Interest
from repro.membership.lifecycle import GroupDirectory
from repro.membership.tree import MembershipTree
from repro.sim.engine import run_dissemination_outcome
from repro.sim.group import PmcastGroup
from repro.sim.metrics import DisseminationReport

__all__ = ["PubSubSystem"]


class PubSubSystem:
    """A live content-based publish/subscribe group.

    Args:
        depth: the address depth ``d`` of the group.
        config: protocol parameters.
        sim_config: environment for publishes (loss, crashes, seed).
        regroup_policy: interest-regrouping compaction policy.
    """

    def __init__(
        self,
        depth: int,
        config: Optional[PmcastConfig] = None,
        sim_config: Optional[SimConfig] = None,
        regroup_policy: Optional[RegroupPolicy] = None,
        space: Optional[AddressSpace] = None,
    ):
        self._config = config or PmcastConfig()
        self._sim_config = sim_config or SimConfig()
        self._tree = MembershipTree(depth, self._config.redundancy)
        self._directory = GroupDirectory(self._tree, regroup_policy)
        self._down: Set[Address] = set()
        # event_id -> the members that delivered it
        self._delivered: Dict[int, Set[Address]] = {}
        self._publish_count = 0
        if space is not None and space.depth != depth:
            raise MembershipError(
                f"address space depth {space.depth} != group depth {depth}"
            )
        self._space = space
        self._allocator: Optional[AddressAllocator] = None

    # -- membership -----------------------------------------------------

    @property
    def size(self) -> int:
        """Current number of subscribers."""
        return self._tree.size

    @property
    def tree(self) -> MembershipTree:
        """The membership ground truth (read-mostly)."""
        return self._tree

    def members(self) -> List[Address]:
        """Current member addresses, sorted."""
        return sorted(self._tree.members())

    def subscribe(self, address: Address, interest: Interest) -> None:
        """Add a subscriber (or replace an existing one's interest)."""
        if address in self._tree:
            self._tree.update_interest(address, interest)
        else:
            self._tree.add(address, interest)
        self._refresh(address)

    def join(self, interest: Interest, hint: Optional[object] = None) -> Address:
        """Subscribe a new process with an auto-allocated logical address.

        §2.2's logical-address mode: the system assigns a balanced
        address (keeping leaf subgroups at the R the election needs);
        processes sharing a ``hint`` (e.g. a site name) are placed in
        the same subtree so their mutual distance stays small.

        Requires the system to have been constructed with an
        ``AddressSpace``.
        """
        if self._space is None:
            raise MembershipError(
                "auto-join needs a PubSubSystem constructed with a space"
            )
        if self._allocator is None:
            self._allocator = AddressAllocator(
                self._space, min_subgroup=self._config.redundancy
            )
            for address in self._tree.members():
                # Adopt pre-existing manual subscriptions.
                if not self._allocator.is_allocated(address):
                    self._allocator.reserve(address)
        address = self._allocator.allocate(hint)
        self.subscribe(address, interest)
        return address

    def unsubscribe(self, address: Address) -> None:
        """Remove a subscriber entirely (graceful leave)."""
        if address not in self._tree:
            raise MembershipError(f"{address} is not subscribed")
        self._remove(address)

    def crash(self, address: Address) -> None:
        """Silently crash a process: it stays in views until excluded.

        Unlike :meth:`unsubscribe`, the views are *not* refreshed — the
        group still believes the process is alive, exactly the window a
        real failure opens before detectors fire.  Call
        :meth:`exclude` once the §2.3 detector would have convicted it.
        """
        if address not in self._tree:
            raise MembershipError(f"{address} is not a member")
        self._down.add(address)

    def exclude(self, address: Address) -> None:
        """Remove a crashed process from the membership (post-detection)."""
        if address not in self._tree:
            raise MembershipError(f"{address} is not a member")
        self._remove(address)

    # -- publishing -------------------------------------------------------

    def publish(
        self,
        publisher: Address,
        event: Event,
        sim_config: Optional[SimConfig] = None,
    ) -> DisseminationReport:
        """Multicast ``event`` from ``publisher`` and measure it."""
        if publisher not in self._tree:
            raise SimulationError(f"publisher {publisher} is not a member")
        group = self._as_group()
        self._publish_count += 1
        sim = sim_config or replace(
            self._sim_config,
            seed=self._sim_config.seed + self._publish_count,
        )
        report, outcome = run_dissemination_outcome(group, publisher, event, sim)
        addresses = group.addresses()
        self._down.update(compress(addresses, ~outcome.alive))
        self._delivered[event.event_id] = set(compress(addresses, outcome.delivered))
        return report

    def delivered_to(self, event: Event) -> List[Address]:
        """Which current members have delivered ``event``."""
        delivered = self._delivered.get(event.event_id, ())
        return sorted(address for address in delivered if address in self._tree)

    # -- internals ---------------------------------------------------------

    def _remove(self, address: Address) -> None:
        """Drop a member, free its address for reallocation, refresh."""
        self._tree.remove(address)
        self._down.discard(address)
        if self._allocator is not None and self._allocator.is_allocated(
            address
        ):
            self._allocator.release(address)
        self._refresh(address)

    def _refresh(self, changed: Address) -> None:
        """Refresh the tables on ``changed``'s prefix path.

        This realizes the *converged* outcome of the §2.3 protocols
        (join contact chain + gossip-pull propagation) in one step; the
        live protocol, replicas pulling the refreshed versions, is
        :class:`~repro.sim.runtime.GroupRuntime`'s.
        """
        self._directory.refresh_path(changed)

    def _as_group(self) -> PmcastGroup:
        return PmcastGroup(
            self._tree, dict(self._directory.tables), self._config, self._down
        )
