"""Logical address allocation (paper §2.2).

"This notion of 'distance' can be approximated by network addresses
[...] but can as well be **simulated by associating logical addresses
with processes**."

When a deployment has no meaningful network hierarchy (cloud VMs,
NAT'd clients), the group must hand each joining process a logical
address — and *where* it lands shapes the tree: subgroups should stay
balanced (each populated depth-d subgroup must keep at least R members,
the §2.2 election assumption) and, when locality hints exist, nearby
processes should share long prefixes.

:class:`AddressAllocator` implements that policy:

* :meth:`allocate` picks the least-populated open slot, deepening the
  tree breadth-first so subgroups fill to at least ``min_subgroup``
  members before new sibling subgroups open;
* a *hint* (any hashable, e.g. a site name) pins a process near other
  processes with the same hint by routing all of them into the same
  subtree whenever capacity allows;
* :meth:`release` frees an address on leave/exclusion so it can be
  reissued.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from repro.addressing.address import Address, Prefix
from repro.addressing.space import AddressSpace
from repro.errors import AddressError

__all__ = ["AddressAllocator"]


class AddressAllocator:
    """Balanced logical address assignment over an address space.

    Args:
        space: the address space to allocate from.
        min_subgroup: target minimum population of a depth-d subgroup
            before opening a sibling — set this to the group's R so
            delegate election never runs short (§2.2 assumes every
            populated leaf subgroup holds at least R processes).
    """

    def __init__(self, space: AddressSpace, min_subgroup: int = 3):
        if min_subgroup < 1:
            raise AddressError(f"min_subgroup {min_subgroup} must be >= 1")
        self._space = space
        self._min_subgroup = min_subgroup
        self._allocated: Set[Address] = set()
        self._hints: Dict[Hashable, Prefix] = {}

    def is_allocated(self, address: Address) -> bool:
        """True if ``address`` is currently handed out."""
        return address in self._allocated

    def allocate(self, hint: Optional[Hashable] = None) -> Address:
        """Hand out one address, balanced and optionally locality-pinned.

        Args:
            hint: processes sharing a hint are steered into the same
                leaf subgroup (and, when it fills, the same parent
                subtree), so their mutual §2.2 distance stays small.

        Raises:
            AddressError: when the space is exhausted.
        """
        if len(self._allocated) >= self._space.capacity:
            raise AddressError("address space exhausted")
        if hint is not None:
            pinned = self._hints.get(hint)
            if pinned is not None:
                address = self._slot_under(pinned)
                if address is not None:
                    self._allocated.add(address)
                    return address
                # The hinted subtree is full: fall through and re-pin.
        prefix = self._pick_leaf_prefix()
        address = self._slot_under(prefix)
        if address is None:
            raise AddressError("address space exhausted")
        if hint is not None:
            self._hints[hint] = address.prefix(self._space.depth)
        self._allocated.add(address)
        return address

    def reserve(self, address: Address) -> None:
        """Mark an externally assigned address as taken.

        Lets the allocator coexist with manually addressed members
        (e.g. processes that joined with real network addresses).

        Raises:
            AddressError: if the address is outside the space or
                already allocated.
        """
        self._space.validate(address)
        if address in self._allocated:
            raise AddressError(f"{address} is already allocated")
        self._allocated.add(address)

    def release(self, address: Address) -> None:
        """Return an address to the pool (leave / exclusion)."""
        if address not in self._allocated:
            raise AddressError(f"{address} was not allocated")
        self._allocated.remove(address)

    def population(self, prefix: Prefix) -> int:
        """How many allocated addresses share ``prefix``."""
        return sum(1 for address in self._allocated
                   if prefix.is_prefix_of(address))

    # -- internals -----------------------------------------------------

    def _pick_leaf_prefix(self) -> Prefix:
        """Choose the depth-d subgroup the next process should join.

        Walk from the root, at each level preferring (1) a populated
        child still below ``min_subgroup * remaining_capacity_share``
        — keep filling before opening siblings — then (2) the
        least-populated populated child, then (3) a fresh child if all
        populated ones are full.
        """
        prefix = Prefix(())
        for level in range(1, self._space.depth):
            arity = self._space.arities[level - 1]
            populations = [
                (self.population(prefix.child(component)), component)
                for component in range(arity)
            ]
            # Highest priority: finish an under-R leaf subgroup anywhere
            # below — the §2.2 election assumption wants every populated
            # leaf group at min_subgroup as soon as possible.
            unfinished = [
                component
                for population, component in populations
                if population > 0
                and self._has_underfilled_leaf(prefix.child(component))
            ]
            if unfinished:
                prefix = prefix.child(unfinished[0])
                continue
            under_target = [
                (population, component)
                for population, component in populations
                if 0 < population and not self._subtree_full(
                    prefix.child(component), level
                ) and population < self._target_fill(level)
            ]
            if under_target:
                __, component = min(under_target)
            else:
                fresh = [
                    (population, component)
                    for population, component in populations
                    if population == 0
                ]
                open_children = [
                    (population, component)
                    for population, component in populations
                    if not self._subtree_full(prefix.child(component), level)
                ]
                if fresh and all(
                    population >= self._target_fill(level)
                    for population, __ in populations
                    if population > 0
                ):
                    __, component = fresh[0]
                elif open_children:
                    __, component = min(open_children)
                else:
                    raise AddressError("address space exhausted")
            prefix = prefix.child(component)
        return prefix

    def _has_underfilled_leaf(self, prefix: Prefix) -> bool:
        """Any populated leaf subgroup under ``prefix`` below min_subgroup?"""
        depth = self._space.depth
        leaf_populations: Dict[Prefix, int] = {}
        for address in self._allocated:
            if prefix.is_prefix_of(address):
                leaf = address.prefix(depth)
                leaf_populations[leaf] = leaf_populations.get(leaf, 0) + 1
        leaf_capacity = self._space.arities[-1]
        return any(
            0 < population < min(self._min_subgroup, leaf_capacity)
            for population in leaf_populations.values()
        )

    def _target_fill(self, level: int) -> int:
        """Population a subgroup should reach before a sibling opens."""
        remaining_levels = self._space.depth - level
        # A leaf subgroup should hold min_subgroup processes; an inner
        # subtree should hold one full leaf subgroup per open level.
        return self._min_subgroup * max(remaining_levels, 1)

    def _subtree_full(self, prefix: Prefix, level: int) -> bool:
        capacity = 1
        for arity in self._space.arities[level:]:
            capacity *= arity
        return self.population(prefix) >= capacity

    def _slot_under(self, prefix: Prefix) -> Optional[Address]:
        """The smallest free final component under a depth-d prefix."""
        arity = self._space.arities[-1]
        for component in range(arity):
            candidate = Address(prefix.components + (component,))
            if candidate not in self._allocated:
                return candidate
        return None
