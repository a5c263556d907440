"""Hierarchical addressing: the spatial substrate of pmcast (paper §2.2).

Exports:
    Address, Prefix       -- dotted hierarchical identifiers
    AddressSpace          -- the set of valid addresses of a group
    distance, shared_prefix_depth -- the paper's metric
"""

from repro.addressing.address import Address, Prefix, component_key
from repro.addressing.allocation import AddressAllocator
from repro.addressing.distance import distance, shared_prefix_depth
from repro.addressing.space import AddressSpace

__all__ = [
    "Address",
    "Prefix",
    "component_key",
    "AddressSpace",
    "AddressAllocator",
    "distance",
    "shared_prefix_depth",
]
