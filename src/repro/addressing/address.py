"""Hierarchical process addresses (paper §2.2).

An address is a sequence of non-negative integer components

    x(1).x(2). ... .x(d)

A *prefix of depth i* is the partial address ``x(1). ... .x(i-1)``; the
empty prefix (depth 1) is shared by every process.  The paper bases its
whole membership tree on the longest-common-prefix structure of these
addresses, so :class:`Address` and :class:`Prefix` are the bedrock types
of the library.

Addresses are immutable, hashable and totally ordered component-wise,
which the membership layer relies on for deterministic delegate election
("the R processes with the smallest addresses").
"""

from __future__ import annotations

import operator
from typing import Dict, Sequence, Tuple

from repro.errors import AddressError

__all__ = ["Address", "Prefix", "component_key"]


def _validate_components(components: Sequence[int]) -> Tuple[int, ...]:
    """Return ``components`` as a tuple, rejecting non-int or negative values."""
    out = []
    for component in components:
        if isinstance(component, bool) or not isinstance(component, int):
            raise AddressError(
                f"address component {component!r} is not an integer"
            )
        if component < 0:
            raise AddressError(f"address component {component} is negative")
        out.append(component)
    return tuple(out)


# Precomputed sort key for Address/Prefix: component_key(a) returns the
# component tuple, so ``sorted(addresses, key=component_key)`` orders
# exactly like ``sorted(addresses)`` but extracts the key once per
# element instead of calling ``__lt__`` O(n log n) times.  Also valid
# as a ``bisect`` key against an already-keyed list.  Bound to a
# C-level attrgetter: the membership plane calls it tens of millions of
# times per run, where a Python-level function frame is measurable.
component_key = operator.attrgetter("_components")


#: Process-wide intern table for prefixes built on trusted paths.  An
#: Address's components are validated once at construction; every
#: prefix sliced from them is therefore valid by construction and can
#: skip re-validation.  Interning makes the depth-wise ``prefix(i)``
#: objects shared across all addresses of a subgroup, so the detection
#: loop's ``suspect.prefix(d) == own_subgroup`` checks usually resolve
#: by identity.  The table only ever grows; the group's prefix universe
#: is O(n) and bounded by the address space, so this is not a leak.
_INTERNED: Dict[Tuple[int, ...], "Prefix"] = {}


def _intern_prefix(components: Tuple[int, ...]) -> "Prefix":
    """Trusted constructor: ``components`` must be a validated int tuple."""
    prefix = _INTERNED.get(components)
    if prefix is None:
        prefix = Prefix.__new__(Prefix)
        prefix._components = components
        prefix._hash = hash((1, components))
        _INTERNED[components] = prefix
    return prefix


class Prefix:
    """A partial address ``x(1). ... .x(i-1)`` denoting a subgroup.

    A prefix of *depth* ``i`` has ``i - 1`` components; the empty prefix
    has depth 1 and denotes the whole group (the root of the tree).

    Prefixes are immutable and hashable so they can key view tables and
    subgroup maps.
    """

    __slots__ = ("_components", "_hash")

    def __init__(self, components: Sequence[int] = ()):
        self._components = _validate_components(components)
        # Precomputed (hashing is hot: every view/table/cache lookup),
        # and built from ints only: int hashing is not randomized by
        # PYTHONHASHSEED, so hash-ordered structures behave identically
        # across processes — a prerequisite for reproducible runs.
        # The leading marker keeps Prefix and Address hashes distinct.
        self._hash = hash((1, self._components))

    @property
    def components(self) -> Tuple[int, ...]:
        """The integer components of this prefix."""
        return self._components

    @property
    def depth(self) -> int:
        """Tree depth denoted by this prefix (empty prefix has depth 1)."""
        return len(self._components) + 1

    def child(self, component: int) -> "Prefix":
        """Return the prefix one level deeper obtained by appending ``component``."""
        return Prefix(self._components + (component,))

    def is_prefix_of(self, address: "Address") -> bool:
        """True if ``address`` starts with this prefix's components."""
        return address.components[: len(self._components)] == self._components

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse a dotted string such as ``"128.178"`` into a prefix.

        The empty string parses to the empty (root) prefix.
        """
        if text == "":
            return cls(())
        try:
            components = tuple(int(part) for part in text.split("."))
        except ValueError as exc:
            raise AddressError(f"cannot parse prefix {text!r}") from exc
        return cls(components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Prefix({'.'.join(str(c) for c in self._components)!r})"

    def __str__(self) -> str:
        return ".".join(str(c) for c in self._components)


class Address:
    """A full process address ``x(1). ... .x(d)``.

    Addresses are immutable, hashable, and ordered lexicographically by
    components.  Two addresses in the same group must have the same
    number of components ``d`` (enforced by
    :class:`repro.addressing.space.AddressSpace`, not by this class, so
    that the class can also represent free-standing IP-like addresses).
    """

    __slots__ = ("_components", "_hash", "_prefixes")

    def __init__(self, components: Sequence[int]):
        parts = _validate_components(components)
        if not parts:
            raise AddressError("an address needs at least one component")
        self._components = parts
        # See Prefix.__init__: precomputed, int-only, process-stable.
        self._hash = hash((2, parts))
        # Lazily built tuple of interned prefixes, depth 1..d.  The
        # membership plane asks for the same prefixes millions of times
        # per run; an address is immutable, so they never change.
        self._prefixes: Tuple[Prefix, ...] | None = None

    @property
    def components(self) -> Tuple[int, ...]:
        """The integer components of this address."""
        return self._components

    @property
    def depth(self) -> int:
        """The number of components ``d``."""
        return len(self._components)

    def prefix(self, depth: int) -> Prefix:
        """Return this address's prefix of the given tree ``depth``.

        A prefix of depth ``i`` consists of the first ``i - 1``
        components; ``prefix(1)`` is the empty prefix and
        ``prefix(d)`` drops only the last component.

        Raises:
            AddressError: if ``depth`` is not in ``[1, d]``.
        """
        cached = self._prefixes
        if cached is None:
            cached = self.prefixes()
        if not 1 <= depth <= len(cached):
            raise AddressError(
                f"prefix depth {depth} out of range [1, {self.depth}]"
            )
        return cached[depth - 1]

    def prefixes(self) -> Tuple[Prefix, ...]:
        """All prefixes of this address, depth 1 to depth d, as a tuple.

        The tuple is memoized on the (immutable) address and its
        elements are interned: every address of a subgroup returns the
        *same* :class:`Prefix` objects, so equality checks between
        prefixes of co-located addresses short-circuit on identity.
        """
        cached = self._prefixes
        if cached is None:
            components = self._components
            cached = tuple(
                _intern_prefix(components[:i]) for i in range(len(components))
            )
            self._prefixes = cached
        return cached

    @classmethod
    def parse(cls, text: str) -> "Address":
        """Parse a dotted string such as ``"128.178.73.3"``."""
        try:
            components = tuple(int(part) for part in text.split("."))
        except ValueError as exc:
            raise AddressError(f"cannot parse address {text!r}") from exc
        return cls(components)

    def __eq__(self, other: object) -> bool:
        # Exact-type check first: address equality runs millions of
        # times per simulated round (set/dict probes, peer-identity
        # guards), and ``type(x) is Address`` is a pointer compare
        # where ``isinstance`` walks the MRO.
        if type(other) is Address:
            return self._components == other._components
        if not isinstance(other, Address):
            return NotImplemented
        return self._components == other._components

    def __lt__(self, other: "Address") -> bool:
        if not isinstance(other, Address):
            return NotImplemented
        return self._components < other._components

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Address({'.'.join(str(c) for c in self._components)!r})"

    def __str__(self) -> str:
        return ".".join(str(c) for c in self._components)
