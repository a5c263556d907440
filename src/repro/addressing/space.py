"""Address spaces (paper §2.2, Eq 1 and Eq 6).

An :class:`AddressSpace` fixes the depth ``d`` and the per-level arities
``a_1 .. a_d`` of the addressing scheme: component ``x(i)`` ranges over
``[0, a_i - 1]`` and the space holds at most ``prod(a_i)`` addresses.

The paper's analysis uses a *regular* space (Eq 6) where every level has
the same populated arity ``a``, giving ``n = a**d`` processes;
:func:`AddressSpace.regular` builds that case and
:meth:`AddressSpace.enumerate_regular` enumerates the full population.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

from repro.addressing.address import Address
from repro.errors import AddressError

__all__ = ["AddressSpace"]


class AddressSpace:
    """The set of valid addresses of a group.

    Args:
        arities: per-level maxima ``(a_1, .., a_d)``; component ``x(i)``
            must satisfy ``0 <= x(i) < a_i``.
    """

    __slots__ = ("_arities",)

    def __init__(self, arities: Sequence[int]):
        if not arities:
            raise AddressError("an address space needs at least one level")
        for arity in arities:
            if not isinstance(arity, int) or isinstance(arity, bool):
                raise AddressError(f"arity {arity!r} is not an integer")
            if arity < 1:
                raise AddressError(f"arity {arity} must be >= 1")
        self._arities = tuple(arities)

    @classmethod
    def regular(cls, arity: int, depth: int) -> "AddressSpace":
        """The regular space of Eq 6: ``depth`` levels of equal ``arity``."""
        if depth < 1:
            raise AddressError(f"depth {depth} must be >= 1")
        return cls((arity,) * depth)

    @property
    def arities(self) -> Tuple[int, ...]:
        """Per-level arities ``(a_1, .., a_d)``."""
        return self._arities

    @property
    def depth(self) -> int:
        """The address depth ``d``."""
        return len(self._arities)

    @property
    def capacity(self) -> int:
        """Maximum number of distinct addresses, ``prod(a_i)``."""
        total = 1
        for arity in self._arities:
            total *= arity
        return total

    def validate(self, address: Address) -> Address:
        """Return ``address`` unchanged, or raise :class:`AddressError`."""
        if address.depth != self.depth:
            raise AddressError(
                f"address {address} has depth {address.depth}, "
                f"space expects {self.depth}"
            )
        for index, (component, arity) in enumerate(
            zip(address.components, self._arities), start=1
        ):
            if component >= arity:
                raise AddressError(
                    f"component x({index})={component} of {address} "
                    f"exceeds arity {arity}"
                )
        return address

    def enumerate_regular(self, arity: int) -> List[Address]:
        """Enumerate the regular population of Eq 6 inside this space.

        Returns the ``arity ** d`` addresses whose every component is in
        ``[0, arity)``.  This is how the figure benches build their
        ``n = a**d`` groups.

        Raises:
            AddressError: if ``arity`` exceeds any level's capacity.
        """
        for level, cap in enumerate(self._arities, start=1):
            if arity > cap:
                raise AddressError(
                    f"regular arity {arity} exceeds capacity {cap} "
                    f"of level {level}"
                )
        return [
            Address(components)
            for components in itertools.product(range(arity), repeat=self.depth)
        ]

    def __repr__(self) -> str:
        return f"AddressSpace(arities={self._arities!r})"
