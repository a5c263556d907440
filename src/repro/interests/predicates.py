"""Per-attribute constraints: the building blocks of subscriptions.

The paper's example interests (Figure 2) constrain integer, float and
string attributes with equality, comparisons, ranges and disjunctions
("e = 'Bob' ∨ 'Tom'").  We compile every constraint into one of two
canonical forms so that interest regrouping (the per-attribute *union*
over many processes) stays closed and cheap:

* numeric constraints  -> :class:`IntervalSet`
* string constraints   -> a finite set of allowed strings, or "any"

:class:`Constraint` is that canonical form; the module-level factory
functions (:func:`eq`, :func:`gt`, :func:`between`, :func:`one_of`, …)
are the user-facing constructors.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Union

from repro.errors import PredicateError
from repro.interests.intervals import Interval, IntervalSet

__all__ = [
    "Constraint",
    "eq",
    "ne",
    "gt",
    "ge",
    "lt",
    "le",
    "between",
    "one_of",
]

Numeric = Union[int, float]
AttributeValue = Union[int, float, str]

# Sentinel: a string constraint of None means "any string" (wildcard on
# the string side), distinct from the empty set which matches nothing.
_ANY_STRINGS: Optional[FrozenSet[str]] = None


class Constraint:
    """Canonical per-attribute constraint.

    A constraint holds a numeric part (an :class:`IntervalSet`) and a
    string part (a finite ``frozenset`` of allowed values, or ``None``
    for "any string").  A value matches if it matches the part for its
    type.  The full wildcard accepts everything; the empty constraint
    accepts nothing.

    This two-sided representation lets the union of a numeric interest
    and a string interest on the same attribute name (possible once
    interests of many processes are regrouped) stay exact.
    """

    __slots__ = ("_numeric", "_strings")

    def __init__(
        self,
        numeric: IntervalSet,
        strings: Optional[FrozenSet[str]],
    ):
        self._numeric = numeric
        self._strings = strings

    # -- constructors -------------------------------------------------

    @classmethod
    def nothing(cls) -> "Constraint":
        """Accept no value at all (the identity of union)."""
        return cls(IntervalSet.empty(), frozenset())

    @classmethod
    def from_interval_set(cls, intervals: IntervalSet) -> "Constraint":
        """A purely numeric constraint."""
        return cls(intervals, frozenset())

    @classmethod
    def from_strings(cls, values: Iterable[str]) -> "Constraint":
        """A purely string constraint accepting exactly ``values``."""
        out = frozenset(values)
        for value in out:
            if not isinstance(value, str):
                raise PredicateError(f"string constraint got {value!r}")
        return cls(IntervalSet.empty(), out)

    # -- inspection ----------------------------------------------------

    @property
    def numeric(self) -> IntervalSet:
        """The numeric side of the constraint."""
        return self._numeric

    @property
    def strings(self) -> Optional[FrozenSet[str]]:
        """Allowed strings, or None when any string is accepted."""
        return self._strings

    @property
    def is_wildcard(self) -> bool:
        """True if every value (numeric or string) matches."""
        return self._numeric.is_everything and self._strings is _ANY_STRINGS

    @property
    def is_nothing(self) -> bool:
        """True if no value matches."""
        return self._numeric.is_empty and self._strings == frozenset()

    # -- semantics -----------------------------------------------------

    def matches(self, value: AttributeValue) -> bool:
        """True if ``value`` satisfies this constraint."""
        if isinstance(value, bool):
            raise PredicateError("boolean attribute values are not supported")
        if isinstance(value, str):
            return self._strings is _ANY_STRINGS or value in self._strings
        if isinstance(value, (int, float)):
            return self._numeric.contains(value)
        raise PredicateError(f"unsupported attribute value {value!r}")

    def union(self, other: "Constraint") -> "Constraint":
        """The exact union: matches iff either side matches."""
        numeric = self._numeric.union(other._numeric)
        if self._strings is _ANY_STRINGS or other._strings is _ANY_STRINGS:
            strings: Optional[FrozenSet[str]] = _ANY_STRINGS
        else:
            strings = self._strings | other._strings
        return Constraint(numeric, strings)

    def covers(self, other: "Constraint") -> bool:
        """True if every value matching ``other`` also matches this."""
        if not self._numeric.covers(other._numeric):
            return False
        if self._strings is _ANY_STRINGS:
            return True
        if other._strings is _ANY_STRINGS:
            return False
        return other._strings <= self._strings

    def approximate(self, max_intervals: int = 1) -> "Constraint":
        """A conservative, cheaper approximation (paper §6, item 2).

        Reduces the numeric side to at most ``max_intervals`` pieces;
        the string side is kept exact (string sets are already cheap).
        The result covers the original.
        """
        numeric = self._numeric
        if not numeric.is_empty:
            numeric = numeric.simplify(max_intervals)
        return Constraint(numeric, self._strings)

    def complexity(self) -> int:
        """A size measure: interval count plus string count.

        Interest regrouping aims to keep this low; the regrouping tests
        assert it never exceeds the sum of the inputs' complexities.
        """
        strings = 0 if self._strings is _ANY_STRINGS else len(self._strings)
        return len(self._numeric) + strings

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self._numeric == other._numeric and self._strings == other._strings

    def __hash__(self) -> int:
        return hash(("Constraint", self._numeric, self._strings))

    def __repr__(self) -> str:
        if self.is_wildcard:
            return "Constraint(*)"
        parts = []
        if not self._numeric.is_empty:
            parts.append(repr(self._numeric))
        if self._strings is _ANY_STRINGS:
            parts.append("any-string")
        elif self._strings:
            parts.append("{" + ", ".join(sorted(self._strings)) + "}")
        return "Constraint(" + " | ".join(parts or ["nothing"]) + ")"


# -- factory functions -------------------------------------------------


def _as_numeric(value: Numeric) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PredicateError(f"numeric predicate got {value!r}")
    return float(value)


def eq(value: AttributeValue) -> Constraint:
    """``attr = value`` for a number or a string."""
    if isinstance(value, str):
        return Constraint.from_strings((value,))
    return Constraint.from_interval_set(
        IntervalSet((Interval.point(_as_numeric(value)),))
    )


def ne(value: Numeric) -> Constraint:
    """``attr != value`` over numbers (two open rays)."""
    point = _as_numeric(value)
    return Constraint.from_interval_set(
        IntervalSet(
            (Interval.at_most(point, closed=False),
             Interval.at_least(point, closed=False))
        )
    )


def gt(value: Numeric) -> Constraint:
    """``attr > value``."""
    return Constraint.from_interval_set(
        IntervalSet((Interval.at_least(_as_numeric(value), closed=False),))
    )


def ge(value: Numeric) -> Constraint:
    """``attr >= value``."""
    return Constraint.from_interval_set(
        IntervalSet((Interval.at_least(_as_numeric(value), closed=True),))
    )


def lt(value: Numeric) -> Constraint:
    """``attr < value``."""
    return Constraint.from_interval_set(
        IntervalSet((Interval.at_most(_as_numeric(value), closed=False),))
    )


def le(value: Numeric) -> Constraint:
    """``attr <= value``."""
    return Constraint.from_interval_set(
        IntervalSet((Interval.at_most(_as_numeric(value), closed=True),))
    )


def between(
    lo: Numeric,
    hi: Numeric,
    lo_closed: bool = False,
    hi_closed: bool = False,
) -> Constraint:
    """``lo < attr < hi`` (the paper's ``10.0 < c < 220.0`` style).

    Endpoints are open by default, matching the figures in the paper;
    pass ``lo_closed``/``hi_closed`` for inclusive ends.
    """
    return Constraint.from_interval_set(
        IntervalSet(
            (Interval(_as_numeric(lo), _as_numeric(hi), lo_closed, hi_closed),)
        )
    )


def one_of(values: Iterable[AttributeValue]) -> Constraint:
    """A disjunction of exact values (``e = "Bob" ∨ "Tom"``)."""
    values = list(values)
    if not values:
        raise PredicateError("one_of needs at least one value")
    out = Constraint.nothing()
    for value in values:
        out = out.union(eq(value))
    return out
