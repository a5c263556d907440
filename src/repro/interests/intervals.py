"""Interval arithmetic used to represent numeric interests compactly.

Interest regrouping (paper §2.3) must represent the *union* of many
processes' numeric constraints "in a way which avoids redundancies,
i.e., not just by simply forming a conjunction of the individual
interests, but by reducing the complexity of the interests both in
terms of memory space and in terms of evaluation time".

We therefore canonicalize every numeric constraint into an
:class:`IntervalSet` — a minimal sorted list of disjoint
:class:`Interval` s — whose union operation merges overlapping or
touching intervals, and whose :meth:`IntervalSet.hull` offers the
lossy-but-cheaper approximation the paper suggests for filters near the
root of the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple, Union

from repro.errors import PredicateError

__all__ = ["Interval", "IntervalSet"]

Numeric = Union[int, float]


@dataclass(frozen=True)
class Interval:
    """A single numeric interval with independently open/closed ends.

    ``lo``/``hi`` may be ``-inf``/``+inf``; infinite endpoints are
    always open.  An interval is *empty* when it contains no point; the
    constructor rejects empty intervals so :class:`IntervalSet` never
    has to normalize them away.
    """

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise PredicateError("interval endpoints cannot be NaN")
        if math.isinf(self.lo) and self.lo_closed:
            object.__setattr__(self, "lo_closed", False)
        if math.isinf(self.hi) and self.hi_closed:
            object.__setattr__(self, "hi_closed", False)
        if self.lo > self.hi:
            raise PredicateError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise PredicateError(
                f"empty interval: degenerate [{self.lo}, {self.hi}] "
                "with an open end"
            )

    @classmethod
    def point(cls, value: Numeric) -> "Interval":
        """The degenerate interval ``[value, value]``."""
        return cls(float(value), float(value), True, True)

    @classmethod
    def at_least(cls, value: Numeric, closed: bool = True) -> "Interval":
        """``[value, +inf)`` or ``(value, +inf)``."""
        return cls(float(value), math.inf, closed, False)

    @classmethod
    def at_most(cls, value: Numeric, closed: bool = True) -> "Interval":
        """``(-inf, value]`` or ``(-inf, value)``."""
        return cls(-math.inf, float(value), False, closed)

    def contains(self, value: Numeric) -> bool:
        """True if ``value`` lies inside this interval."""
        if value < self.lo or value > self.hi:
            return False
        if value == self.lo and not self.lo_closed:
            return False
        if value == self.hi and not self.hi_closed:
            return False
        return True

    def _overlaps_or_touches(self, other: "Interval") -> bool:
        """True if the union with ``other`` is a single interval."""
        first, second = (self, other) if self.lo <= other.lo else (other, self)
        if second.lo < first.hi:
            return True
        if second.lo > first.hi:
            return False
        # Endpoints meet: they merge unless both ends are open there.
        return first.hi_closed or second.lo_closed

    def merge(self, other: "Interval") -> "Interval":
        """The single interval covering both (they must overlap/touch)."""
        if not self._overlaps_or_touches(other):
            raise PredicateError(f"cannot merge disjoint {self} and {other}")
        if self.lo < other.lo:
            lo, lo_closed = self.lo, self.lo_closed
        elif other.lo < self.lo:
            lo, lo_closed = other.lo, other.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed or other.lo_closed
        if self.hi > other.hi:
            hi, hi_closed = self.hi, self.hi_closed
        elif other.hi > self.hi:
            hi, hi_closed = other.hi, other.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed or other.hi_closed
        return Interval(lo, hi, lo_closed, hi_closed)

    def covers(self, other: "Interval") -> bool:
        """True if every point of ``other`` lies in this interval."""
        if other.lo < self.lo or (
            other.lo == self.lo and other.lo_closed and not self.lo_closed
        ):
            return False
        if other.hi > self.hi or (
            other.hi == self.hi and other.hi_closed and not self.hi_closed
        ):
            return False
        return True

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


class IntervalSet:
    """A canonical union of disjoint intervals.

    The constructor normalizes: sorts by lower endpoint and merges any
    overlapping or touching intervals, so equality is structural
    equality of the canonical form.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        self._intervals = self._normalize(list(intervals))

    @staticmethod
    def _normalize(intervals: List[Interval]) -> Tuple[Interval, ...]:
        if not intervals:
            return ()
        ordered = sorted(
            intervals, key=lambda iv: (iv.lo, not iv.lo_closed, iv.hi)
        )
        merged = [ordered[0]]
        for interval in ordered[1:]:
            last = merged[-1]
            if last._overlaps_or_touches(interval):
                merged[-1] = last.merge(interval)
            else:
                merged.append(interval)
        return tuple(merged)

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The set matching no value."""
        return cls(())

    @property
    def is_empty(self) -> bool:
        """True if no value matches."""
        return not self._intervals

    @property
    def is_everything(self) -> bool:
        """True if every value matches."""
        return (
            len(self._intervals) == 1
            and math.isinf(self._intervals[0].lo)
            and math.isinf(self._intervals[0].hi)
        )

    def contains(self, value: Numeric) -> bool:
        """True if any member interval contains ``value``.

        Binary search over the canonical sorted intervals keeps interest
        matching cheap even for heavily fragmented summaries.
        """
        lo, hi = 0, len(self._intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            interval = self._intervals[mid]
            if interval.contains(value):
                return True
            if value < interval.lo:
                hi = mid - 1
            else:
                lo = mid + 1
        return False

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """The exact union (still canonical)."""
        return IntervalSet(self._intervals + other._intervals)

    def covers(self, other: "IntervalSet") -> bool:
        """True if every point of ``other`` is in this set."""
        return all(
            any(mine.covers(theirs) for mine in self._intervals)
            for theirs in other._intervals
        )

    def simplify(self, max_intervals: int) -> "IntervalSet":
        """Reduce to at most ``max_intervals`` pieces by merging nearest gaps.

        This is the paper's "reducing the complexity of the interests
        both in terms of memory space and in terms of evaluation time":
        the result covers the original (conservative), using the fewest
        extra points by always closing the smallest gap first.
        """
        if max_intervals < 1:
            raise PredicateError("max_intervals must be >= 1")
        intervals = list(self._intervals)
        while len(intervals) > max_intervals:
            gaps = [
                (intervals[i + 1].lo - intervals[i].hi, i)
                for i in range(len(intervals) - 1)
            ]
            __, index = min(gaps)
            merged = Interval(
                intervals[index].lo,
                intervals[index + 1].hi,
                intervals[index].lo_closed,
                intervals[index + 1].hi_closed,
            )
            intervals[index : index + 2] = [merged]
        return IntervalSet(intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(("IntervalSet", self._intervals))

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self):
        return iter(self._intervals)

    def __repr__(self) -> str:
        return "IntervalSet(" + " ∪ ".join(str(iv) for iv in self._intervals) + ")"
