"""Interest regrouping (paper §2.3).

"To represent the interests of all processes in a table, the interests
of the respective processes must be regrouped.  This is done in a way
which avoids redundancies [...] by reducing the complexity of the
interests both in terms of memory space and in terms of evaluation
time."

:func:`regroup` folds :meth:`Interest.union` over a subgroup's
interests, then (optionally) shrinks the summary to a complexity
budget — trading precision (more false positives when matching events
against the summary) for evaluation speed, exactly the compromise the
paper describes for filters closer to the root (§6, item 2).

The crucial soundness invariant, property-tested in the suite:

    if any member interest matches an event, the regrouped summary
    matches that event (no false negatives — an interested subgroup is
    never skipped during dissemination).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Optional

from repro.errors import PredicateError
from repro.interests.subscriptions import Interest, StaticInterest, Subscription

__all__ = ["regroup", "RegroupPolicy"]

_STATIC_ONLY = frozenset({StaticInterest})
_is_interested = attrgetter("_interested")  # the slot, not the property


class RegroupPolicy:
    """How aggressively to compact a regrouped summary.

    Args:
        max_complexity: once the exact union exceeds this many interval
            and string pieces, numeric constraints are simplified down
            to ``max_intervals_per_attribute`` pieces.  ``None``
            disables compaction (exact union).
        max_intervals_per_attribute: interval budget per attribute when
            compacting.
        widen_fraction: extra widening applied when compacting (the
            paper suggests *approximating* filters near the root).
    """

    __slots__ = ("max_complexity", "max_intervals_per_attribute", "widen_fraction")

    def __init__(
        self,
        max_complexity: Optional[int] = None,
        max_intervals_per_attribute: int = 1,
        widen_fraction: float = 0.0,
    ):
        if max_complexity is not None and max_complexity < 1:
            raise PredicateError("max_complexity must be >= 1 or None")
        if max_intervals_per_attribute < 1:
            raise PredicateError("max_intervals_per_attribute must be >= 1")
        if widen_fraction < 0:
            raise PredicateError("widen_fraction must be >= 0")
        self.max_complexity = max_complexity
        self.max_intervals_per_attribute = max_intervals_per_attribute
        self.widen_fraction = widen_fraction

    @classmethod
    def exact(cls) -> "RegroupPolicy":
        """Exact union, no compaction."""
        return cls(max_complexity=None)

    @classmethod
    def near_root(cls) -> "RegroupPolicy":
        """Aggressive compaction suited to views close to the root."""
        return cls(max_complexity=8, max_intervals_per_attribute=1,
                   widen_fraction=0.0)

    def __repr__(self) -> str:
        return (
            f"RegroupPolicy(max_complexity={self.max_complexity}, "
            f"max_intervals_per_attribute={self.max_intervals_per_attribute}, "
            f"widen_fraction={self.widen_fraction})"
        )


def regroup(
    interests: Iterable[Interest],
    policy: Optional[RegroupPolicy] = None,
) -> Interest:
    """Summarize a subgroup's interests into one conservative interest.

    Args:
        interests: the member interests; they must all be the same
            concrete type (all :class:`Subscription` or all
            :class:`StaticInterest`).
        policy: compaction policy; defaults to the exact union.

    Returns:
        an :class:`Interest` that matches every event any member
        matches (and possibly more, after compaction).

    Raises:
        PredicateError: on an empty iterable or mixed interest types.
    """
    interests = list(interests)
    if not interests:
        raise PredicateError("cannot regroup an empty set of interests")
    first = interests[0]
    if isinstance(first, StaticInterest):
        # The fold of ORs, with no union per member; no policy applies.
        if set(map(type, interests)) != _STATIC_ONLY:
            raise PredicateError("cannot regroup StaticInterest with other types")
        return StaticInterest(any(map(_is_interested, interests)))
    if not isinstance(first, Subscription):
        raise PredicateError(f"cannot regroup {type(first).__name__} interests")
    policy = policy or RegroupPolicy.exact()

    summary = Subscription.nothing()
    for interest in interests:
        summary = summary.union(interest)

    if (
        policy.max_complexity is not None
        and summary.complexity() > policy.max_complexity
    ):
        summary = summary.approximate(
            max_intervals=policy.max_intervals_per_attribute,
            widen_fraction=policy.widen_fraction,
        )
    return summary
