"""Subscriptions: process interests as conjunctions of constraints.

A subscription is what Figure 2 of the paper shows in each "Interests"
cell: a conjunction of per-attribute constraints, e.g.
``b > 3, 10.0 < c < 220.0``.  "The absence of a criterion for a given
attribute is interpreted as a wildcard", so a subscription only stores
non-wildcard constraints.

Two interest implementations share the :class:`Interest` interface:

* :class:`Subscription` — full content-based matching;
* :class:`StaticInterest` — a plain boolean, the i.i.d. Bernoulli(p_d)
  model of the paper's analysis (§4.1) and evaluation (§5), where each
  process is interested in "the single observed event" or not.  The
  coin has two outcomes, so the class has two instances:
  ``StaticInterest(x)`` returns the shared one for ``bool(x)``, and a
  group of any size allocates no interest and fingerprints none.

Both support :meth:`Interest.union`, the primitive that interest
regrouping (:mod:`repro.interests.regrouping`) folds over a subgroup.

An interest's fingerprint (:meth:`Interest.fingerprint`) is a small int
local to one process.  Pickling rebuilds an interest from its structure
alone, so an unpickled interest is fingerprinted afresh where it lands
(and an unpickled :class:`StaticInterest` is the shared instance).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterator, Mapping, Tuple

from repro.errors import PredicateError
from repro.interests.events import Event
from repro.interests.predicates import Constraint

__all__ = ["Interest", "Subscription", "StaticInterest"]


#: Interned fingerprints: structural identity -> small stable int.
#: Structurally equal interests recur massively (regrouping folds the
#: same unions per subtree; Bernoulli workloads have only two distinct
#: interests), so the table stays tiny relative to the group.
_FINGERPRINTS: Dict["Interest", int] = {}


class Interest(ABC):
    """Anything that can decide interest in an event and be regrouped.

    A subclass sets ``_fp`` at construction: ``0`` (not fingerprinted
    yet) or its interned fingerprint.
    """

    __slots__ = ("_fp",)

    @abstractmethod
    def matches(self, event: Event) -> bool:
        """True if this interest wants ``event`` delivered."""

    @abstractmethod
    def union(self, other: "Interest") -> "Interest":
        """A conservative summary matching whenever either side matches."""

    def fingerprint(self) -> int:
        """A stable int identifying this interest's *structure*.

        Structurally equal interests (``==``) share a fingerprint, and a
        fingerprint is never reused for a different structure, so
        ``(fingerprint, event_id)`` keys a match-verdict cache that
        survives membership churn — unlike ``id(table)`` keys, which die
        (or worse, get recycled) whenever views are rebuilt.

        The int is local to this process: it is never pickled, so an
        interest sent to another process cannot name a structure the
        other process numbered differently.

        Relies on subclasses being immutable with structural
        ``__eq__``/``__hash__``, which both implementations are.
        """
        fp = self._fp
        if not fp:
            fp = self._fp = _FINGERPRINTS.setdefault(self, len(_FINGERPRINTS) + 1)
        return fp


class Subscription(Interest):
    """A conjunction of per-attribute constraints.

    Args:
        constraints: attribute name -> :class:`Constraint`.  Wildcard
            constraints are dropped (absence means wildcard); an
            explicitly empty mapping therefore matches *every* event.

    Use :meth:`Subscription.nothing` for the interest that matches no
    event (the identity of :meth:`union`).
    """

    __slots__ = ("_constraints", "_never")

    def __init__(self, constraints: Mapping[str, Constraint] = (), *, _never: bool = False):
        cleaned: Dict[str, Constraint] = {}
        if not _never:
            items = constraints.items() if hasattr(constraints, "items") else constraints
            for name, constraint in items:
                if not isinstance(constraint, Constraint):
                    raise PredicateError(
                        f"constraint for {name!r} is {constraint!r}, "
                        "expected a Constraint"
                    )
                if constraint.is_nothing:
                    # One unsatisfiable conjunct voids the whole conjunction.
                    cleaned = {}
                    _never = True
                    break
                if not constraint.is_wildcard:
                    cleaned[name] = constraint
        self._constraints = cleaned
        self._never = _never
        self._fp = 0

    def __reduce__(self):
        if self._never:
            return Subscription.nothing, ()
        return Subscription, (self._constraints,)

    @classmethod
    def nothing(cls) -> "Subscription":
        """The subscription matching no event (union identity)."""
        return cls({}, _never=True)

    @property
    def is_nothing(self) -> bool:
        """True if no event matches."""
        return self._never

    def matches(self, event: Event) -> bool:
        """True if the event satisfies every constraint.

        An event that lacks a constrained attribute does not match.
        """
        if self._never:
            return False
        for name, constraint in self._constraints.items():
            value = event.get(name)
            if value is None or not constraint.matches(value):
                return False
        return True

    def union(self, other: Interest) -> "Subscription":
        """Per-attribute union: the canonical conservative summary.

        Only attributes constrained on *both* sides stay constrained
        (an attribute unconstrained on either side is a wildcard in the
        union), so the result matches whenever either input matches —
        possibly more.  This is exactly the paper's interest
        regrouping primitive, and the hypothesis suite checks the
        no-false-negative property.
        """
        if not isinstance(other, Subscription):
            raise PredicateError(
                f"cannot union a Subscription with {type(other).__name__}"
            )
        if self._never:
            return other
        if other._never:
            return self
        merged: Dict[str, Constraint] = {}
        for name in set(self._constraints) & set(other._constraints):
            combined = self._constraints[name].union(other._constraints[name])
            if not combined.is_wildcard:
                merged[name] = combined
        return Subscription(merged)

    def covers(self, other: "Subscription") -> bool:
        """True if every event matching ``other`` matches this one.

        Sound but not complete across attributes: it checks
        constraint-wise coverage, which suffices for the regrouping
        invariants tested here.
        """
        if other._never:
            return True
        if self._never:
            return False
        for name, constraint in self._constraints.items():
            if name not in other._constraints:
                return False
            if not constraint.covers(other._constraints[name]):
                return False
        return True

    def approximate(self, max_intervals: int = 1) -> "Subscription":
        """Approximate every constraint (filters near the root, §6)."""
        if self._never:
            return self
        return Subscription(
            {
                name: constraint.approximate(max_intervals)
                for name, constraint in self._constraints.items()
            }
        )

    def complexity(self) -> int:
        """Total size of all constraints (regrouping keeps this low)."""
        return sum(c.complexity() for c in self._constraints.values())

    def __iter__(self) -> Iterator[Tuple[str, Constraint]]:
        return iter(sorted(self._constraints.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subscription):
            return NotImplemented
        return self._never == other._never and self._constraints == other._constraints

    def __hash__(self) -> int:
        return hash(
            ("Subscription", self._never, tuple(sorted(self._constraints.items())))
        )

    def __repr__(self) -> str:
        if self._never:
            return "Subscription(nothing)"
        if not self._constraints:
            return "Subscription(*)"
        body = ", ".join(
            f"{name}: {constraint!r}"
            for name, constraint in sorted(self._constraints.items())
        )
        return f"Subscription({body})"


class StaticInterest(Interest):
    """The Bernoulli analysis model: interested in the observed event or not.

    The paper's analysis (§4.1) models interest as an i.i.d. coin flip
    per process for a single observed event; this class is that coin's
    outcome, with union = logical OR.

    There are exactly two instances: ``StaticInterest(x)`` returns the
    shared one for ``bool(x)`` — so equality is identity — and copying
    or unpickling one returns it too.
    """

    __slots__ = ("_interested",)

    def __new__(cls, interested: bool) -> "StaticInterest":
        return _INTERESTED if interested else _UNINTERESTED

    def __reduce__(self):
        return StaticInterest, (self._interested,)

    @property
    def interested(self) -> bool:
        """The fixed outcome of the interest coin flip."""
        return self._interested

    def matches(self, event: Event) -> bool:
        """Interest is independent of event content in this model."""
        return self._interested

    def union(self, other: Interest) -> "StaticInterest":
        if not isinstance(other, StaticInterest):
            raise PredicateError(
                f"cannot union a StaticInterest with {type(other).__name__}"
            )
        return self if self._interested else other

    def __hash__(self) -> int:
        return hash(("StaticInterest", self._interested))

    def __repr__(self) -> str:
        return f"StaticInterest({self._interested})"


def _intern(interested: bool) -> StaticInterest:
    """The shared instance for one coin outcome, fingerprinted at birth."""
    interest = object.__new__(StaticInterest)
    interest._interested = interested
    interest._fp = _FINGERPRINTS.setdefault(interest, len(_FINGERPRINTS) + 1)
    return interest


_UNINTERESTED = _intern(False)
_INTERESTED = _intern(True)
