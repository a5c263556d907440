"""Compiled interests: every verdict of one event in one array pass.

GETRATE (§3.3) matches an event against every regrouped interest of a
view table, which the paper calls costly.  :class:`VerdictColumns`
compiles each distinct interest once — keyed by
:meth:`~repro.interests.subscriptions.Interest.fingerprint`, so
structurally equal interests share a *position* — into append-only
arrays, and :meth:`VerdictColumns.evaluate` answers ``matches(event)``
for a run of positions in a handful of numpy operations instead of one
Python frame per interest.

The arrays hold:

* per position, its *base* verdict — a :class:`StaticInterest`'s coin,
  False for :meth:`Subscription.nothing`, True for any other
  subscription (so one with no constraint, the wildcard, matches every
  event) — and where its constraints start;
* per constraint, its owner, its attribute and whether it takes any
  string;
* per numeric interval, its constraint, ends and open/closed flags;
* per allowed string, its constraint and the string's code.

Codes are handed out in the order a constraint's frozenset yields its
strings, which the hash seed sets; a code only names a string, so no
verdict depends on that order.

A subscription matches when its base holds and every constraint holds:
the event has the attribute, and a numeric value lies in one of the
constraint's intervals or a string value is allowed.  The compare is
exact as Python's is: an int beyond 2⁵³ is compared against the float
ends through the nearest float above it, never rounded onto an end.
:meth:`Interest.matches <repro.interests.subscriptions.Interest.matches>`
stays the definition; ``tests/interests/test_columns.py`` holds the two
equal.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Iterable, List

import numpy as np

from repro.errors import PredicateError
from repro.interests.events import Event
from repro.interests.subscriptions import Interest, StaticInterest, Subscription

__all__ = ["VerdictColumns"]

#: An attribute's kind in an event: absent, a number or a string.
_ABSENT, _NUMBER, _STRING = 0, 1, 2


def _number(value) -> tuple:
    """``(x, exact)`` for a numeric attribute value: ``x`` is the value
    as a float when that is exact, else the least float above it (an
    int no float holds lies strictly between ``x``'s neighbours)."""
    if isinstance(value, float):
        return value, True
    try:
        x = float(value)
    except OverflowError:
        return (math.inf if value > 0 else -sys.float_info.max), False
    if x == value:
        return x, True
    return (x if x > value else math.nextafter(x, math.inf)), False


class VerdictColumns:
    """Distinct interests compiled into append-only arrays, one position
    each (see the module docstring)."""

    __slots__ = (
        "_position", "_names", "_codes", "_lists", "_arrays",
    )

    #: The columns, by what one entry stands for.
    _POSITION = ("base", "constraint_at", "interval_at", "string_at")
    _CONSTRAINT = ("owner", "attribute", "any_string")
    _INTERVAL = ("interval_of", "lo", "hi", "lo_closed", "hi_closed")
    _STRING = ("string_of", "code")

    def __init__(self) -> None:
        self._position: Dict[int, int] = {}  # fingerprint -> position
        self._names: Dict[str, int] = {}     # attribute -> id
        self._codes: Dict[str, int] = {}     # allowed string -> code
        names = self._POSITION + self._CONSTRAINT + self._INTERVAL + self._STRING
        self._lists: Dict[str, list] = {name: [] for name in names}
        for name in self._POSITION[1:]:
            self._lists[name].append(0)  # each "_at" column has a tail entry
        self._arrays: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._position)

    def positions(self, interests: Iterable[Interest]) -> List[int]:
        """The position of each of ``interests``, in order, compiling
        the ones not seen before."""
        position = self._position
        out, fresh = [], []
        for interest in interests:
            fingerprint = interest.fingerprint()
            at = position.get(fingerprint)
            if at is None:
                at = position[fingerprint] = len(position)
                fresh.append(interest)
            out.append(at)
        if fresh:
            self._compile(fresh, len(position) - len(fresh))
        return out

    def _compile(self, interests: List[Interest], at: int) -> None:
        """Append ``interests``, at positions ``at ..``, to the lists."""
        lists, names, codes = self._lists, self._names, self._codes
        base, owner, attribute, any_string = (
            lists[name].append for name in ("base", "owner", "attribute", "any_string")
        )
        interval_of, lo, hi, lo_closed, hi_closed = (lists[name].append for name in self._INTERVAL)
        string_of, code = lists["string_of"].append, lists["code"].append
        ends = [lists[name].append for name in self._POSITION[1:]]
        constraints = len(lists["owner"])
        for interest in interests:
            if type(interest) is StaticInterest:
                base(interest.interested)
            elif type(interest) is Subscription:
                base(not interest.is_nothing)
                for name, constraint in interest:
                    owner(at)
                    attribute(names.setdefault(name, len(names)))
                    allowed = constraint.strings
                    any_string(allowed is None)
                    for interval in constraint.numeric:
                        interval_of(constraints)
                        lo(interval.lo)
                        hi(interval.hi)
                        lo_closed(interval.lo_closed)
                        hi_closed(interval.hi_closed)
                    for value in allowed or ():
                        string_of(constraints)
                        code(codes.setdefault(value, len(codes)))
                    constraints += 1
            else:
                raise PredicateError(f"cannot compile a {type(interest).__name__}")
            for end, column in zip(ends, ("owner", "interval_of", "string_of")):
                end(len(lists[column]))
            at += 1

    def _sync(self) -> Dict[str, np.ndarray]:
        """The columns as arrays, extended by what was compiled since."""
        arrays = self._arrays
        for name, values in self._lists.items():
            held = arrays.get(name)
            done = 0 if held is None else len(held)
            if done < len(values) or held is None:
                dtype = (
                    float if name in ("lo", "hi")
                    else bool if name in ("base", "any_string", "lo_closed", "hi_closed")
                    else np.int64
                )
                tail = np.array(values[done:], dtype)
                arrays[name] = tail if held is None else np.concatenate((held, tail))
        return arrays

    def evaluate(self, event: Event, start: int = 0) -> np.ndarray:
        """``matches(event)`` of positions ``start ..`` in order, in one
        array pass."""
        count = len(self) - start
        if count <= 0:
            return np.zeros(0, bool)
        a = self._sync()
        kind = np.zeros(len(self._names), np.int8)
        x = np.zeros(len(self._names))
        exact = np.ones(len(self._names), bool)
        code = np.full(len(self._names), -1, np.int64)
        for name, attribute in self._names.items():
            value = event.get(name)
            if value is None:
                continue
            if isinstance(value, str):
                kind[attribute] = _STRING
                code[attribute] = self._codes.get(value, -1)
            else:
                kind[attribute] = _NUMBER
                x[attribute], exact[attribute] = _number(value)
        c0 = a["constraint_at"][start]
        held = np.zeros(len(a["owner"]) - c0, bool)
        i0 = a["interval_at"][start]
        if i0 < len(a["interval_of"]):
            of = a["interval_of"][i0:]
            at = a["attribute"][of]
            v, sure = x[at], exact[at]
            lo, hi = a["lo"][i0:], a["hi"][i0:]
            # Below the low end, or on an end the interval leaves open;
            # an inexact value is never on an end (v is the float above it).
            outside = (
                (v < lo) | ((v == lo) & ~(sure & a["lo_closed"][i0:]))
                | (v > hi) | ((v == hi) & sure & ~a["hi_closed"][i0:])
            )
            held[of[(kind[at] == _NUMBER) & ~outside] - c0] = True
        s0 = a["string_at"][start]
        if s0 < len(a["string_of"]):
            of = a["string_of"][s0:]
            at = a["attribute"][of]
            allowed = (kind[at] == _STRING) & (a["code"][s0:] == code[at])
            held[of[allowed] - c0] = True
        held |= a["any_string"][c0:] & (kind[a["attribute"][c0:]] == _STRING)
        failed = np.bincount(a["owner"][c0:][~held] - start, minlength=count)
        return a["base"][start:] & (failed == 0)
