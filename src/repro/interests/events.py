"""Multicast events (paper §1, Figure 2).

An event is a named bag of typed attributes — the paper's example type
has an integer ``b``, a float ``c``, a string ``e`` and an integer
``z``.  Subscriptions constrain attributes by name; an attribute absent
from an event simply fails every non-wildcard constraint on it.
"""

from __future__ import annotations

import itertools
from typing import Dict, Mapping, Optional, Union

from repro.errors import PredicateError

__all__ = ["Event", "AttributeValue"]

AttributeValue = Union[int, float, str]

_event_ids = itertools.count()


def _validate_attribute(name: str, value: AttributeValue) -> AttributeValue:
    if not isinstance(name, str) or not name:
        raise PredicateError(f"attribute name {name!r} must be a non-empty string")
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise PredicateError(
            f"attribute {name!r} has unsupported value {value!r}; "
            "only int, float and str are supported"
        )
    return value


class Event:
    """An immutable multicast event with typed attributes.

    Args:
        attributes: mapping of attribute name to int/float/str value.
        event_id: optional stable identifier; a process-unique one is
            generated when omitted.  Identity (hashing, dedup in gossip
            buffers) is by ``event_id``, never by attribute content, so
            two distinct publications with equal payloads stay distinct.
    """

    __slots__ = ("_attributes", "_event_id")

    def __init__(
        self,
        attributes: Mapping[str, AttributeValue],
        event_id: Optional[int] = None,
    ):
        validated: Dict[str, AttributeValue] = {}
        for name, value in attributes.items():
            validated[name] = _validate_attribute(name, value)
        self._attributes = validated
        self._event_id = next(_event_ids) if event_id is None else event_id

    @property
    def event_id(self) -> int:
        """Stable identifier used for dedup in gossip buffers."""
        return self._event_id

    @property
    def attributes(self) -> Mapping[str, AttributeValue]:
        """Read-only view of the attributes."""
        return dict(self._attributes)

    def get(self, name: str) -> Optional[AttributeValue]:
        """Value of attribute ``name``, or None if absent."""
        return self._attributes.get(name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._event_id == other._event_id

    def __hash__(self) -> int:
        return hash(("Event", self._event_id))

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self._attributes.items()))
        return f"Event(id={self._event_id}, {attrs})"
