"""Tests for the Event type."""

import pytest

from repro.errors import PredicateError
from repro.interests import Event


class TestEventConstruction:
    def test_attributes_readable(self):
        event = Event({"b": 3, "c": 1.5, "e": "Bob"})
        assert event.get("b") == 3
        assert event.get("c") == 1.5
        assert event.get("missing") is None
        assert "e" in event.attributes and "q" not in event.attributes

    def test_attributes_copy_is_returned(self):
        event = Event({"b": 3})
        snapshot = event.attributes
        snapshot["b"] = 99
        assert event.get("b") == 3

    def test_bad_attribute_value_rejected(self):
        with pytest.raises(PredicateError):
            Event({"b": [1, 2]})
        with pytest.raises(PredicateError):
            Event({"b": True})

    def test_bad_attribute_name_rejected(self):
        with pytest.raises(PredicateError):
            Event({"": 1})
        with pytest.raises(PredicateError):
            Event({3: 1})


class TestEventIdentity:
    def test_auto_ids_are_unique(self):
        a, b = Event({"x": 1}), Event({"x": 1})
        assert a.event_id != b.event_id
        assert a != b

    def test_identity_is_by_id_not_payload(self):
        a = Event({"x": 1}, event_id=7)
        b = Event({"x": 999}, event_id=7)
        assert a == b
        assert hash(a) == hash(b)

    def test_usable_in_sets(self):
        a = Event({"x": 1}, event_id=1)
        b = Event({"x": 1}, event_id=2)
        assert len({a, b}) == 2

    def test_repr_mentions_attributes(self):
        assert "b=3" in repr(Event({"b": 3}))
