"""Tests for the Figure 2 textual subscription syntax."""

import pytest

from repro.errors import ParseError
from repro.interests import Event, parse_subscription


class TestPaperExamples:
    """Every interest string appearing in the paper's Figure 2 parses."""

    FIGURE2 = [
        "z > 10000",
        "b > 0",
        "b > 3, 10.0 < c < 220.0",
        'b = 2, e ="Bob" | "Tom"',
        "b > 1, c > 155.6",
        "b = 3, z = 42000",
        "b > 0, c > 20.0",
        'b > 5, e ="Tom"',
        "b > 4, 20.0 < c < 35.0, z < 23002",
        "b > 6, z > 45320",
        "b = 2, c > 40.0, z = 20000",
        "b = 5, c > 53.5",
        "b > 1, 20.0 < c < 30.0, z <= 50000",
        "b = 4, 2000 < z < 30000",
        "b = 3, c >= 35.997",
        "b = 2",
    ]

    @pytest.mark.parametrize("text", FIGURE2)
    def test_parses(self, text):
        parse_subscription(text)

    def test_range_semantics(self):
        subscription = parse_subscription("10.0 < c < 220.0")
        assert subscription.matches(Event({"c": 10.5}))
        assert not subscription.matches(Event({"c": 10.0}))
        assert not subscription.matches(Event({"c": 220.0}))

    def test_string_disjunction(self):
        subscription = parse_subscription('e = "Bob" | "Tom"')
        assert subscription.matches(Event({"e": "Bob"}))
        assert subscription.matches(Event({"e": "Tom"}))
        assert not subscription.matches(Event({"e": "Eve"}))

    def test_conjunction_of_clauses(self):
        subscription = parse_subscription("b > 4, 20.0 < c < 35.0, z < 23002")
        assert subscription.matches(Event({"b": 5, "c": 30.0, "z": 100}))
        assert not subscription.matches(Event({"b": 5, "c": 30.0, "z": 99999}))

    def test_inclusive_range(self):
        subscription = parse_subscription("1 <= b <= 3")
        assert subscription.matches(Event({"b": 1}))
        assert subscription.matches(Event({"b": 3}))
        assert not subscription.matches(Event({"b": 4}))


class TestSyntaxVariants:
    def test_or_keyword_and_unicode(self):
        for text in ('e = "a" or "b"', 'e = "a" ∨ "b"', "e = 'a' | 'b'"):
            subscription = parse_subscription(text)
            assert subscription.matches(Event({"e": "a"}))
            assert subscription.matches(Event({"e": "b"}))

    def test_numeric_disjunction(self):
        subscription = parse_subscription("b = 1 | 3 | 5")
        assert subscription.matches(Event({"b": 3}))
        assert not subscription.matches(Event({"b": 2}))

    def test_not_equal(self):
        subscription = parse_subscription("b != 2")
        assert subscription.matches(Event({"b": 1}))
        assert not subscription.matches(Event({"b": 2}))

    def test_floats_and_scientific(self):
        subscription = parse_subscription("c >= 1.5e2")
        assert subscription.matches(Event({"c": 151.0}))
        assert not subscription.matches(Event({"c": 149.0}))

    def test_negative_numbers(self):
        subscription = parse_subscription("b > -5")
        assert subscription.matches(Event({"b": -4}))
        assert not subscription.matches(Event({"b": -6}))

    def test_empty_string_matches_everything(self):
        assert parse_subscription("").matches(Event({"x": 1}))


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "b >",                    # missing value
            "b > 3,",                 # trailing comma
            "3 < b",                  # half a range
            "3 > b > 1",              # wrong range operators
            "5 < b < 1",              # empty range
            'b > "Tom"',              # string with ordering operator
            "b = 1 | ",               # dangling disjunction
            "b ! 3",                  # bad operator
            "b > 3 c > 4",            # missing comma
            "b > 3, b < 5",           # attribute constrained twice
            "@#$",                    # garbage characters
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_subscription(text)

    def test_error_mentions_offset(self):
        with pytest.raises(ParseError, match="offset"):
            parse_subscription("b > 3, c !! 2")
