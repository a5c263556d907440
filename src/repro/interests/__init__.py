"""Content-based interests: events, predicates, subscriptions, regrouping.

This subpackage implements the publish/subscribe side of the paper:
typed events (§1, Figure 2), per-attribute constraints, subscriptions
as conjunctions, the textual interest syntax of Figure 2, and interest
regrouping (§2.3) with the soundness guarantee that a regrouped summary
never misses an event a member wanted.
"""

from repro.interests.events import AttributeValue, Event
from repro.interests.intervals import Interval, IntervalSet
from repro.interests.language import parse_subscription
from repro.interests.predicates import (
    Constraint,
    between,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
    one_of,
)
from repro.interests.regrouping import RegroupPolicy, regroup
from repro.interests.subscriptions import Interest, StaticInterest, Subscription

__all__ = [
    "AttributeValue",
    "Event",
    "Interval",
    "IntervalSet",
    "Constraint",
    "between",
    "eq",
    "ne",
    "gt",
    "ge",
    "lt",
    "le",
    "one_of",
    "parse_subscription",
    "RegroupPolicy",
    "regroup",
    "Interest",
    "StaticInterest",
    "Subscription",
]
