"""A tiny textual subscription language mirroring the paper's Figure 2.

Examples accepted (commas separate conjuncts):

    b > 3, 10.0 < c < 220.0
    b = 2, e = "Bob" | "Tom"
    b > 4, 20.0 < c < 35.0, z < 23002
    z <= 50000, c >= 35.997, b != 2

Grammar (informal)::

    subscription := clause ("," clause)*
    clause       := range | comparison
    range        := NUMBER relop IDENT relop NUMBER    # relop in {<, <=}
    comparison   := IDENT op value ("|" value)*        # "|" only with "="
    op           := "=" | "!=" | "<" | "<=" | ">" | ">="
    value        := NUMBER | STRING

The disjunction symbol may be written ``|``, ``∨`` or ``or``.  Strings
take single or double quotes.  The empty string parses to the
match-everything subscription (no criteria at all).
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Union

from repro.errors import ParseError
from repro.interests.predicates import (
    Constraint,
    between,
    ge,
    gt,
    le,
    lt,
    ne,
    one_of,
)
from repro.interests.subscriptions import Subscription

__all__ = ["parse_subscription"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<or>\||∨|\bor\b)
  | (?P<comma>,)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r} at offset {position}"
            )
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), position))
        position = match.end()
    return tokens


_Number = Union[int, float]


def _parse_number(text: str) -> _Number:
    if re.fullmatch(r"[+-]?\d+", text):
        return int(text)
    return float(text)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: List[_Token], source: str):
        self._tokens = tokens
        self._source = source
        self._index = 0

    def _peek(self) -> Optional[_Token]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError(f"unexpected end of input in {self._source!r}")
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} at offset {token.position} "
                f"in {self._source!r}, got {token.text!r}"
            )
        return token

    def parse(self) -> Subscription:
        constraints: Dict[str, Constraint] = {}
        while self._peek() is not None:
            name, constraint = self._clause()
            if name in constraints:
                # A repeated attribute is a further conjunct: the event
                # must satisfy both, which union cannot express; reject
                # to keep semantics unambiguous.
                raise ParseError(
                    f"attribute {name!r} constrained twice in {self._source!r}"
                )
            constraints[name] = constraint
            token = self._peek()
            if token is None:
                break
            if token.kind != "comma":
                raise ParseError(
                    f"expected ',' at offset {token.position} "
                    f"in {self._source!r}, got {token.text!r}"
                )
            self._next()
            if self._peek() is None:
                raise ParseError(
                    f"trailing ',' at offset {token.position} "
                    f"in {self._source!r}"
                )
        return Subscription(constraints)

    def _clause(self):
        token = self._peek()
        if token is None:
            raise ParseError(f"empty clause in {self._source!r}")
        if token.kind == "number":
            return self._range_clause()
        return self._comparison_clause()

    def _range_clause(self):
        lo_token = self._expect("number")
        lo_op = self._expect("op")
        if lo_op.text not in ("<", "<="):
            raise ParseError(
                f"range clause needs '<' or '<=' at offset {lo_op.position}"
            )
        ident = self._expect("ident")
        hi_op = self._expect("op")
        if hi_op.text not in ("<", "<="):
            raise ParseError(
                f"range clause needs '<' or '<=' at offset {hi_op.position}"
            )
        hi_token = self._expect("number")
        lo = _parse_number(lo_token.text)
        hi = _parse_number(hi_token.text)
        if lo > hi:
            raise ParseError(
                f"empty range {lo} .. {hi} for {ident.text!r} in {self._source!r}"
            )
        constraint = between(
            lo,
            hi,
            lo_closed=(lo_op.text == "<="),
            hi_closed=(hi_op.text == "<="),
        )
        return ident.text, constraint

    def _comparison_clause(self):
        ident = self._expect("ident")
        op = self._expect("op")
        value_token = self._next()
        if value_token.kind not in ("number", "string"):
            raise ParseError(
                f"expected a value at offset {value_token.position} "
                f"in {self._source!r}, got {value_token.text!r}"
            )
        first = self._value(value_token)
        if op.text == "=":
            values = [first]
            while self._peek() is not None and self._peek().kind == "or":
                self._next()
                extra = self._next()
                if extra.kind not in ("number", "string"):
                    raise ParseError(
                        f"expected a value after '|' at offset {extra.position}"
                    )
                values.append(self._value(extra))
            return ident.text, one_of(values)
        if isinstance(first, str):
            raise ParseError(
                f"operator {op.text!r} does not apply to string "
                f"{first!r} in {self._source!r}"
            )
        makers = {"!=": ne, ">": gt, ">=": ge, "<": lt, "<=": le}
        return ident.text, makers[op.text](first)

    @staticmethod
    def _value(token: _Token):
        if token.kind == "string":
            return token.text[1:-1]
        return _parse_number(token.text)


def parse_subscription(text: str) -> Subscription:
    """Parse the paper's textual interest syntax into a Subscription.

    Raises:
        ParseError: on any syntactic or semantic problem, with the
            offending offset in the message.
    """
    tokens = _tokenize(text)
    if not tokens:
        return Subscription({})
    return _Parser(tokens, text).parse()
