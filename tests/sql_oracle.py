"""The SELECT-subset parser ``tabreduce.sql`` used before its one-pass scan,
kept as the oracle the differential tests compare ``parse_sql`` with; the one
change since is that FROM takes a word or a quoted identifier only.

``parse_sql`` here scans with ``_TOKEN_RE.match`` token by token into
``_Token`` dataclasses and parses with ``_Parser``'s method calls; it raises
the same exception classes with the messages and spans the package must
keep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from tabreduce.sql import AGGREGATE_FNS, Predicate, SqlAst, SqlSyntaxError, UnsupportedQuery

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<string>'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\")"
    r"|(?P<number>-?\d+(?:\.\d+)?)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|!=|<>|=|<|>)"
    r"|(?P<punct>[(),;*])"
    r")"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    start: int
    end: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise SqlSyntaxError(f"cannot scan query at position {pos}: {text[pos:pos + 10]!r}")
        kind = match.lastgroup or "punct"
        tokens.append(_Token(kind, match.group(kind), match.start(kind), match.end(kind)))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise SqlSyntaxError("unexpected end of query")
        self.pos += 1
        return tok

    def expect_word(self, word: str) -> _Token:
        tok = self.next()
        if tok.kind != "word" or tok.text.lower() != word:
            raise SqlSyntaxError(f"expected {word!r}, got {tok.text!r}")
        return tok

    def unsupported(self, tok: _Token, feature: str) -> UnsupportedQuery:
        return UnsupportedQuery(
            f"unsupported {feature} at {tok.start}..{tok.end}: {tok.text!r}",
            span=(tok.start, tok.end),
        )

    def column_name(self) -> str:
        tok = self.next()
        if tok.kind == "word":
            return tok.text
        if tok.kind == "string":
            return _unquote(tok.text)
        raise SqlSyntaxError(f"expected column name, got {tok.text!r}")

    def parse(self) -> SqlAst:
        self.expect_word("select")
        tok = self.peek()
        if tok is None:
            raise SqlSyntaxError("empty projection")
        if tok.kind == "punct" and tok.text == "*":
            raise self.unsupported(tok, "star projection")
        if tok.kind == "word" and tok.text.lower() == "distinct":
            raise self.unsupported(tok, "DISTINCT")

        aggregate = None
        nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        if (
            tok.kind == "word"
            and nxt is not None
            and nxt.kind == "punct"
            and nxt.text == "("
        ):
            fn = tok.text.lower()
            if fn not in AGGREGATE_FNS:
                raise self.unsupported(tok, f"function {tok.text!r}")
            aggregate = fn
            self.next()  # fn
            self.next()  # (
            column = self.column_name()
            closing = self.next()
            if closing.text != ")":
                raise SqlSyntaxError(f"expected ')', got {closing.text!r}")
        else:
            column = self.column_name()

        after = self.peek()
        if after is not None and after.kind == "punct" and after.text == ",":
            raise self.unsupported(after, "multi-column projection")

        # Optional FROM <ident>; the table comes from the caller.
        if self._at_word("from"):
            self.next()
            tok = self.next()  # table name, ignored
            if tok.kind not in ("word", "string"):
                raise SqlSyntaxError(f"expected table name, got {tok.text!r}")

        predicates: list[Predicate] = []
        if self._at_word("where"):
            self.next()
            predicates.append(self._predicate())
            while True:
                tok = self.peek()
                if tok is None:
                    break
                if tok.kind == "word" and tok.text.lower() == "and":
                    self.next()
                    predicates.append(self._predicate())
                elif tok.kind == "word" and tok.text.lower() == "or":
                    raise self.unsupported(tok, "OR")
                else:
                    break

        order_by = None
        if self._at_word("order"):
            self.next()
            self.expect_word("by")
            col = self.column_name()
            direction = "asc"
            if self._at_word("asc") or self._at_word("desc"):
                direction = self.next().text.lower()
            order_by = (col, direction)

        limit = None
        if self._at_word("limit"):
            self.next()
            tok = self.next()
            if tok.kind != "number" or not re.fullmatch(r"\d+", tok.text) or int(tok.text) < 1:
                raise SqlSyntaxError(f"LIMIT needs a positive integer, got {tok.text!r}")
            limit = int(tok.text)

        leftover = self.peek()
        if leftover is not None:
            if leftover.kind == "punct" and leftover.text == ";" and self.pos == len(self.tokens) - 1:
                self.next()
            else:
                raise self.unsupported(leftover, "clause")

        return SqlAst(
            projection_column=column,
            aggregate=aggregate,
            predicates=tuple(predicates),
            order_by=order_by,
            limit=limit,
        )

    def _at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "word" and tok.text.lower() == word

    def _predicate(self) -> Predicate:
        column = self.column_name()
        op_tok = self.next()
        if op_tok.kind != "op":
            raise SqlSyntaxError(f"expected comparison operator, got {op_tok.text!r}")
        op = "!=" if op_tok.text == "<>" else op_tok.text
        lit_tok = self.next()
        if lit_tok.kind == "number":
            literal: str | float = float(lit_tok.text)
        elif lit_tok.kind == "string":
            literal = _unquote(lit_tok.text)
        elif lit_tok.kind == "word":
            # bare-word literal, e.g. WHERE city = beijing
            literal = lit_tok.text
        else:
            raise SqlSyntaxError(f"expected literal, got {lit_tok.text!r}")
        return Predicate(column=column, op=op, literal=literal)


def _unquote(text: str) -> str:
    quote = text[0]
    return text[1:-1].replace(quote * 2, quote)


def parse_sql(text: str) -> SqlAst:
    if not text or not text.strip():
        raise SqlSyntaxError("empty query")
    return _Parser(text).parse()
