"""Parse and execute the SELECT subset used for relevance annotation.

Grammar:

    SELECT column | fn(column)          fn in {count, sum, avg, min, max}
    [FROM ident]                        (ignored; table supplied at execution)
    [WHERE column op literal [AND ...]] op in {=, !=, <>, <, <=, >, >=}
    [ORDER BY column [ASC|DESC]]
    [LIMIT n]

Anything beyond this (joins, OR, GROUP BY, expressions, ...) raises
``UnsupportedQuery`` with the offending token span.

``parse_sql`` scans the whole query first, in one ``finditer`` pass of
``_TOKEN_RE``: each token is a plain tuple ``(kind, text, start, end,
lowercased word or None)``, its kind the number of the regex group that
matched.  Text that no token matches, other than trailing whitespace, is a
``SqlSyntaxError`` naming where the last token ended.  The list ends with
the ``_END`` sentinel, so one flat function parses the tokens clause by
clause, indexing ahead without bounds checks; reaching the sentinel where a
token is needed is an "unexpected end of query".

Execution resolves column names case-insensitively; a missing column is an
``ExecutionError`` with kind ``missing_column`` — the failure signal
relevance annotation relies on.  Null cells never satisfy a predicate;
aggregates skip nulls except ``count``, which counts non-null cells.
``execute`` runs in two steps, ``filter_rows`` (WHERE) and ``finish``
(ORDER BY, LIMIT, projection, aggregation), so relevance annotation can
filter once and finish many row subsets.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

from .tables import Cell, Table

AGGREGATE_FNS = ("count", "sum", "avg", "min", "max")

MISSING_COLUMN = "missing_column"
TYPE_MISMATCH = "type_mismatch"
EMPTY_AGGREGATE = "empty_aggregate"


class SqlSyntaxError(ValueError):
    """The query text does not scan/parse as SQL at all."""


class UnsupportedQuery(ValueError):
    """Parseable SQL using a feature outside the supported subset."""

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        super().__init__(message)
        self.span = span


class ExecutionError(RuntimeError):
    """Execution failed; ``kind`` is one of the module's kind constants."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Predicate:
    column: str
    op: str
    literal: str | float


@dataclass(frozen=True)
class SqlAst:
    projection_column: str
    aggregate: str | None = None  # one of AGGREGATE_FNS or None
    predicates: tuple[Predicate, ...] = ()
    order_by: tuple[str, str] | None = None  # (column, "asc"|"desc")
    limit: int | None = None


# ---------------------------------------------------------------------------
# Scanner / parser

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<string>'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\")"
    r"|(?P<number>-?\d+(?:\.\d+)?)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|!=|<>|=|<|>)"
    r"|(?P<punct>[(),;*])"
    r")"
)
_STRING, _NUMBER, _WORD, _OP = 1, 2, 3, 4  # the group numbers of those kinds

_END = (0, "", -1, -1, None)  # the last token of every scan (module docstring)


def _scan(text: str) -> list[tuple]:
    tokens = []
    pos = 0
    for match in _TOKEN_RE.finditer(text):
        if match.start() != pos:  # text at pos matched no token
            break
        kind = match.lastindex
        token = match.group(kind)
        start, end = match.span(kind)
        tokens.append((kind, token, start, end, token.lower() if kind == _WORD else None))
        pos = match.end()
    if text[pos:].strip():
        raise SqlSyntaxError(f"cannot scan query at position {pos}: {text[pos:pos + 10]!r}")
    tokens.append(_END)
    return tokens


def _unsupported(token: tuple, feature: str) -> UnsupportedQuery:
    _, text, start, end, _ = token
    return UnsupportedQuery(f"unsupported {feature} at {start}..{end}: {text!r}", span=(start, end))


def _expected(token: tuple, what: str) -> SqlSyntaxError:
    if token is _END:
        return SqlSyntaxError("unexpected end of query")
    return SqlSyntaxError(f"expected {what}, got {token[1]!r}")


def _column(token: tuple) -> str:
    kind = token[0]
    if kind == _WORD:
        return token[1]
    if kind == _STRING:
        return _unquote(token[1])
    raise _expected(token, "column name")


def _unquote(text: str) -> str:
    quote = text[0]
    return text[1:-1].replace(quote * 2, quote)


def parse_sql(text: str) -> SqlAst:
    """Parse a query in the supported subset.

    Raises ``SqlSyntaxError`` for unscannable text and ``UnsupportedQuery``
    (with the offending token span) for recognizable-but-unsupported SQL.
    """
    if not text or not text.strip():
        raise SqlSyntaxError("empty query")
    tokens = _scan(text)
    if tokens[0][4] != "select":
        raise _expected(tokens[0], "'select'")
    token = tokens[1]
    if token is _END:
        raise SqlSyntaxError("empty projection")
    if token[1] == "*":
        raise _unsupported(token, "star projection")
    word = token[4]
    if word == "distinct":
        raise _unsupported(token, "DISTINCT")
    if word is not None and tokens[2][1] == "(":
        if word not in AGGREGATE_FNS:
            raise _unsupported(token, f"function {token[1]!r}")
        aggregate = word
        column = _column(tokens[3])
        if tokens[4][1] != ")":
            raise _expected(tokens[4], "')'")
        i = 5
    else:
        aggregate = None
        column = _column(token)
        i = 2
    token = tokens[i]
    if token[1] == ",":
        raise _unsupported(token, "multi-column projection")
    word = token[4]

    if word == "from":  # FROM <ident>: the table comes from the caller
        if tokens[i + 1][0] != _WORD and tokens[i + 1][0] != _STRING:
            raise _expected(tokens[i + 1], "table name")
        i += 2
        word = tokens[i][4]

    predicates = []
    if word == "where":
        word = "and"
        while word == "and":
            name = _column(tokens[i + 1])
            op = tokens[i + 2]
            if op[0] != _OP:
                raise _expected(op, "comparison operator")
            token = tokens[i + 3]
            kind, literal = token[0], token[1]
            if kind == _NUMBER:
                literal = float(literal)
            elif kind == _STRING:
                literal = _unquote(literal)
            elif kind != _WORD:  # a bare word is a literal too: WHERE city = beijing
                raise _expected(token, "literal")
            predicates.append(Predicate(name, "!=" if op[1] == "<>" else op[1], literal))
            i += 4
            word = tokens[i][4]
        if word == "or":
            raise _unsupported(tokens[i], "OR")

    order_by = None
    if word == "order":
        if tokens[i + 1][4] != "by":
            raise _expected(tokens[i + 1], "'by'")
        order_by = (_column(tokens[i + 2]), "asc")
        i += 3
        word = tokens[i][4]
        if word == "asc" or word == "desc":
            order_by = (order_by[0], word)
            i += 1
            word = tokens[i][4]

    limit = None
    if word == "limit":
        token = tokens[i + 1]
        if token is _END:
            raise SqlSyntaxError("unexpected end of query")
        if token[0] != _NUMBER or not token[1].isdecimal() or int(token[1]) < 1:
            raise SqlSyntaxError(f"LIMIT needs a positive integer, got {token[1]!r}")
        limit = int(token[1])
        i += 2

    token = tokens[i]
    if token is not _END and not (token[1] == ";" and tokens[i + 1] is _END):
        raise _unsupported(token, "clause")
    return SqlAst(column, aggregate, tuple(predicates), order_by, limit)


# ---------------------------------------------------------------------------
# Execution

_NUMERIC_RE = re.compile(r"-?\d[\d,]*(?:\.\d+)?")


def coerce_number(value: Cell) -> float | None:
    """Numeric view of a cell: numbers pass through, strings like '2,008'
    parse after comma removal, everything else is None.  An integer beyond
    float range is ±inf, as its digits are as a string."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    if isinstance(value, str):
        text = value.strip()
        if _NUMERIC_RE.fullmatch(text):
            try:
                return float(text.replace(",", ""))
            except ValueError:
                return None
    return None


def _prepare_literal(literal: str | float) -> tuple[float | None, str | None]:
    """A predicate literal's numeric view, and its trimmed lowercase text
    when it is a string without one; what ``_judge`` compares cells to."""
    lit_num = coerce_number(literal)
    lit_text = literal.strip().lower() if isinstance(literal, str) and lit_num is None else None
    return lit_num, lit_text


_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _judge(
    cell: Cell, op: str, literal: str | float, prepared: tuple[float | None, str | None]
) -> bool:
    """Whether ``cell op literal`` holds, given ``_prepare_literal(literal)``.

    Numbers and numeric strings compare numerically (``=``/``!=`` within
    1e-6 relative), other strings as trimmed lowercase text.  Any other
    pairing, a bool cell's included, is never equal, and ordering it raises
    ``type_mismatch``; null never matches.
    """
    if cell is None:
        return False
    cell_num = coerce_number(cell)
    lit_num, lit_text = prepared
    if cell_num is not None and lit_num is not None:
        a, b = cell_num, lit_num
        equal = math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9)
    elif lit_text is not None and isinstance(cell, str) and cell_num is None:
        a, b = cell.strip().lower(), lit_text
        equal = a == b
    elif op in _ORDERINGS:
        raise ExecutionError(TYPE_MISMATCH, f"cannot order {cell!r} against {literal!r}")
    else:  # mixed number/string: never equal
        equal = False
    if op == "=":
        return equal
    if op == "!=":
        return not equal
    return _ORDERINGS[op](a, b)


def _resolve(table: Table, name: str) -> int:
    idx = table.column_index(name)
    if idx is None:
        raise ExecutionError(MISSING_COLUMN, f"no column named {name!r}")
    return idx


def _sort_key(cell: Cell):
    num = coerce_number(cell)
    if num is not None:
        return (0, num)
    if isinstance(cell, str):
        return (1, cell.strip().lower())
    return (2, "")  # nulls last


def execute(ast: SqlAst, table: Table) -> list[Cell]:
    """Run the query against a table, returning the projected values.

    This is ``finish(ast, table, filter_rows(ast, table))``: filtering
    happens first, then ORDER BY / LIMIT, then projection or aggregation.
    ``count`` of an empty filter set is ``[0]``; the other aggregates over an
    empty (or all-null) set raise ``empty_aggregate``.
    """
    return finish(ast, table, filter_rows(ast, table))


def filter_rows(ast: SqlAst, table: Table) -> list[int]:
    """Indices of the rows that pass every WHERE predicate, in table order.

    The projection column is resolved here as well, so a missing column is
    reported before any predicate type error.  Each row is judged on its own
    cells alone, so the rows of a subset pass, fail or raise exactly as they
    do in the whole table.

    Predicates apply in query order, each to the rows the earlier ones
    passed, row by row.  A predicate prepares its literal once and judges
    each distinct cell once, keyed by ``(type(cell), cell)`` so that
    ``True`` stays apart from ``1`` and ``1`` from ``1.0``; later rows with
    that key reuse the verdict.  The rows are those of judging every row in
    turn, and a ``type_mismatch`` is raised at the same first row, with the
    same message.
    """
    pred_cols = [_resolve(table, p.column) for p in ast.predicates]
    _resolve(table, ast.projection_column)
    rows = table.rows
    indices: list[int] | range = range(len(rows))
    for pred, col in zip(ast.predicates, pred_cols):
        prepared = _prepare_literal(pred.literal)
        verdicts: dict[tuple[type, Cell], bool] = {}
        kept = []
        for i in indices:
            cell = rows[i][col]
            key = (type(cell), cell)
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = _judge(cell, pred.op, pred.literal, prepared)
            if verdict:
                kept.append(i)
        indices = kept
    return list(indices)


def finish(ast: SqlAst, table: Table, row_indices: list[int]) -> list[Cell]:
    """ORDER BY / LIMIT, then projection or aggregation, over the given rows.

    ``row_indices`` are rows of ``table`` that passed the filter, in table
    order (ORDER BY is a stable sort, so ties keep that order).
    """
    proj_col = _resolve(table, ast.projection_column)
    rows = [table.rows[i] for i in row_indices]

    if ast.order_by is not None:
        order_col = _resolve(table, ast.order_by[0])
        mixed = {(_sort_key(row[order_col])[0]) for row in rows if row[order_col] is not None}
        if len(mixed) > 1:
            raise ExecutionError(TYPE_MISMATCH, "ORDER BY over mixed cell types")
        rows.sort(key=lambda row: _sort_key(row[order_col]), reverse=ast.order_by[1] == "desc")
    if ast.limit is not None:
        rows = rows[: ast.limit]

    values = [row[proj_col] for row in rows]
    if ast.aggregate is None:
        return values

    non_null = [v for v in values if v is not None]
    if ast.aggregate == "count":
        return [len(non_null)]
    if not non_null:
        raise ExecutionError(EMPTY_AGGREGATE, f"{ast.aggregate} of empty set")
    if ast.aggregate in ("sum", "avg"):
        numbers = [coerce_number(v) for v in non_null]
        if any(n is None for n in numbers):
            raise ExecutionError(TYPE_MISMATCH, f"{ast.aggregate} over non-numeric cells")
        total = sum(n for n in numbers if n is not None)
        return [total] if ast.aggregate == "sum" else [total / len(numbers)]
    # min / max: numeric when all cells are numeric, else lexicographic
    keys = [_sort_key(v) for v in non_null]
    if len({k[0] for k in keys}) > 1:
        raise ExecutionError(TYPE_MISMATCH, f"{ast.aggregate} over mixed cell types")
    pick = min(range(len(non_null)), key=lambda i: keys[i]) if ast.aggregate == "min" else max(
        range(len(non_null)), key=lambda i: keys[i]
    )
    return [non_null[pick]]


def referenced_columns(ast: SqlAst, table: Table) -> set[int]:
    """Indices of every column the query touches (projection, WHERE, ORDER BY)."""
    refs = {_resolve(table, ast.projection_column)}
    for pred in ast.predicates:
        refs.add(_resolve(table, pred.column))
    if ast.order_by is not None:
        refs.add(_resolve(table, ast.order_by[0]))
    return refs


# ---------------------------------------------------------------------------
# Answer matching

def normalize_answer(value: Cell) -> tuple[str, float] | tuple[str, str]:
    """Canonical comparison key: numbers (including '2,008' strings) compare
    numerically, everything else as trimmed lowercase text; null is ''."""
    if value is None:
        return ("str", "")
    num = coerce_number(value)
    if num is not None:
        return ("num", num)
    return ("str", str(value).strip().lower())


def answers_match(result: list[Cell], gold: list[str]) -> bool:
    """Multiset equality under normalization, numeric within 1e-6 relative."""
    if len(result) != len(gold):
        return False
    left = sorted(normalize_answer(v) for v in result)
    right = sorted(normalize_answer(v) for v in gold)
    for a, b in zip(left, right):
        if a[0] != b[0]:
            return False
        if a[0] == "num":
            if not math.isclose(a[1], b[1], rel_tol=1e-6, abs_tol=1e-9):
                return False
        elif a[1] != b[1]:
            return False
    return True
