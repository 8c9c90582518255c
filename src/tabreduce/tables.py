"""Table data model, linearization, prompt assembly and token counting.

Tables are rectangular grids of string / number / null cells under unique
headers.  A reduction names the column and row indices worth keeping; the
projected sub-table is rendered as ``Row0: (header,value), ...`` text that
downstream prompts embed.  A header or value containing ``,``, ``(``, ``)``
or ``"`` is double-quoted, with each ``"`` doubled, so the pairs parse back.
Token counts are whitespace word counts: cheap, deterministic, and
sufficient for relative length comparisons.

All row text comes from one renderer, which quotes each selected header
once per call and formats and quotes each distinct cell value once per
call.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from .errors import EmptySelectionError

Cell = str | int | float | None

COLUMN_PROMPT_TEMPLATE = (
    "Select relevant columns from a table to answer a question. "
    "Output '@' if done generating. "
    "Question: {question}, List of column headers: {headers}"
)
ROW_PROMPT_TEMPLATE = (
    "Select relevant rows from a table to answer a question. "
    "Output '@' if done generating. "
    "Question: {question}, Rows: {rows}"
)


@dataclass(frozen=True)
class Table:
    """Rectangular grid: ``columns`` are headers, ``rows`` are cell lists.

    Every row must have exactly ``len(columns)`` cells.  Header uniqueness
    (after lowercase/trim) and the at-least-one-column rule are enforced by
    :func:`validate_table`, which data loading calls; projections of an
    empty column selection are deliberately allowed to have zero columns.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row {i} has {len(row)} cells, expected {len(self.columns)}"
                )

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int | None:
        """Resolve a header case-insensitively; None when absent."""
        key = name.strip().lower()
        for i, header in enumerate(self.columns):
            if header.strip().lower() == key:
                return i
        return None


def make_table(columns: list[str] | tuple[str, ...], rows) -> Table:
    """Build and validate a table from plain lists."""
    table = Table(tuple(columns), tuple(tuple(r) for r in rows))
    validate_table(table)
    return table


def validate_table(table: Table) -> None:
    """Enforce the ingestion invariants: >= 1 column, unique headers."""
    if table.n_columns < 1:
        raise ValueError("table needs at least one column")
    seen: set[str] = set()
    for header in table.columns:
        key = header.strip().lower()
        if key in seen:
            raise ValueError(f"duplicate header (case-insensitive): {header!r}")
        seen.add(key)


def table_fingerprint(table: Table) -> str:
    """Content hash used to group instances that share a table."""
    doc = {"columns": list(table.columns), "rows": [list(r) for r in table.rows]}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Instance:
    """One QA item: a question over a table with gold answers.

    ``sql`` is the text-to-SQL annotation used for weak supervision.
    ``relevant_columns`` / ``relevant_rows`` carry gold relevance labels once
    annotated; ``annotation_status`` is ``"ok"`` or ``"skipped:<reason>"``.
    ``extra`` preserves unknown record fields across load/save round-trips.
    """

    id: str
    question: str
    table: Table
    sql: str | None = None
    answers: tuple[str, ...] = ()
    relevant_columns: frozenset[int] | None = None
    relevant_rows: frozenset[int] | None = None
    annotation_status: str | None = None
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Reduction:
    """Selected column and row indices of a table (the kept context)."""

    columns: frozenset[int]
    rows: frozenset[int]


@dataclass(frozen=True)
class LinearizedContext:
    text: str
    token_count: int


def project(table: Table, reduction: Reduction) -> Table:
    """Keep the selected columns/rows, preserving original relative order.

    An empty column selection yields a zero-column table rather than an
    error; row selection is then irrelevant and the result has zero rows.
    """
    for c in reduction.columns:
        if not 0 <= c < table.n_columns:
            raise IndexError(f"column index {c} out of range")
    for r in reduction.rows:
        if not 0 <= r < table.n_rows:
            raise IndexError(f"row index {r} out of range")
    cols = sorted(reduction.columns)
    rows = sorted(reduction.rows)
    if not cols:
        return Table((), tuple(() for _ in rows))
    return Table(
        tuple(table.columns[c] for c in cols),
        tuple(tuple(table.rows[r][c] for c in cols) for r in rows),
    )


def format_cell(cell: Cell) -> str:
    """Render a cell for linearization; null becomes the empty string."""
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return str(cell).lower()
    if isinstance(cell, float) and cell.is_integer():
        return str(int(cell))
    return str(cell)


_NEEDS_QUOTES = re.compile(r'[,()"]')


def quote_if_needed(text: str) -> str:
    """Double-quote text whose ``,``, ``(``, ``)`` or ``"`` would break the
    pair format; a ``"`` inside quotes is written as ``""``."""
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def count_tokens(text: str) -> int:
    """Whitespace-delimited word count."""
    return len(text.split())


def _columns(table: Table, column_subset: set[int] | frozenset[int]) -> list[int]:
    if not column_subset:
        raise EmptySelectionError("column subset must be non-empty")
    for c in column_subset:
        if not 0 <= c < table.n_columns:
            raise IndexError(f"column index {c} out of range")
    return sorted(column_subset)


def _row_texts(table: Table, columns: list[int], rows: Sequence[tuple[Cell, ...]]) -> list[str]:
    """``(header,value), ...`` text of each row over ``columns``.

    The memo is keyed on ``(type, value)``: ``1``, ``1.0`` and ``True`` are
    equal dict keys but render as ``1``, ``1`` and ``true``.
    """
    memo: dict[tuple[type, Cell], str] = {}
    per_column = []
    for c in columns:
        cells = list(map(itemgetter(c), rows))
        keys = list(zip(map(type, cells), cells))
        for key in set(keys).difference(memo):
            memo[key] = quote_if_needed(format_cell(key[1])) + ")"
        head = "(" + quote_if_needed(table.columns[c]) + ","
        per_column.append(list(map(head.__add__, map(memo.__getitem__, keys))))
    return list(map(", ".join, zip(*per_column)))


def linearize_rows(table: Table, column_subset: set[int] | frozenset[int]) -> LinearizedContext:
    """Render every row as ``Row{i}: (header,value), ...`` over a column subset.

    Rows keep table order and are joined by single spaces; a zero-row table
    linearizes to the empty string.
    """
    texts = _row_texts(table, _columns(table, column_subset), table.rows)
    text = " ".join([f"Row{i}: {t}" for i, t in enumerate(texts)])
    return LinearizedContext(text=text, token_count=count_tokens(text))


def row_candidate_texts(table: Table, column_subset: set[int] | frozenset[int]) -> list[str]:
    """Each row's linearization without the Row prefix, used as the row
    policy's candidates."""
    return _row_texts(table, _columns(table, column_subset), table.rows)


def build_column_prompt(question: str, table: Table) -> str:
    headers = ", ".join(quote_if_needed(h) for h in table.columns)
    return COLUMN_PROMPT_TEMPLATE.format(question=question, headers=headers)


def build_row_prompt(question: str, table: Table, relevant_columns: set[int] | frozenset[int]) -> str:
    if not relevant_columns:
        raise EmptySelectionError("relevant_columns must be non-empty")
    linearized = linearize_rows(table, relevant_columns)
    return ROW_PROMPT_TEMPLATE.format(question=question, rows=linearized.text)
