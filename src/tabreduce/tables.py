"""Table data model, linearization and token counting.

Tables are rectangular grids of string / number / bool / null cells under
unique headers.  A reduction names the column and row indices worth keeping;
the projected sub-table is rendered as ``Row0: (header,value), ...`` text that
the QA prompt embeds.  A header or value containing ``,``, ``(``, ``)``
or ``"`` is double-quoted, with each ``"`` doubled, so the pairs parse back.
Token counts are whitespace word counts: cheap, deterministic, and
sufficient for relative length comparisons.

Everything derived from a table's rows comes from one walk over the cells
of a column subset (``_walk``): the rendered text (``linearize_tables``),
each row's token count (``row_token_counts``) and each column's header and
cell token ids (``column_token_ids``), from which ``tasks`` builds both the
row policy's vocabulary and its encodings.  The first two walk all of a
table's columns, and only the first renders rows; the last works from each
header and distinct cell alone.  A walk fills a memo of its per-cell
function that outlives it, so that a stage judges each distinct cell once,
not once per table: the calls that walk many tables (``linearize_tables``,
``row_token_counts``, ``llm.mock_complete_many``) keep one over them,
``tasks.build_vocab`` one per call, and a vocabulary keeps its own for
``column_token_ids`` (``policy.Vocabulary.cell_ids``).  ``row_token_counts``
is the one count behind QA contexts and length buckets
(``metrics.bucket_by_length``).  The mock reader of ``llm`` reads its
visible rows back from the same walk.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .errors import EmptySelectionError

Cell = str | int | float | bool | None



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
    _folded: dict[str, int] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        width = len(self.columns)
        if not set(map(len, self.rows)) <= {width}:
            i, row = next((i, row) for i, row in enumerate(self.rows) if len(row) != width)
            raise ValueError(f"row {i} has {len(row)} cells, expected {width}")

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def _fold(self) -> dict[str, int]:
        """Each header's index under its lowercased, trimmed text, folded on
        the first ``column_index`` call only; the first of several headers
        that fold alike (``validate_table`` refuses those)."""
        if self._folded is None:
            folded: dict[str, int] = {}
            for i, header in enumerate(self.columns):
                folded.setdefault(header.strip().lower(), i)
            object.__setattr__(self, "_folded", folded)
        return self._folded

    def column_index(self, name: str) -> int | None:
        """Resolve a header case-insensitively; None when absent."""
        return self._fold().get(name.strip().lower())


def make_table(columns: list[str] | tuple[str, ...], rows) -> Table:
    """Build and validate a table from plain lists."""
    table = Table(tuple(columns), tuple(map(tuple, rows)))
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
    # json writes tuples as arrays; cells are scalars, so there is no cycle to check
    doc = {"columns": table.columns, "rows": table.rows}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False)
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
_ROW_ANCHOR = re.compile(r"(Row\d+:) ")


def quote_if_needed(text: str) -> str:
    """Double-quote text whose ``,``, ``(``, ``)`` or ``"`` would break the
    pair format, or that holds a row anchor ``Row{i}: ``; a ``"`` inside
    quotes is written as ``""``.  An anchor's space is written between two
    quoted runs (``"see Row3:" "x"``), so no cell or header text contains
    an anchor at which a reader would cut the rows."""
    if _NEEDS_QUOTES.search(text) is None and ("Row" not in text or _ROW_ANCHOR.search(text) is None):
        return text
    return _ROW_ANCHOR.sub(r'\1" "', '"' + text.replace('"', '""') + '"')


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


# In a memo of ``_walk`` once a walk has found a key in it; never a cell key.
_SAVED = object()


def _walk(table: Table, column_subset: set[int] | frozenset[int], value_of: Callable[[Cell], object],
          values: dict) -> Iterator[tuple[str, list, set]]:
    """The one walk over a column subset's cells, columns in table order.

    Yields per column its header, each row's cell key and the column's
    distinct keys, after putting ``value_of(key)`` into ``values`` for each
    of those that was not yet in it.  ``values`` is the caller's memo of
    ``value_of``, which it keeps over all of a stage's tables, so each
    distinct key is judged once per stage.  It pays only where cells recur
    across tables, so until a walk finds one of its keys in the memo
    (``_SAVED``), a walk that finds none empties it once done: over tables
    that share no cell it holds no more than two tables' keys, and costs
    what a memo per table would.

    A key formats (``format_cell``) as its cells do, and equal keys format
    alike.  A cell is its own key: equal ints and floats format alike (``1``
    and ``1.0`` as ``1``, ``0`` and ``-0.0`` as ``0``).  A bool is not,
    because ``True == 1`` and ``False == 0`` are equal dict keys but format
    as ``true`` and ``1``; its key is its formatted text, equal to the string
    cell ``"true"``.  Every ``value_of`` depends on its key only through the
    formatted text, so whichever of several equal keys, in whichever table,
    filled a memo entry, the entry is right for them all.
    """
    held, found = bool(values), False
    for c in _columns(table, column_subset):
        keys = list(map(itemgetter(c), table.rows))
        if bool in set(map(type, keys)):
            keys = [format_cell(k) if type(k) is bool else k for k in keys]
        distinct = set(keys)
        new = distinct.difference(values)
        found = found or len(new) < len(distinct)
        for key in new:
            values[key] = value_of(key)
        yield table.columns[c], keys, distinct
    if found:
        values[_SAVED] = True
    elif held and table.rows and _SAVED not in values:
        values.clear()


def _pair_tail(cell: Cell) -> str:
    """A cell's ``value)`` in its ``(header,value)`` pair."""
    return quote_if_needed(format_cell(cell)) + ")"


def _render(table: Table, tails: dict) -> str:
    """Every row of a table with columns as ``Row{i}: (header,value), ...``
    over all of its columns, with ``tails`` the memo of ``_pair_tail`` (see
    ``_walk``)."""
    per_column = []
    for header, keys, _ in _walk(table, frozenset(range(table.n_columns)), _pair_tail, tails):
        head = "(" + quote_if_needed(header) + ","
        per_column.append(list(map(head.__add__, map(tails.__getitem__, keys))))
    return " ".join([f"Row{i}: {', '.join(pairs)}" for i, pairs in enumerate(zip(*per_column))])


def linearize_tables(tables: Sequence[Table]) -> list[str]:
    """Render each table as ``Row{i}: (header,value), ...`` over all of its
    columns, rows in table order joined by single spaces; a table without
    columns or rows renders as the empty text.  Each distinct cell is
    rendered once per call (see ``_walk``)."""
    tails: dict = {}
    return [_render(t, tails) if t.n_columns else "" for t in tables]


def _quoted_runs(cell: Cell) -> int:
    """Maximal whitespace runs, as ``str.split`` sees them, in the cell's
    quoted text; none outside a ``str`` (numbers, bools and null format
    without whitespace or quotes)."""
    if type(cell) is not str:
        return 0
    return len(("x" + quote_if_needed(cell) + "x").split()) - 1


def _row_counts(table: Table, runs: dict) -> list[int]:
    """``count_tokens`` of each row's ``Row{i}: ...`` text in the rendering
    (``linearize_tables``) of a table with columns, without rendering.

    A pair ``(qh,qv)`` begins and ends with a non-space character, so it is
    one word plus one for each whitespace run inside its quoted header
    ``qh`` or value ``qv``; each row adds one for its ``Row{i}:`` anchor.
    Quoting can split a run (``"see Row3:" "x"``), so the runs counted are
    those of the quoted texts.  ``runs`` is the memo of ``_quoted_runs`` per
    cell key and header (see ``_walk``).
    """
    fixed = 1
    per_column = []
    for header, keys, distinct in _walk(table, frozenset(range(table.n_columns)), _quoted_runs, runs):
        head = runs.get(header)
        if head is None:  # a header is text, and as a cell key it formats as itself
            head = runs[header] = _quoted_runs(header)
        fixed += 1 + head
        if any(map(runs.__getitem__, distinct)):  # most columns hold no whitespace
            per_column.append(list(map(runs.__getitem__, keys)))
    if not per_column:
        return [fixed] * len(table.rows)
    return [fixed + sum(row) for row in zip(*per_column)]


def row_token_counts(tables: Sequence[Table]) -> list[list[int]]:
    """Each table's per-row word counts in its linearization over all of
    its columns (``[]`` for a table without columns, whose linearization is
    the empty text), judging each distinct cell and header once per call
    (see ``_walk``).  The one count behind QA contexts and length buckets."""
    runs: dict = {}
    return [_row_counts(table, runs) if table.n_columns else [] for table in tables]


def column_token_ids(
    table: Table,
    column_subset: set[int] | frozenset[int],
    encode: Callable[[str], Sequence],
    ids: dict,
) -> list[tuple[tuple, list[tuple], list[int]]]:
    """The tokens of the row policy's candidates, without rendering: per
    column of the subset, in table order, ``tuple(encode(header))``, the
    ``tuple(encode(format_cell(cell)))`` of each of its distinct cells, and
    each row's index among those.

    ``encode`` must be a tokenizer (or token-id lookup) that splits at every
    character outside ``[a-z0-9]``, like ``policy.tokenize``.  Quoting and
    the ``(``, ``,``, ``)``, ``, `` separators then never join or split a
    token, so a row's tokens in its linearization without its ``Row{i}:``
    anchor are, column by column, its header's followed by its cell's.  Or
    it may keep each text whole (``tasks.build_vocab``), for a tokenizer to
    split later.
    ``ids`` is the memo of ``tuple(encode(text))`` per cell key and header
    (see ``_walk``); it holds one ``encode``'s ids only, so it belongs to
    that ``encode`` (``policy.Vocabulary.cell_ids``).
    """

    def encode_cell(cell: Cell) -> tuple:
        return tuple(encode(format_cell(cell)))

    columns = []
    for header, keys, distinct in _walk(table, column_subset, encode_cell, ids):
        head = ids.get(header)
        if head is None:  # as in _row_counts
            head = ids[header] = tuple(encode(header))
        distinct = list(distinct)
        index = dict(zip(distinct, range(len(distinct))))
        columns.append((head, list(map(ids.__getitem__, distinct)), list(map(index.__getitem__, keys))))
    return columns
