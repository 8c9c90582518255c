"""Table data model, linearization and token counting.

Tables are rectangular grids of string / number / bool / null cells under
unique headers.  A reduction names the column and row indices worth keeping;
the projected sub-table is rendered as ``Row0: (header,value), ...`` text that
the QA prompt embeds.  A header or value containing ``,``, ``(``, ``)``
or ``"`` is double-quoted, with each ``"`` doubled, so the pairs parse back.
Token counts are whitespace word counts: cheap, deterministic, and
sufficient for relative length comparisons.

Everything rendered or tokenized from a table's rows comes from one walk
over the cells of a column subset (``_walk``): the rendered text
(``linearize_tables``), the rows the mock reader of ``llm`` reads back, and
each column's header and cell tokens (``column_tokens``), from which
``tasks`` builds the row policy's vocabulary and encodings.  The policy's
tokenizer (``_tokenize``) lives here, beside the walk: taken from
``policy``, it would load numpy with ``tables``.  Each row's token count
(``row_token_counts``), the one count behind QA contexts and length buckets
(``metrics.bucket_by_length``), takes no walk: it adds up the whitespace
runs of a table's headers and distinct cells, found in one pass.  The calls
that take many tables keep one memo of their per-cell function over them,
which only grows and lives as long as the call, so a call judges each
distinct cell once.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import chain
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
        """Each header's index under its lowercased, trimmed text, folded
        once, by ``validate_table`` for a loaded table and otherwise on the
        first ``column_index`` call; the first of several headers that fold
        alike (``validate_table`` refuses those)."""
        folded = self._folded
        if folded is None:
            folded = {}
            for i, header in enumerate(self.columns):
                folded.setdefault(header.strip().lower(), i)
            object.__setattr__(self, "_folded", folded)
        return folded

    def column_index(self, name: str) -> int | None:
        """Resolve a header case-insensitively; None when absent."""
        return self._fold().get(name.strip().lower())


def make_table(columns: list[str] | tuple[str, ...], rows) -> Table:
    """Build and validate a table from plain lists."""
    table = Table(tuple(columns), tuple(map(tuple, rows)))
    validate_table(table)
    return table


def validate_table(table: Table) -> None:
    """Enforce the ingestion invariants: >= 1 column, unique headers.  The
    headers are folded once (``Table._fold``), and the table keeps the fold
    for ``column_index``: two headers that fold alike leave it an entry
    short, and the first header that folds as an earlier one is named."""
    columns = table.columns
    if not columns:
        raise ValueError("table needs at least one column")
    folded = table._fold()
    if len(folded) < len(columns):
        header = next(h for i, h in enumerate(columns) if folded[h.strip().lower()] != i)
        raise ValueError(f"duplicate header (case-insensitive): {header!r}")


def table_fingerprint(table: Table) -> str:
    """Content hash used to group instances that share a table.  Only
    ``dataio.split`` takes one, so ``hashlib`` is imported here."""
    import hashlib

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


_WORD_RE = re.compile(r"[a-z0-9]+")


def _tokenize(text: str) -> tuple[str, ...]:
    """The policy's tokens of a text: its lowercased, punctuation-split words."""
    return tuple(_WORD_RE.findall(text.lower()))


def _columns(table: Table, column_subset: set[int] | frozenset[int]) -> list[int]:
    if not column_subset:
        raise EmptySelectionError("column subset must be non-empty")
    for c in column_subset:
        if not 0 <= c < table.n_columns:
            raise IndexError(f"column index {c} out of range")
    return sorted(column_subset)


def _walk(table: Table, column_subset: set[int] | frozenset[int], value_of: Callable[[Cell], object],
          values: dict) -> Iterator[tuple[str, list, set]]:
    """The one walk over a column subset's cells, columns in table order,
    behind ``_render``, ``column_tokens`` and ``llm._read_visible``.

    Yields per column its header, each row's cell key and the column's
    distinct keys, after putting ``value_of(key)`` into ``values`` for each
    of those that was not yet in it: the caller's memo of ``value_of``, one
    per batch call, kept over all the call's tables.  A memo only grows, and
    a column is yielded once its keys are in it, so a caller that stops
    early leaves a memo that is right for every key it holds.

    A key formats (``format_cell``) as its cells do, and equal keys format
    alike.  A cell is its own key (``1`` and ``1.0`` format as ``1``, ``0``
    and ``-0.0`` as ``0``), except a bool: ``True == 1``, but they format as
    ``true`` and ``1``, so its key is its text, equal to the cell ``"true"``.
    Every ``value_of`` depends on its key only through the formatted text,
    so a memo entry is right for every key equal to the one that filled it.
    """
    for c in _columns(table, column_subset):
        keys = list(map(itemgetter(c), table.rows))
        if bool in set(map(type, keys)):
            keys = [format_cell(k) if type(k) is bool else k for k in keys]
        distinct = set(keys)
        for key in distinct.difference(values):
            values[key] = value_of(key)
        yield table.columns[c], keys, distinct


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
    """Whitespace runs, as ``str.split`` sees them, in a cell's quoted text;
    none in a non-``str``, which formats without whitespace or quotes.  The
    memo runs this once per distinct cell, but numbers often do not repeat,
    and formatting and splitting one takes several times as long as the check."""
    if type(cell) is not str:
        return 0
    return len(("x" + quote_if_needed(cell) + "x").split()) - 1


def _row_counts(table: Table, runs: dict) -> list[int]:
    """``count_tokens`` of each row's ``Row{i}: ...`` text in the rendering
    (``linearize_tables``) of a table with columns, without rendering.

    A pair ``(qh,qv)`` begins and ends with a non-space character, so it is
    one word plus one per whitespace run inside its quoted header ``qh`` or
    value ``qv``, and each row adds one for its anchor.  Quoting can split a
    run (``"see Row3:" "x"``), so the runs are those of the quoted texts.
    ``runs`` memoizes ``_quoted_runs`` per header and distinct cell, taken
    in one pass; it is the caller's, one per batch call, and gains only the
    keys new to it.  A cell is its own key, a bool too: equal keys are all
    strings or all non-strings, and no non-string has a run, so it is no
    matter that ``True``, ``1`` and ``1.0`` share an entry.
    """
    distinct = set(chain.from_iterable(table.rows))
    for cell in distinct.difference(runs):
        runs[cell] = _quoted_runs(cell)
    for header in table.columns:
        if header not in runs:  # a header is text, and as a cell key it formats as itself
            runs[header] = _quoted_runs(header)
    fixed = 1 + len(table.columns) + sum(map(runs.__getitem__, table.columns))
    if not any(map(runs.__getitem__, distinct)):  # most tables hold no whitespace
        return [fixed] * len(table.rows)
    return [fixed + sum(map(runs.__getitem__, row)) for row in table.rows]


def row_token_counts(tables: Sequence[Table]) -> list[list[int]]:
    """Each table's per-row word counts in its linearization over all of
    its columns (``[]`` for a table without columns, whose linearization is
    the empty text), with one memo over the call (see ``_row_counts``)."""
    runs: dict = {}
    return [_row_counts(table, runs) if table.n_columns else [] for table in tables]


def _cell_tokens(cell: Cell) -> tuple[str, ...]:
    """The tokens of a cell's formatted text."""
    return _tokenize(format_cell(cell))


def column_tokens(
    table: Table,
    column_subset: set[int] | frozenset[int],
    tokens: dict,
) -> list[tuple[tuple[str, ...], list[tuple[str, ...]], list[int]]]:
    """The tokens of the row policy's candidates, without rendering: per
    column of the subset, in table order, the header's tokens, the tokens
    of each of its distinct formatted cells, and each row's index among
    those.

    Tokens split at every character outside ``[a-z0-9]`` (``_tokenize``),
    so quoting and the ``(``, ``,``, ``)``, ``, `` separators never join or
    split one, and a row's tokens in its linearization without its
    ``Row{i}:`` anchor are, column by column, its header's followed by its
    cell's.  ``tokens`` is the caller's memo of tokens per cell key and
    header (see ``_walk``).
    """
    columns = []
    for header, keys, distinct in _walk(table, column_subset, _cell_tokens, tokens):
        head = tokens.get(header)
        if head is None:  # a header is text, and as a cell key it formats as itself
            head = tokens[header] = _tokenize(header)
        distinct = list(distinct)
        index = dict(zip(distinct, range(len(distinct))))
        columns.append((head, list(map(tokens.__getitem__, distinct)), list(map(index.__getitem__, keys))))
    return columns
