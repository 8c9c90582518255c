"""Gold relevance labels by iterative removal and re-execution.

A column/row is irrelevant exactly when dropping it still lets the gold SQL
query reproduce the gold answers.  The pass is greedy and single-direction
(columns left to right, then rows top to bottom on the column-projected
table), which makes annotation deterministic; removals accumulate, so the
result is 1-minimal: dropping any single kept item breaks the answers.

The query is parsed once per instance.  Removal trials whose outcome is
already known are skipped; three facts make the labels the same as those of
trying every removal, given that the gold check has passed on the full table
(columns) or on the column-projected table (rows):

1. Execution reads only the projection, WHERE and ORDER BY columns, and a
   name resolves to its first case-insensitive match, which is referenced
   and never dropped.  Dropping any unreferenced column therefore leaves the
   result unchanged, so the relevant columns are exactly the referenced ones.
2. A row that fails the WHERE filter never reaches the result, whatever other
   rows are present, so it is dropped without a trial.  The filter runs once
   (``sql.filter_rows``) and each trial re-runs only ``sql.finish`` over the
   passing rows still kept.
3. No subset of the rows can raise an ``ExecutionError`` that the full set
   did not: predicate errors are per row, and ORDER BY mixing and aggregate
   type errors can only come from cells the full set already evaluated.  So
   the one filter pass stands for every trial's filter, and a trial fails
   only by a wrong result or by ``empty_aggregate``, which ``sql.finish``
   still raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from . import sql
from .tables import Instance, Reduction, Table, project

STATUS_OK = "ok"
SKIP_UNSUPPORTED = "skipped:unsupported_sql"
SKIP_GOLD_MISMATCH = "skipped:gold_mismatch"
SKIP_NO_SQL = "skipped:no_sql"


@dataclass
class SkipStats:
    counts: dict[str, int] = field(default_factory=dict)

    def record(self, status: str) -> None:
        if status != STATUS_OK:
            self.counts[status] = self.counts.get(status, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _reproduces_gold(ast: sql.SqlAst, table: Table, gold: list[str]) -> bool:
    try:
        result = sql.execute(ast, table)
    except sql.ExecutionError:
        return False
    return sql.answers_match(result, gold)


def _finishes_gold(ast: sql.SqlAst, table: Table, rows: list[int], gold: list[str]) -> bool:
    """Whether the filtered ``rows`` of ``table`` still yield the gold answers."""
    try:
        result = sql.finish(ast, table, rows)
    except sql.ExecutionError:
        return False
    return sql.answers_match(result, gold)


def _parse(instance: Instance) -> tuple[sql.SqlAst | None, str]:
    if instance.sql is None:
        return None, SKIP_NO_SQL
    try:
        return sql.parse_sql(instance.sql), STATUS_OK
    except (sql.UnsupportedQuery, sql.SqlSyntaxError):
        return None, SKIP_UNSUPPORTED


def _relevant_columns(ast: sql.SqlAst, instance: Instance) -> tuple[frozenset[int] | None, str]:
    table = instance.table
    if not _reproduces_gold(ast, table, list(instance.answers)):
        return None, SKIP_GOLD_MISMATCH
    return frozenset(sql.referenced_columns(ast, table)), STATUS_OK


def _relevant_rows(
    ast: sql.SqlAst, instance: Instance, relevant_columns: frozenset[int]
) -> tuple[frozenset[int] | None, str]:
    gold = list(instance.answers)
    base = project(
        instance.table,
        Reduction(columns=relevant_columns, rows=frozenset(range(instance.table.n_rows))),
    )
    try:
        kept = sql.filter_rows(ast, base)
    except sql.ExecutionError:
        return None, SKIP_GOLD_MISMATCH
    if not _finishes_gold(ast, base, kept, gold):
        return None, SKIP_GOLD_MISMATCH
    for row in list(kept):
        trial = [r for r in kept if r != row]
        if _finishes_gold(ast, base, trial, gold):
            kept = trial
    return frozenset(kept), STATUS_OK


def annotate_columns(instance: Instance) -> tuple[frozenset[int] | None, str]:
    """Relevant column indices, or (None, skip reason).

    Once the query reproduces the gold answers on the full table, the
    relevant columns are exactly the ones it references: the removal pass
    would drop every other column and keep every referenced one (fact 1 in
    the module docstring), so it runs no trials.
    """
    ast, status = _parse(instance)
    if ast is None:
        return None, status
    return _relevant_columns(ast, instance)


def annotate_rows(instance: Instance, relevant_columns: frozenset[int]) -> tuple[frozenset[int] | None, str]:
    """Relevant row indices over the column-projected table, or a skip.

    A row is relevant iff removing it from the surviving set makes execution
    fail or stops the result matching the gold answers.  The WHERE filter
    runs once over the projected table; rows it rejects are dropped without
    a trial, and the top-to-bottom trials re-run only ORDER BY / LIMIT and
    the projection over the passing rows (facts 2 and 3 in the module
    docstring).
    """
    ast, status = _parse(instance)
    if ast is None:
        return None, status
    return _relevant_rows(ast, instance, relevant_columns)


def annotate_instance(instance: Instance, target: str = "both") -> Instance:
    """Return a copy of the instance with gold relevance fields filled in."""
    if target not in ("columns", "rows", "both"):
        raise ValueError(f"unknown target {target!r}")

    columns: frozenset[int] | None = None
    rows: frozenset[int] | None = None

    ast, status = _parse(instance)
    if ast is not None:
        columns, status = _relevant_columns(ast, instance)
    if status == STATUS_OK and target in ("rows", "both"):
        assert ast is not None and columns is not None
        rows, status = _relevant_rows(ast, instance, columns)
    if status != STATUS_OK:
        return replace(instance, annotation_status=status)
    if target == "columns":
        return replace(instance, relevant_columns=columns, annotation_status=status)
    if target == "rows":
        return replace(instance, relevant_rows=rows, annotation_status=status)
    return replace(
        instance, relevant_columns=columns, relevant_rows=rows, annotation_status=status
    )


def annotate_dataset(
    instances: Iterable[Instance], target: str = "both"
) -> tuple[list[Instance], SkipStats]:
    """Annotate every instance, in input order, and count the skips."""
    annotated = [annotate_instance(inst, target) for inst in instances]
    stats = SkipStats()
    for inst in annotated:
        stats.record(inst.annotation_status or STATUS_OK)
    return annotated, stats
