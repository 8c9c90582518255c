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
   per instance: the gold check on the full table is ``sql.filter_rows``
   then ``sql.finish``, its passing rows are kept, and each row trial
   re-runs only ``sql.finish`` over the passing rows still kept, on the full
   table.  By fact 1 every name the query references resolves to the same
   cells there as in the column-projected table, so the trials give the
   labels they give on that projection.
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
# ``project`` is unused here but stays bound: perfbench/selftest.py wraps ``annotate.project``
from .tables import Instance, Table, project  # noqa: F401

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


def _finishes_gold(ast: sql.SqlAst, table: Table, rows: list[int], gold: list[str]) -> bool:
    """Whether the filtered ``rows`` of ``table`` still yield the gold answers."""
    try:
        result = sql.finish(ast, table, rows)
    except sql.ExecutionError:
        return False
    return sql.answers_match(result, gold)


def _gold_rows(ast: sql.SqlAst, table: Table, gold: list[str]) -> list[int] | None:
    """The rows passing the WHERE filter, when the query over them yields
    the gold answers; None when it does not, or when execution fails."""
    try:
        passing = sql.filter_rows(ast, table)
    except sql.ExecutionError:
        return None
    return passing if _finishes_gold(ast, table, passing, gold) else None


def _parse(instance: Instance) -> tuple[sql.SqlAst | None, str]:
    if instance.sql is None:
        return None, SKIP_NO_SQL
    try:
        return sql.parse_sql(instance.sql), STATUS_OK
    except (sql.UnsupportedQuery, sql.SqlSyntaxError):
        return None, SKIP_UNSUPPORTED


def _relevant_rows(
    ast: sql.SqlAst, table: Table, passing: list[int], gold: list[str]
) -> frozenset[int]:
    """The rows that the top-to-bottom removal trials keep, of those that
    passed the filter."""
    kept = passing
    for row in passing:
        trial = [r for r in kept if r != row]
        if _finishes_gold(ast, table, trial, gold):
            kept = trial
    return frozenset(kept)


def annotate_instance(instance: Instance, target: str = "both") -> Instance:
    """Return a copy of the instance with gold relevance fields filled in:
    the columns for ``target="columns"``, the columns and rows for
    ``"both"``.  Row labels are defined over the relevant columns, so they
    are never written without them.

    The WHERE filter runs once, in the gold check on the full table, and the
    row trials reuse its passing rows (fact 2 in the module docstring).
    """
    if target not in ("columns", "both"):
        raise ValueError(f"unknown target {target!r}")

    ast, status = _parse(instance)
    if ast is None:
        return replace(instance, annotation_status=status)
    table = instance.table
    gold = list(instance.answers)
    passing = _gold_rows(ast, table, gold)
    if passing is None:
        return replace(instance, annotation_status=SKIP_GOLD_MISMATCH)
    columns = frozenset(sql.referenced_columns(ast, table))
    if target == "columns":
        return replace(instance, relevant_columns=columns, annotation_status=STATUS_OK)
    rows = _relevant_rows(ast, table, passing, gold)
    return replace(
        instance, relevant_columns=columns, relevant_rows=rows, annotation_status=STATUS_OK
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
