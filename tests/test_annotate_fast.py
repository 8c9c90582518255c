"""Differential test of filter-once annotation against the removal loop it
replaced.

The oracle below is the earlier implementation, kept as it was: every
unreferenced column and then every row is dropped in turn, the table is
re-projected and the whole query re-executed.  It executes through
``test_sql.naive_execute``, the row-at-a-time evaluator that ``test_03``
checks the engine against, so a fault in ``sql.filter_rows``/``sql.finish``
cannot also hide in the oracle.  Labels and statuses must be equal.
"""

from __future__ import annotations

import random

import pytest

from tabreduce import annotate, dataio, sql
from tabreduce.tables import Instance, Reduction, Table, format_cell, project

from test_sql import naive_execute, random_query, random_table


# ---------------------------------------------------------------------------
# Oracle: the removal-and-re-execution loop

def oracle_reproduces(ast, table, gold):
    try:
        result = naive_execute(ast, table)
    except sql.ExecutionError:
        return False
    return sql.answers_match(result, gold)


def oracle_parse(instance):
    if instance.sql is None:
        return None, annotate.SKIP_NO_SQL
    try:
        return sql.parse_sql(instance.sql), annotate.STATUS_OK
    except (sql.UnsupportedQuery, sql.SqlSyntaxError):
        return None, annotate.SKIP_UNSUPPORTED


def oracle_columns(instance):
    ast, status = oracle_parse(instance)
    if ast is None:
        return None, status
    table = instance.table
    gold = list(instance.answers)
    if not oracle_reproduces(ast, table, gold):
        return None, annotate.SKIP_GOLD_MISMATCH

    referenced = sql.referenced_columns(ast, table)
    kept = set(range(table.n_columns))
    all_rows = frozenset(range(table.n_rows))
    for col in range(table.n_columns):
        if col in referenced:
            continue
        trial = kept - {col}
        projected = project(table, Reduction(columns=frozenset(trial), rows=all_rows))
        if oracle_reproduces(ast, projected, gold):
            kept = trial
    return frozenset(kept), annotate.STATUS_OK


def oracle_rows(instance, relevant_columns):
    ast, status = oracle_parse(instance)
    if ast is None:
        return None, status
    gold = list(instance.answers)
    base = project(
        instance.table,
        Reduction(columns=relevant_columns, rows=frozenset(range(instance.table.n_rows))),
    )
    if not oracle_reproduces(ast, base, gold):
        return None, annotate.SKIP_GOLD_MISMATCH

    kept = set(range(base.n_rows))
    for row in range(base.n_rows):
        trial = kept - {row}
        projected = project(base, Reduction(columns=frozenset(range(base.n_columns)), rows=frozenset(trial)))
        if oracle_reproduces(ast, projected, gold):
            kept = trial
    return frozenset(kept), annotate.STATUS_OK


def oracle_instance(instance, target):
    """(relevant_columns, relevant_rows, annotation_status) as the loop set them."""
    columns, status = oracle_columns(instance)
    rows = None
    if status == annotate.STATUS_OK and target == "both":
        rows, status = oracle_rows(instance, columns)
    if status != annotate.STATUS_OK:
        return None, None, status
    return columns, rows, status


# ---------------------------------------------------------------------------
# Random instances

def with_duplicate_headers(rng, table):
    """The same cells under headers that collide case-insensitively.

    Built without ``make_table``, so header validation does not run; a query
    name then resolves to its first match.
    """
    headers = list(table.columns)
    for _ in range(rng.randint(1, 2)):
        src, dst = rng.sample(range(len(headers)), 2)
        headers[dst] = headers[src].upper() if rng.random() < 0.5 else headers[src]
    return Table(tuple(headers), table.rows)


def gold_answers(rng, ast, table):
    """The query's answers on the table, on a random sub-table, or perturbed."""
    source = table
    roll = rng.random()
    if roll < 0.25 and table.n_rows:
        keep = rng.sample(range(table.n_rows), rng.randint(0, table.n_rows))
        source = project(table, Reduction(frozenset(range(table.n_columns)), frozenset(keep)))
    try:
        answers = list(map(format_cell, sql.execute(ast, source)))
    except sql.ExecutionError:
        answers = []
    if roll > 0.85:
        if answers and rng.random() < 0.5:
            answers.pop(rng.randrange(len(answers)))
        else:
            answers.append(rng.choice(["ant", "0", "3", ""]))
    return tuple(answers)


def random_instance(rng):
    table = random_table(rng, max_cols=6, max_rows=10)
    if table.n_columns > 1 and rng.random() < 0.3:
        table = with_duplicate_headers(rng, table)
    query = random_query(rng, table)
    answers = gold_answers(rng, sql.parse_sql(query), table)
    roll = rng.random()
    if roll < 0.03:
        query = None
    elif roll < 0.06:
        query = query.replace(" from t", " from t join u")
    elif roll < 0.08:
        query = "select from t"
    return Instance(id="r", question="q", table=table, sql=query, answers=answers)


def synth_long(seed, n):
    cfg = dataio.SynthConfig(
        n_instances=n, columns_range=(8, 10), rows_range=(140, 160), seed=seed, annotate=False
    )
    return dataio.generate_synthetic(cfg)


def labels(annotated):
    return annotated.relevant_columns, annotated.relevant_rows, annotated.annotation_status


def check_against_oracle(inst):
    for target in ("columns", "both"):
        got = labels(annotate.annotate_instance(inst, target))
        assert got == oracle_instance(inst, target), f"{target}: {inst.sql}\n{inst.table}"


# ---------------------------------------------------------------------------
# Tests

def test_random_instances_match_oracle():
    rng = random.Random(2024)
    statuses = set()
    for _ in range(1500):
        inst = random_instance(rng)
        check_against_oracle(inst)
        statuses.add(oracle_columns(inst)[1])
    # every path was exercised
    assert statuses == {
        annotate.STATUS_OK, annotate.SKIP_GOLD_MISMATCH, annotate.SKIP_UNSUPPORTED, annotate.SKIP_NO_SQL,
    }


def test_duplicate_case_headers_match_oracle():
    rng = random.Random(5)
    ok = 0
    for _ in range(400):
        table = random_table(rng, max_cols=6, max_rows=8)
        if table.n_columns < 2:
            continue
        table = with_duplicate_headers(rng, table)
        query = random_query(rng, table)
        inst = Instance(
            id="d", question="q", table=table, sql=query,
            answers=gold_answers(rng, sql.parse_sql(query), table),
        )
        check_against_oracle(inst)
        ok += annotate.annotate_instance(inst, "columns").annotation_status == annotate.STATUS_OK
    assert ok > 50


@pytest.mark.parametrize("seed", [3, 17])
def test_long_synth_tables_match_oracle(seed):
    for inst in synth_long(seed, 3):
        check_against_oracle(inst)
        assert annotate.annotate_instance(inst).annotation_status == annotate.STATUS_OK


def test_long_synth_tables_with_perturbed_gold_match_oracle():
    rng = random.Random(8)
    for inst in synth_long(29, 3):
        answers = list(inst.answers)
        if answers and rng.random() < 0.5:
            answers[0] = answers[0] + "0"
        else:
            answers.append("1")
        check_against_oracle(Instance(
            id=inst.id, question=inst.question, table=inst.table, sql=inst.sql,
            answers=tuple(answers),
        ))


def test_execute_is_finish_of_filter_rows():
    """Same generators and seed as ``test_03``."""
    rng = random.Random(4242)
    for _ in range(1000):
        table = random_table(rng)
        ast = sql.parse_sql(random_query(rng, table))
        try:
            expected = ("ok", sql.execute(ast, table))
        except sql.ExecutionError as exc:
            expected = ("error", exc.kind)
        try:
            actual = ("ok", sql.finish(ast, table, sql.filter_rows(ast, table)))
        except sql.ExecutionError as exc:
            actual = ("error", exc.kind)
        assert actual == expected


def test_filter_once_stands_for_every_row_subset():
    """Once the full table filters without error, any row subset filters to
    its share of the passing rows, and finishing those gives what the naive
    evaluator gives on the projected sub-table (an error included)."""
    rng = random.Random(31)
    checked = 0
    for _ in range(1000):
        table = random_table(rng)
        ast = sql.parse_sql(random_query(rng, table))
        try:
            passing = sql.filter_rows(ast, table)
        except sql.ExecutionError:
            continue
        keep = sorted(rng.sample(range(table.n_rows), rng.randint(0, table.n_rows)))
        sub = project(table, Reduction(frozenset(range(table.n_columns)), frozenset(keep)))
        assert [keep[i] for i in sql.filter_rows(ast, sub)] == [i for i in passing if i in keep]
        try:
            expected = ("ok", naive_execute(ast, sub))
        except sql.ExecutionError as exc:
            expected = ("error", exc.kind)
        try:
            actual = ("ok", sql.finish(ast, table, [i for i in passing if i in keep]))
        except sql.ExecutionError as exc:
            actual = ("error", exc.kind)
        assert actual == expected
        checked += 1
    assert checked > 500


def test_annotate_instance_filters_once_and_never_projects(monkeypatch):
    """One WHERE pass per instance, whatever the target, and no projected
    copy: the row trials reuse the gold check's passing rows."""
    calls = {"filter_rows": 0, "project": 0}
    filter_rows = sql.filter_rows

    def counted_filter_rows(ast, table):
        calls["filter_rows"] += 1
        return filter_rows(ast, table)

    def counted_project(table, reduction):
        calls["project"] += 1
        return project(table, reduction)

    monkeypatch.setattr(sql, "filter_rows", counted_filter_rows)
    monkeypatch.setattr(annotate, "project", counted_project)
    rng = random.Random(12)
    instances = [random_instance(rng) for _ in range(300)] + synth_long(5, 2)
    statuses = set()
    for inst in instances:
        for target in ("columns", "both"):
            calls.update(filter_rows=0, project=0)
            status = annotate.annotate_instance(inst, target).annotation_status
            parsed = status not in (annotate.SKIP_NO_SQL, annotate.SKIP_UNSUPPORTED)
            assert calls == {"filter_rows": int(parsed), "project": 0}, (target, inst.sql)
            statuses.add(status)
    assert {annotate.STATUS_OK, annotate.SKIP_GOLD_MISMATCH} <= statuses
