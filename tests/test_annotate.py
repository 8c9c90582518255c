import itertools
import random

import pytest

from tabreduce import annotate, sql
from tabreduce.tables import Instance, Reduction, make_table, project


def instance(columns, rows, question, query, answers):
    return Instance(
        id="t",
        question=question,
        table=make_table(columns, rows),
        sql=query,
        answers=tuple(answers),
    )


def columns_of(inst):
    """(relevant columns, status) as ``annotate_instance`` labels columns."""
    annotated = annotate.annotate_instance(inst, "columns")
    return annotated.relevant_columns, annotated.annotation_status


def rows_of(inst):
    """(relevant rows, status) as ``annotate_instance`` labels rows, which
    it does with the columns (``target="both"``)."""
    annotated = annotate.annotate_instance(inst, "both")
    return annotated.relevant_rows, annotated.annotation_status


def yields_gold(ast, table, gold):
    """Whether the query over the whole of ``table`` yields the gold answers."""
    try:
        return sql.answers_match(sql.execute(ast, table), gold)
    except sql.ExecutionError:
        return False


OLYMPICS = instance(
    ["year", "city", "country", "attendance"],
    [
        [2004, "Athens", "Greece", 8000],
        [2008, "Beijing", "China", 9000],
        [2012, "London", "UK", 7000],
    ],
    "which city hosted in 2008?",
    "select city from t where year = 2008",
    ["Beijing"],
)


class TestColumns:
    def test_referenced_columns_only(self):
        cols, status = columns_of(OLYMPICS)
        assert status == annotate.STATUS_OK
        assert cols == frozenset({0, 1})

    def test_all_columns_referenced(self):
        inst = instance(
            ["a", "b"], [[1, 2]], "q", "select a from t where b = 2", ["1"]
        )
        cols, status = columns_of(inst)
        assert cols == frozenset({0, 1})

    def test_gold_mismatch_skipped(self):
        inst = instance(
            ["year", "city"], [[2008, "Beijing"]], "q",
            "select city from t where year = 2008", ["London"],
        )
        cols, status = columns_of(inst)
        assert cols is None
        assert status == annotate.SKIP_GOLD_MISMATCH

    def test_unsupported_sql_skipped(self):
        inst = instance(["a"], [[1]], "q", "select a from t join u", ["1"])
        _, status = columns_of(inst)
        assert status == annotate.SKIP_UNSUPPORTED

    def test_missing_sql_skipped(self):
        inst = Instance(id="x", question="q", table=make_table(["a"], [[1]]), answers=("1",))
        _, status = columns_of(inst)
        assert status == annotate.SKIP_NO_SQL


class TestRows:
    def test_single_matching_row(self):
        rows, status = rows_of(OLYMPICS)
        assert status == annotate.STATUS_OK
        assert rows == frozenset({1})

    def test_count_keeps_all_matching_rows(self):
        inst = instance(
            ["city", "country"],
            [["nyc", "usa"], ["paris", "france"], ["la", "usa"]],
            "how many cities in usa?",
            "select count(city) from t where country = 'usa'",
            ["2"],
        )
        rows, status = rows_of(inst)
        assert rows == frozenset({0, 2})

    def test_zero_row_table(self):
        inst = instance(
            ["x", "k"], [], "q", "select count(x) from t where k = 'a'", ["0"]
        )
        rows, status = rows_of(inst)
        assert status == annotate.STATUS_OK
        assert rows == frozenset()


class TestSufficiencyAndMinimality:
    def check(self, inst):
        annotated = annotate.annotate_instance(inst, target="both")
        assert annotated.annotation_status == annotate.STATUS_OK
        cols = annotated.relevant_columns
        rows = annotated.relevant_rows
        ast = sql.parse_sql(inst.sql)
        gold = list(inst.answers)

        reduced = project(inst.table, Reduction(cols, rows))
        assert sql.answers_match(sql.execute(ast, reduced), gold)

        for col in cols:
            smaller = project(inst.table, Reduction(cols - {col}, rows))
            assert not yields_gold(ast, smaller, gold)
        for row in rows:
            smaller = project(inst.table, Reduction(cols, rows - {row}))
            assert not yields_gold(ast, smaller, gold)

    def test_lookup(self):
        self.check(OLYMPICS)

    def test_aggregates(self):
        inst = instance(
            ["x", "k", "noise"],
            [[3, "a", "n1"], [4, "a", "n2"], [9, "b", "n3"], [2, "a", "n4"]],
            "sum of x for a?",
            "select sum(x) from t where k = 'a'",
            ["9"],
        )
        self.check(inst)


# ---------------------------------------------------------------------------
# Brute-force oracle equivalence

def sufficient(ast, table, gold, cols, rows):
    reduced = project(table, Reduction(frozenset(cols), frozenset(rows)))
    return yields_gold(ast, reduced, gold)


def minimal_column_sets(inst):
    ast = sql.parse_sql(inst.sql)
    gold = list(inst.answers)
    all_rows = frozenset(range(inst.table.n_rows))
    n = inst.table.n_columns
    suff = [
        frozenset(combo)
        for size in range(n + 1)
        for combo in itertools.combinations(range(n), size)
        if sufficient(ast, inst.table, gold, frozenset(combo), all_rows)
    ]
    return [s for s in suff if not any(o < s for o in suff)]


def minimal_row_sets(inst, cols):
    ast = sql.parse_sql(inst.sql)
    gold = list(inst.answers)
    n = inst.table.n_rows
    suff = [
        frozenset(combo)
        for size in range(n + 1)
        for combo in itertools.combinations(range(n), size)
        if sufficient(ast, inst.table, gold, cols, frozenset(combo))
    ]
    return [s for s in suff if not any(o < s for o in suff)]


def random_instance(rng):
    """Small random table + in-grammar query from the synthetic templates."""
    from tabreduce.dataio import SynthConfig, generate_synthetic

    cfg = SynthConfig(
        n_instances=1,
        columns_range=(2, 5),
        rows_range=(1, 6),
        value_vocab_size=4,
        numeric_range=(1, 6),
        seed=rng.randint(0, 10**9),
        annotate=False,
    )
    return generate_synthetic(cfg)[0]


def test_oracle_equivalence_small():
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        inst = random_instance(rng)
        annotated = annotate.annotate_instance(inst, "both")
        if annotated.annotation_status != annotate.STATUS_OK:
            continue
        cols, rows = annotated.relevant_columns, annotated.relevant_rows
        col_sets = minimal_column_sets(inst)
        assert cols in col_sets, f"{inst.sql}: {cols} not in {col_sets}"
        row_sets = minimal_row_sets(inst, cols)
        assert rows in row_sets, f"{inst.sql}: {rows} not in {row_sets}"
        checked += 1


# ---------------------------------------------------------------------------
# Dataset-level annotation

def test_annotate_dataset_counts_and_order():
    bad = instance(["a"], [[1]], "q", "select a from t join u", ["1"])
    good = OLYMPICS
    annotated, stats = annotate.annotate_dataset([good, bad, good], target="both")
    assert [a.annotation_status for a in annotated] == [
        annotate.STATUS_OK, annotate.SKIP_UNSUPPORTED, annotate.STATUS_OK,
    ]
    assert stats.counts == {annotate.SKIP_UNSUPPORTED: 1}
    assert stats.total == 1


def test_annotate_dataset_empty():
    annotated, stats = annotate.annotate_dataset([], target="both")
    assert annotated == []
    assert stats.total == 0


def test_target_columns_leaves_rows_unset():
    out = annotate.annotate_instance(OLYMPICS, target="columns")
    assert out.relevant_columns == frozenset({0, 1})
    assert out.relevant_rows is None


@pytest.mark.parametrize("target", ["rows", "cells"])
def test_targets_other_than_columns_and_both_refused(target):
    """Row labels are defined over the relevant columns, so there is no
    target that writes them alone."""
    with pytest.raises(ValueError, match="unknown target"):
        annotate.annotate_instance(OLYMPICS, target=target)
