import hashlib
import json
import random

import pytest

from tabreduce import llm
from tabreduce.errors import EmptySelectionError
from tabreduce.tables import (
    Instance,
    Reduction,
    Table,
    column_tokens,
    count_tokens,
    format_cell,
    linearize_tables,
    make_table,
    project,
    row_token_counts,
    table_fingerprint,
    validate_table,
)


def olympics():
    return make_table(
        ["year", "city"],
        [[2004, "Athens"], [2008, "Beijing"], [2012, "London"]],
    )


def linearize(table, column_subset):
    """The rendered text of ``table`` reduced to ``column_subset`` and all
    of its rows, as ``qa`` renders a context."""
    return linearize_tables([project(table, Reduction(frozenset(column_subset), frozenset(range(table.n_rows))))])[0]


class TestTableInvariants:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            Table(("a", "b"), ((1,),))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 2], [3], [4, 5, 6]], "row 1 has 1 cells, expected 2"),
            ([[1, 2], [3, 4], [4, 5, 6]], "row 2 has 3 cells, expected 2"),
            ([[]], "row 0 has 0 cells, expected 2"),
        ],
    )
    def test_first_ragged_row_named(self, rows, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_table(["a", "b"], rows)

    def test_rows_copied_to_tuples(self):
        rows = [[1, "x"], ["y", None]]
        table = make_table(["a", "b"], rows)
        rows[0][0] = 9
        assert table.rows == ((1, "x"), ("y", None))
        assert make_table(["a"], []).rows == ()

    def test_duplicate_headers_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_table(["Year", " year "], [[1, 2]])
        # the first header that folds as an earlier one is named
        with pytest.raises(ValueError, match=r"^duplicate header \(case-insensitive\): 'Year '$"):
            make_table(["year", "city", "Year ", "CITY"], [[1, 2, 3, 4]])
        with pytest.raises(ValueError, match=r"^duplicate header \(case-insensitive\): 'b'$"):
            make_table(["a", "b", "c", "b", "a"], [])

    def test_loaded_table_holds_its_fold(self):
        """``make_table`` folds the headers once, in ``validate_table``, and
        the table keeps the fold that ``column_index`` reads."""
        table = make_table([" Year", "CITY"], [[2008, "Beijing"]])
        assert table._folded == {"year": 0, "city": 1}
        folded = table._folded
        assert table.column_index("city ") == 1 and table._folded is folded

    def test_zero_columns_rejected_at_ingestion(self):
        with pytest.raises(ValueError, match="at least one column"):
            validate_table(Table((), ()))

    def test_column_index_case_insensitive(self):
        table = olympics()
        assert table.column_index(" YEAR ") == 0
        assert table.column_index("nope") is None

    def test_column_index_matches_loop(self):
        """The headers folded once per table resolve every name as the loop
        that folded them on each call did, the first of several headers that
        fold alike included (a table built directly may hold those)."""

        def oracle_column_index(table, name):
            key = name.strip().lower()
            for i, header in enumerate(table.columns):
                if header.strip().lower() == key:
                    return i
            return None

        pool = ["year", " Year", "YEAR ", "city", "City", "a b", " a b ", "", " ", "\tx", "X", "İ", "i̇"]
        rng = random.Random(0)
        for _ in range(300):
            table = Table(tuple(rng.choice(pool) for _ in range(rng.randint(0, 6))), ())
            for name in pool + ["nope"]:
                assert table.column_index(name) == oracle_column_index(table, name), (table.columns, name)
        twice = Table((" Year", "year ", "CITY", "city"), ())
        assert [twice.column_index(n) for n in ("year", "YEAR", "city", " City ")] == [0, 0, 2, 2]


class TestProject:
    def test_full_reduction_is_identity(self):
        table = olympics()
        everything = Reduction(frozenset(range(table.n_columns)), frozenset(range(table.n_rows)))
        assert project(table, everything) == table

    def test_direct_selection(self):
        table = make_table(["a", "b", "c"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        out = project(table, Reduction(columns=frozenset({0, 2}), rows=frozenset({1})))
        assert out.columns == ("a", "c")
        assert out.rows == ((4, 6),)

    def test_empty_columns_gives_empty_projection(self):
        table = olympics()
        out = project(table, Reduction(columns=frozenset(), rows=frozenset({0, 1})))
        assert out.n_columns == 0
        assert out.n_rows == 2

    def test_out_of_bounds_raises(self):
        table = olympics()
        with pytest.raises(IndexError):
            project(table, Reduction(columns=frozenset({5}), rows=frozenset()))
        with pytest.raises(IndexError):
            project(table, Reduction(columns=frozenset({0}), rows=frozenset({3})))

    def test_order_preserved_regardless_of_set_order(self):
        table = make_table(["a", "b", "c"], [[1, 2, 3]])
        out = project(table, Reduction(columns=frozenset({2, 0, 1}), rows=frozenset({0})))
        assert out.columns == ("a", "b", "c")


class TestLinearize:
    def test_paper_format(self):
        table = make_table(["year", "city"], [[2008, "Beijing"]])
        out = linearize(table, {0, 1})
        assert out == "Row0: (year,2008), (city,Beijing)"
        assert row_token_counts([table]) == [[count_tokens(out)]] == [[3]]

    def test_zero_rows_empty_text(self):
        table = make_table(["year"], [])
        assert linearize(table, {0}) == ""
        assert row_token_counts([table]) == [[]]

    def test_subset_keeps_row_indices(self):
        table = make_table(["year", "city"], [[2008, "Beijing"], [2012, "London"]])
        out = linearize(table, {1})
        assert out == "Row0: (city,Beijing) Row1: (city,London)"

    def test_empty_subset_raises(self):
        with pytest.raises(EmptySelectionError):
            column_tokens(olympics(), set(), {})

    def test_column_out_of_range_raises(self):
        with pytest.raises(IndexError):
            linearize(olympics(), {0, 9})
        with pytest.raises(IndexError):
            column_tokens(olympics(), {0, 9}, {})

    def test_pair_counts(self):
        table = make_table(
            ["a", "b", "c"], [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]]
        )
        out = linearize(table, {0, 2})
        assert out.count("Row") == 4
        assert out.count("(") == 4 * 2

    def test_quoting_of_awkward_values(self):
        table = make_table(["notes"], [["a, b (c)"]])
        out = linearize(table, {0})
        assert '"a, b (c)"' in out

    def test_double_quotes_are_quoted_and_doubled(self):
        table = make_table(['say "hi"', "size"], [['5" screen', 'plain']])
        out = linearize(table, {0, 1})
        assert out == 'Row0: ("say ""hi""","5"" screen"), (size,plain)'


class TestPrompts:
    """The QA prompt as ``qa --endpoint`` builds it, the one prompt the
    package sends."""

    def prompt(self, question, table):
        return llm.QA_PROMPT_TEMPLATE.format(question=question, context=linearize_tables([table])[0])

    def test_empty_question_allowed(self):
        assert "Question:  Table: Row0: (year,2004)" in self.prompt("", olympics())

    def test_header_with_comma_is_quoted(self):
        table = make_table(["wins, losses", "year"], [[1, 2]])
        assert self.prompt("q", table).endswith('Table: Row0: ("wins, losses",1), (year,2)')

    def test_prompts_are_byte_stable(self):
        table = olympics()
        assert self.prompt("q?", table) == self.prompt("q?", table)
        assert linearize_tables([table, table]) == [linearize_tables([table])[0]] * 2


@pytest.mark.parametrize(
    "cell, text",
    [(2.0, "2"), (2.5, "2.5"), ("x", "x"), (7, "7"), (-0.0, "0"), (True, "true"), (False, "false"), (None, "")],
)
def test_format_cell(cell, text):
    assert format_cell(cell) == text


class TestTokensAndBudget:
    @pytest.mark.parametrize("text,count", [("", 0), ("a b  c", 3), ("  x ", 1)])
    def test_count_tokens(self, text, count):
        assert count_tokens(text) == count


def test_fingerprint_distinguishes_content():
    t1 = olympics()
    t2 = make_table(["year", "city"], [[2004, "Athens"]])
    assert table_fingerprint(t1) == table_fingerprint(olympics())
    assert table_fingerprint(t1) != table_fingerprint(t2)


def test_fingerprint_matches_list_oracle():
    """Rows go to ``json`` as tuples; the hash is that of the lists the
    fingerprint once built, for bools, nulls, ``-0.0`` and floats too."""

    def oracle_fingerprint(table):
        doc = {"columns": list(table.columns), "rows": [list(r) for r in table.rows]}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(blob.encode("utf-8")).hexdigest()

    tables = [
        olympics(),
        make_table(["a", "b", "c"], [[True, None, -0.0], [False, 1.5, 0.0], [1e20, "x y", 10**20]]),
        make_table(["n"], [[0.1], [-2.5e-7], [float("inf")], [1.0], [""]]),
        make_table(["empty"], []),
    ]
    for table in tables:
        assert table_fingerprint(table) == oracle_fingerprint(table)
    assert len({table_fingerprint(t) for t in tables}) == len(tables)


def test_instance_carries_annotations():
    inst = Instance(id="i", question="q", table=olympics(), answers=("a",))
    assert inst.relevant_columns is None
    assert inst.extra == {}
