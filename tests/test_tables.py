import pytest

from tabreduce.errors import EmptySelectionError
from tabreduce.tables import (
    Instance,
    Reduction,
    Table,
    build_column_prompt,
    build_row_prompt,
    count_tokens,
    linearize_rows,
    make_table,
    project,
    table_fingerprint,
    validate_table,
)


def olympics():
    return make_table(
        ["year", "city"],
        [[2004, "Athens"], [2008, "Beijing"], [2012, "London"]],
    )


class TestTableInvariants:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            Table(("a", "b"), ((1,),))

    def test_duplicate_headers_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_table(["Year", " year "], [[1, 2]])

    def test_zero_columns_rejected_at_ingestion(self):
        with pytest.raises(ValueError, match="at least one column"):
            validate_table(Table((), ()))

    def test_column_index_case_insensitive(self):
        table = olympics()
        assert table.column_index(" YEAR ") == 0
        assert table.column_index("nope") is None


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
        out = linearize_rows(table, {0, 1})
        assert out.text == "Row0: (year,2008), (city,Beijing)"
        assert out.token_count == count_tokens(out.text)

    def test_zero_rows_empty_text(self):
        table = make_table(["year"], [])
        out = linearize_rows(table, {0})
        assert out.text == ""
        assert out.token_count == 0

    def test_subset_keeps_row_indices(self):
        table = make_table(["year", "city"], [[2008, "Beijing"], [2012, "London"]])
        out = linearize_rows(table, {1})
        assert out.text == "Row0: (city,Beijing) Row1: (city,London)"

    def test_empty_subset_raises(self):
        with pytest.raises(EmptySelectionError):
            linearize_rows(olympics(), set())

    def test_pair_counts(self):
        table = make_table(
            ["a", "b", "c"], [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]]
        )
        out = linearize_rows(table, {0, 2})
        assert out.text.count("Row") == 4
        assert out.text.count("(") == 4 * 2

    def test_quoting_of_awkward_values(self):
        table = make_table(["notes"], [["a, b (c)"]])
        out = linearize_rows(table, {0})
        assert '"a, b (c)"' in out.text

    def test_double_quotes_are_quoted_and_doubled(self):
        table = make_table(['say "hi"', "size"], [['5" screen', 'plain']])
        out = linearize_rows(table, {0, 1})
        assert out.text == 'Row0: ("say ""hi""","5"" screen"), (size,plain)'


class TestPrompts:
    def test_column_prompt_template(self):
        table = make_table(["year", "winner"], [[2008, "x"]])
        prompt = build_column_prompt("who won?", table)
        assert prompt == (
            "Select relevant columns from a table to answer a question. "
            "Output '@' if done generating. "
            "Question: who won?, List of column headers: year, winner"
        )

    def test_empty_question_allowed(self):
        prompt = build_column_prompt("", olympics())
        assert "Question: ," in prompt

    def test_header_with_comma_is_quoted(self):
        table = make_table(["wins, losses", "year"], [[1, 2]])
        prompt = build_column_prompt("q", table)
        assert '"wins, losses", year' in prompt

    def test_prompts_are_byte_stable(self):
        table = olympics()
        assert build_column_prompt("q?", table) == build_column_prompt("q?", table)
        assert build_row_prompt("q?", table, {0}) == build_row_prompt("q?", table, {0})

    def test_row_prompt_requires_columns(self):
        with pytest.raises(EmptySelectionError):
            build_row_prompt("q", olympics(), set())

    def test_row_prompt_contains_linearization(self):
        prompt = build_row_prompt("q", olympics(), {1})
        assert "Row0: (city,Athens)" in prompt


class TestTokensAndBudget:
    @pytest.mark.parametrize("text,count", [("", 0), ("a b  c", 3), ("  x ", 1)])
    def test_count_tokens(self, text, count):
        assert count_tokens(text) == count


def test_fingerprint_distinguishes_content():
    t1 = olympics()
    t2 = make_table(["year", "city"], [[2004, "Athens"]])
    assert table_fingerprint(t1) == table_fingerprint(olympics())
    assert table_fingerprint(t1) != table_fingerprint(t2)


def test_instance_carries_annotations():
    inst = Instance(id="i", question="q", table=olympics(), answers=("a",))
    assert inst.relevant_columns is None
    assert inst.extra == {}
