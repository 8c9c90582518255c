import random

import pytest

from tabreduce import sql
from tabreduce.tables import make_table


def olympics():
    return make_table(
        ["year", "city", "country"],
        [
            [2004, "Athens", "Greece"],
            [2008, "Beijing", "China"],
            [2012, "London", "UK"],
        ],
    )


class TestParse:
    def test_simple_lookup(self):
        ast = sql.parse_sql("select city from t where year = 2008")
        assert ast.projection_column == "city"
        assert ast.aggregate is None
        assert ast.predicates == (sql.Predicate("year", "=", 2008.0),)

    def test_aggregate(self):
        ast = sql.parse_sql("select count(city) from t where country = 'usa'")
        assert ast.aggregate == "count"
        assert ast.projection_column == "city"
        assert ast.predicates[0].literal == "usa"

    def test_join_unsupported(self):
        with pytest.raises(sql.UnsupportedQuery) as err:
            sql.parse_sql("select a from t join u")
        assert err.value.span is not None

    def test_or_unsupported(self):
        with pytest.raises(sql.UnsupportedQuery):
            sql.parse_sql("select a from t where b = 1 or c = 2")

    def test_star_unsupported(self):
        with pytest.raises(sql.UnsupportedQuery):
            sql.parse_sql("select * from t")

    def test_unknown_function_unsupported(self):
        with pytest.raises(sql.UnsupportedQuery):
            sql.parse_sql("select median(a) from t")

    def test_syntax_error(self):
        with pytest.raises(sql.SqlSyntaxError):
            sql.parse_sql("select from where")
        with pytest.raises(sql.SqlSyntaxError):
            sql.parse_sql("")

    def test_order_and_limit(self):
        ast = sql.parse_sql("select city from t where year > 2000 order by year desc limit 2")
        assert ast.order_by == ("year", "desc")
        assert ast.limit == 2

    def test_quoted_column_and_escaped_literal(self):
        ast = sql.parse_sql("select \"total wins\" from t where name = 'o''brien'")
        assert ast.projection_column == "total wins"
        assert ast.predicates[0].literal == "o'brien"

    def test_operators(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            ast = sql.parse_sql(f"select a from t where b {op} 1")
            assert ast.predicates[0].op == op
        ast = sql.parse_sql("select a from t where b <> 1")
        assert ast.predicates[0].op == "!="

    @pytest.mark.parametrize(
        "query, message, span",
        [
            ("select * from t", "unsupported star projection at 7..8: '*'", (7, 8)),
            ("select distinct a from t", "unsupported DISTINCT at 7..15: 'distinct'", (7, 15)),
            ("select median(a) from t", "unsupported function 'median' at 7..13: 'median'", (7, 13)),
            ("select a, b from t", "unsupported multi-column projection at 8..9: ','", (8, 9)),
            ("select a from t where b = 1 or c = 2", "unsupported OR at 28..30: 'or'", (28, 30)),
            ("select a from t group by a", "unsupported clause at 16..21: 'group'", (16, 21)),
            ("select a from t join u", "unsupported clause at 16..20: 'join'", (16, 20)),
            ("select a from t;;", "unsupported clause at 15..16: ';'", (15, 16)),
            ("select a from t; ;", "unsupported clause at 15..16: ';'", (15, 16)),
        ],
    )
    def test_unsupported_message_and_span(self, query, message, span):
        with pytest.raises(sql.UnsupportedQuery) as err:
            sql.parse_sql(query)
        assert str(err.value) == message
        assert err.value.span == span

    @pytest.mark.parametrize(
        "query, message",
        [
            ("", "empty query"),
            ("  \t\n", "empty query"),
            ("select", "empty projection"),
            ("delete from t", "expected 'select', got 'delete'"),
            ("select (a) from t", "expected column name, got '('"),
            ("select a from", "unexpected end of query"),
            ("select a from ;;", "expected table name, got ';'"),
            ("select a from = where b = 1", "expected table name, got '='"),
            ("select a from 5 limit 2", "expected table name, got '5'"),
            ("select a from t where", "unexpected end of query"),
            ("select a from t where b", "unexpected end of query"),
            ("select a from t where b =", "unexpected end of query"),
            ("select a from t where b 1", "expected comparison operator, got '1'"),
            ("select a from t where b = = 1", "expected literal, got '='"),
            ("select count(a", "unexpected end of query"),
            ("select count(a from t", "expected ')', got 'from'"),
            ("select a from t order b", "expected 'by', got 'b'"),
            ("select a from t order by", "unexpected end of query"),
            ("select a from t where b = 1 ^ 2", "cannot scan query at position 27: ' ^ 2'"),
            ("select a from t @", "cannot scan query at position 15: ' @'"),
            ("select a from t where b = 'x", "cannot scan query at position 25: \" 'x\""),
            ("select 'a'' from t", "cannot scan query at position 10: \"' from t\""),
            ("select a from t limit 0", "LIMIT needs a positive integer, got '0'"),
            ("select a from t limit -1", "LIMIT needs a positive integer, got '-1'"),
            ("select a from t limit 2.5", "LIMIT needs a positive integer, got '2.5'"),
            ("select a from t limit x", "LIMIT needs a positive integer, got 'x'"),
            ("select a from t limit", "unexpected end of query"),
        ],
    )
    def test_syntax_error_message(self, query, message):
        with pytest.raises(sql.SqlSyntaxError) as err:
            sql.parse_sql(query)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("select a from t limit ٣", sql.SqlAst("a", limit=3)),  # Arabic-Indic digit three
            ("select\x1ca\x1cfrom\x1ct", sql.SqlAst("a")),  # a separator scans as whitespace
            ('select a from "t t"', sql.SqlAst("a")),  # the table name may be a quoted identifier
            ("SELECT MAX(a) FROM t WHERE b <> 'x' ORDER BY a DESC LIMIT 2;",
             sql.SqlAst("a", "max", (sql.Predicate("b", "!=", "x"),), ("a", "desc"), 2)),
        ],
    )
    def test_accepted_edge_cases(self, query, expected):
        assert sql.parse_sql(query) == expected


class TestExecute:
    def test_lookup(self):
        ast = sql.parse_sql("select city from t where year = 2008")
        assert sql.execute(ast, olympics()) == ["Beijing"]

    def test_missing_column_signal(self):
        table = make_table(["year"], [[2004], [2008]])
        ast = sql.parse_sql("select city from t where year = 2008")
        with pytest.raises(sql.ExecutionError) as err:
            sql.execute(ast, table)
        assert err.value.kind == sql.MISSING_COLUMN

    def test_count(self):
        table = make_table(
            ["city", "country"],
            [["nyc", "usa"], ["la", "usa"], ["paris", "france"]],
        )
        ast = sql.parse_sql("select count(city) from t where country = 'usa'")
        assert sql.execute(ast, table) == [2]

    def test_count_empty_is_zero(self):
        ast = sql.parse_sql("select count(city) from t where country = 'nowhere'")
        table = make_table(["city", "country"], [["a", "b"]])
        assert sql.execute(ast, table) == [0]

    def test_empty_aggregate_raises(self):
        ast = sql.parse_sql("select sum(year) from t where year > 9999")
        with pytest.raises(sql.ExecutionError) as err:
            sql.execute(ast, olympics())
        assert err.value.kind == sql.EMPTY_AGGREGATE

    def test_sum_avg_min_max(self):
        table = make_table(["x", "k"], [[1, "a"], [2, "a"], [5, "b"]])
        runs = {
            "select sum(x) from t where k = 'a'": [3.0],
            "select avg(x) from t where k = 'a'": [1.5],
            "select min(x) from t where k = 'a'": [1],
            "select max(x) from t where k = 'a'": [2],
        }
        for query, expected in runs.items():
            assert sql.execute(sql.parse_sql(query), table) == expected

    def test_nulls_never_match_and_are_skipped(self):
        table = make_table(["x", "k"], [[None, "a"], [2, "a"], [3, None]])
        assert sql.execute(sql.parse_sql("select count(x) from t where k = 'a'"), table) == [1]
        assert sql.execute(sql.parse_sql("select sum(x) from t where k = 'a'"), table) == [2.0]
        assert sql.execute(sql.parse_sql("select x from t where k != 'a'"), table) == []

    def test_type_mismatch_on_ordering(self):
        table = make_table(["x"], [["word"]])
        with pytest.raises(sql.ExecutionError) as err:
            sql.execute(sql.parse_sql("select x from t where x > 3"), table)
        assert err.value.kind == sql.TYPE_MISMATCH

    def test_numeric_string_cells_compare_numerically(self):
        table = make_table(["x", "city"], [["2,008", "Beijing"], ["2004", "Athens"]])
        ast = sql.parse_sql("select city from t where x = 2008")
        assert sql.execute(ast, table) == ["Beijing"]

    def test_case_insensitive_string_match(self):
        ast = sql.parse_sql("select year from t where city = 'BEIJING'")
        assert sql.execute(ast, olympics()) == [2008]

    def test_order_by_limit(self):
        ast = sql.parse_sql("select city from t where year > 2000 order by year desc limit 1")
        assert sql.execute(ast, olympics()) == ["London"]

    def test_aggregate_row_order_independence(self):
        rng = random.Random(0)
        table = make_table(["x", "k"], [[i, "a"] for i in range(6)])
        ast = sql.parse_sql("select sum(x) from t where k = 'a'")
        base = sql.execute(ast, table)
        rows = list(table.rows)
        for _ in range(5):
            rng.shuffle(rows)
            assert sql.execute(ast, make_table(["x", "k"], rows)) == base

    def test_projection_is_submultiset_of_column(self):
        table = olympics()
        ast = sql.parse_sql("select city from t where year >= 2008")
        result = sql.execute(ast, table)
        cells = [row[1] for row in table.rows]
        for value in result:
            assert cells.count(value) >= result.count(value)


class TestBoolCells:
    """The engine's semantics for bool cells, which JSON data carries: a bool
    is neither a number nor text, so it equals no literal and cannot be
    ordered.

    The differential oracle below does not hold the engine to this:
    ``random_table`` draws no bools, and ``naive_execute`` reads a bool as
    the text ``'true'``/``'false'`` in ``min``/``max``, so on ``[True, 'x']``
    it returns ``'x'`` for ``max(v)`` where the engine raises
    ``type_mismatch``.  These direct cases do instead.
    """

    TABLE = make_table(
        ["v", "k"], [[True, "a"], [1, "b"], [False, "c"], [0, "d"], ["true", "e"], [1.0, "f"]]
    )

    @pytest.mark.parametrize(
        "where, expected",
        [
            ("v = 1", ["b", "f"]),
            ("v = 0", ["d"]),
            ("v != 1", ["a", "c", "d", "e"]),
            ("v = 'true'", ["e"]),
            ("v != 'true'", ["a", "b", "c", "d", "f"]),
        ],
    )
    def test_equality_never_matches_a_bool(self, where, expected):
        ast = sql.parse_sql(f"select k from t where {where}")
        assert sql.execute(ast, self.TABLE) == expected

    @pytest.mark.parametrize(
        "rows, where, message",
        [
            ([[True]], "v > 0", "cannot order True against 0.0"),
            ([[1], [False]], "v <= 1", "cannot order False against 1.0"),
            ([["x"], [True]], "v >= 'a'", "cannot order True against 'a'"),
        ],
    )
    def test_ordering_a_bool_raises(self, rows, where, message):
        ast = sql.parse_sql(f"select v from t where {where}")
        with pytest.raises(sql.ExecutionError, match=message) as err:
            sql.execute(ast, make_table(["v"], rows))
        assert err.value.kind == sql.TYPE_MISMATCH

    @pytest.mark.parametrize(
        "query", ["select min(v) from t", "select max(v) from t", "select k from t order by v"]
    )
    def test_bools_mixed_with_strings_raise(self, query):
        table = make_table(["v", "k"], [[True, "a"], ["x", "b"]])
        with pytest.raises(sql.ExecutionError) as err:
            sql.execute(sql.parse_sql(query), table)
        assert err.value.kind == sql.TYPE_MISMATCH


class TestAnswersMatch:
    @pytest.mark.parametrize(
        "result,gold,expected",
        [
            (["Beijing"], ["beijing"], True),
            ([2], ["2.0"], True),
            (["Beijing"], ["London"], False),
            (["2,008"], ["2008"], True),
            ([1, 2], [" 2", "1 "], True),
            ([1, 1, 2], ["1", "2", "2"], False),
            ([], [], True),
            ([1], ["1", "1"], False),
            ([None], [""], True),
        ],
    )
    def test_cases(self, result, gold, expected):
        assert sql.answers_match(result, gold) is expected

    def test_numeric_tolerance(self):
        assert sql.answers_match([1.0000000001], ["1"])
        assert not sql.answers_match([1.01], ["1"])


# ---------------------------------------------------------------------------
# Differential oracle: an independent naive evaluator

def naive_compare(cell, op, literal):
    if cell is None:
        return False
    c = sql.coerce_number(cell)
    l = sql.coerce_number(literal)
    if c is not None and l is not None:
        import math

        return {
            "=": math.isclose(c, l, rel_tol=1e-6, abs_tol=1e-9),
            "!=": not math.isclose(c, l, rel_tol=1e-6, abs_tol=1e-9),
            "<": c < l,
            "<=": c <= l,
            ">": c > l,
            ">=": c >= l,
        }[op]
    if isinstance(cell, str) and c is None and isinstance(literal, str) and l is None:
        a, b = cell.strip().lower(), literal.strip().lower()
        return {"=": a == b, "!=": a != b, "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
    if op == "=":
        return False
    if op == "!=":
        return True
    raise sql.ExecutionError(sql.TYPE_MISMATCH, "naive: unorderable")


def naive_execute(ast, table):
    """Row-at-a-time re-implementation used as the differential oracle."""
    def col(name):
        for i, header in enumerate(table.columns):
            if header.strip().lower() == name.strip().lower():
                return i
        raise sql.ExecutionError(sql.MISSING_COLUMN, "naive: missing")

    for pred in ast.predicates:
        col(pred.column)
    proj = col(ast.projection_column)

    kept = []
    for row in table.rows:
        ok = True
        for pred in ast.predicates:
            if not naive_compare(row[col(pred.column)], pred.op, pred.literal):
                ok = False
                break
        if ok:
            kept.append(row)

    if ast.order_by is not None:
        oc = col(ast.order_by[0])
        kinds = set()
        for row in kept:
            if row[oc] is None:
                continue
            kinds.add("num" if sql.coerce_number(row[oc]) is not None else "str")
        if len(kinds) > 1:
            raise sql.ExecutionError(sql.TYPE_MISMATCH, "naive: mixed order")

        def key(row):
            v = row[oc]
            n = sql.coerce_number(v)
            if n is not None:
                return (0, n)
            if isinstance(v, str):
                return (1, v.strip().lower())
            return (2, "")

        kept = sorted(kept, key=key, reverse=ast.order_by[1] == "desc")
    if ast.limit is not None:
        kept = kept[: ast.limit]

    values = [row[proj] for row in kept]
    if ast.aggregate is None:
        return values
    non_null = [v for v in values if v is not None]
    if ast.aggregate == "count":
        return [len(non_null)]
    if not non_null:
        raise sql.ExecutionError(sql.EMPTY_AGGREGATE, "naive: empty")
    if ast.aggregate in ("sum", "avg"):
        nums = []
        for v in non_null:
            n = sql.coerce_number(v)
            if n is None:
                raise sql.ExecutionError(sql.TYPE_MISMATCH, "naive: non-numeric")
            nums.append(n)
        return [sum(nums)] if ast.aggregate == "sum" else [sum(nums) / len(nums)]
    kinds = {"num" if sql.coerce_number(v) is not None else "str" for v in non_null}
    if len(kinds) > 1:
        raise sql.ExecutionError(sql.TYPE_MISMATCH, "naive: mixed")
    keys = [
        (0, sql.coerce_number(v)) if sql.coerce_number(v) is not None else (1, str(v).strip().lower())
        for v in non_null
    ]
    # first-attaining cell wins ties, matching the engine's contract
    target = min(keys) if ast.aggregate == "min" else max(keys)
    return [non_null[keys.index(target)]]


def random_table(rng, max_cols=8, max_rows=8):
    n_cols = rng.randint(1, max_cols)
    n_rows = rng.randint(0, max_rows)
    headers = [f"c{i}" for i in range(n_cols)]
    words = ["ant", "bee", "cat", "dog", "elk"]

    def cell():
        roll = rng.random()
        if roll < 0.35:
            return rng.randint(-5, 9)
        if roll < 0.55:
            return rng.choice(words)
        if roll < 0.65:
            return None
        if roll < 0.8:
            return str(rng.randint(0, 20))
        return rng.choice(words).upper()

    return make_table(headers, [[cell() for _ in range(n_cols)] for _ in range(n_rows)])


def random_query(rng, table):
    def colname():
        return rng.choice(table.columns)

    agg = rng.choice([None, None, "count", "sum", "avg", "min", "max"])
    proj = f"{agg}({colname()})" if agg else colname()
    parts = [f"select {proj} from t"]
    if rng.random() < 0.85:
        preds = []
        for _ in range(rng.randint(1, 2)):
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            if rng.random() < 0.6:
                literal = str(rng.randint(-5, 9))
            else:
                literal = "'" + rng.choice(["ant", "bee", "cat", "dog", "elk"]) + "'"
            preds.append(f"{colname()} {op} {literal}")
        parts.append("where " + " and ".join(preds))
    if rng.random() < 0.25:
        parts.append(f"order by {colname()} {rng.choice(['asc', 'desc'])}")
    if rng.random() < 0.25:
        parts.append(f"limit {rng.randint(1, 4)}")
    return " ".join(parts)


def run_both(query, table):
    ast = sql.parse_sql(query)
    try:
        expected = ("ok", naive_execute(ast, table))
    except sql.ExecutionError as exc:
        expected = ("error", exc.kind)
    try:
        actual = ("ok", sql.execute(ast, table))
    except sql.ExecutionError as exc:
        actual = ("error", exc.kind)
    return expected, actual


def test_differential_small():
    rng = random.Random(1234)
    for _ in range(200):
        table = random_table(rng)
        query = random_query(rng, table)
        expected, actual = run_both(query, table)
        assert actual == expected, f"{query} on {table}"


# ---------------------------------------------------------------------------
# filter_rows against the per-row loop it replaced

def oracle_compare(cell, op, literal):
    """One row's comparison with the literal prepared afresh, as the per-row
    loop made it."""
    return sql._judge(cell, op, literal, sql._prepare_literal(literal))


def oracle_filter_rows(ast, table):
    """Each predicate in query order judges every row the earlier ones
    passed, one row at a time."""
    pred_cols = [sql._resolve(table, p.column) for p in ast.predicates]
    sql._resolve(table, ast.projection_column)
    indices = list(range(table.n_rows))
    for pred, col in zip(ast.predicates, pred_cols):
        indices = [i for i in indices if oracle_compare(table.rows[i][col], pred.op, pred.literal)]
    return indices


# Cells that compare alike but must be judged apart (True/1, False/0/0.0/-0.0,
# 1/1.0, '2,008'/2008), padded and mixed-case text, and null.
FILTER_CELLS = (
    True, False, 1, 0, 1.0, 0.0, -0.0, -1, 2.5, 2008, "2,008", " 2008 ", "1", " 1 ",
    "ant", " Ant ", "ANT", "bee", "true", "", None,
)
FILTER_LITERALS = (
    1.0, 0.0, -1.0, 2.5, 2008.0, "1", "2,008", "-0", "ant", "ANT ", "true", "zzz", "",
)


def random_filter_case(rng):
    """A table whose columns draw from a few of ``FILTER_CELLS`` each, often
    over many rows, and a query of one or two predicates on it."""
    n_cols = rng.randint(1, 4)
    n_rows = rng.choice([0, 1, rng.randint(2, 8), rng.randint(20, 120)])
    pools = [rng.sample(FILTER_CELLS, rng.randint(1, 5)) for _ in range(n_cols)]
    rows = [[rng.choice(pool) for pool in pools] for _ in range(n_rows)]
    table = make_table([f"c{i}" for i in range(n_cols)], rows)
    predicates = tuple(
        sql.Predicate(
            column=rng.choice(table.columns),
            op=rng.choice(["=", "!=", "<", "<=", ">", ">="]),
            literal=rng.choice(FILTER_LITERALS),
        )
        for _ in range(rng.randint(1, 2))
    )
    return sql.SqlAst(projection_column=rng.choice(table.columns), predicates=predicates), table


def outcome(fn, ast, table):
    try:
        return ("ok", fn(ast, table))
    except sql.ExecutionError as exc:
        return ("error", exc.kind, str(exc))


def test_filter_rows_matches_per_row_loop():
    """Same rows, or the same error kind and message (so the same first
    failing row), as judging every row in turn."""
    rng = random.Random(606)
    kinds = set()
    for _ in range(3000):
        ast, table = random_filter_case(rng)
        expected = outcome(oracle_filter_rows, ast, table)
        assert outcome(sql.filter_rows, ast, table) == expected, f"{ast}\n{table}"
        kinds.add(expected[0] if expected[0] == "ok" else expected[1])
    assert kinds == {"ok", sql.TYPE_MISMATCH}


@pytest.mark.parametrize(
    "column, literal, op",
    [
        ([1, True, 1.0, True], 1.0, "="),
        ([0, False, -0.0, 0.0, False], 0.0, "!="),
        ([1, 1.0, True], "ant", ">"),
        ([-0.0, 0.0, "x"], "ant", "<"),
        ([True, 1, False, 0], "1", "="),
    ],
    ids=["true-one", "false-zero", "int-float-error", "signed-zero-error", "numeric-text"],
)
def test_filter_rows_keeps_equal_keys_apart(column, literal, op):
    """Cells that are equal dict keys but judged or reported apart."""
    table = make_table(["v"], [[cell] for cell in column])
    ast = sql.SqlAst(projection_column="v", predicates=(sql.Predicate("v", op, literal),))
    assert outcome(sql.filter_rows, ast, table) == outcome(oracle_filter_rows, ast, table)
