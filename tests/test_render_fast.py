"""Differential tests: the one-pass table renderer against the per-row code
it replaced; the row token ids, row vocabulary and token counts taken from
each column's distinct cells against the same oracle renderings, tokenized
and counted; the mock reader's visible table against the per-character
parse of the rendered QA prompt that it replaced; and walks that share one
memo over a stage's tables against fresh walks of each table.

The oracles below are that code, kept as it was apart from the quoting rule:
``"`` is quoted as well as ``,``, ``(`` and ``)``, which is the bug fix that
went in with the renderer, and text holding a row anchor ``Row{i}: `` is
quoted with the anchor's space between two quoted runs, so that a reader
cutting the prompt at anchors never cuts inside a cell.
"""

import math
import random
import re

import pytest

from encoded_instances import assert_same_matrices, encode_texts
from tabreduce import llm, metrics, policy, tasks
from tabreduce.tables import (
    Instance,
    Reduction,
    Table,
    _row_counts,
    column_token_ids,
    count_tokens,
    format_cell,
    linearize_tables,
    project,
    row_token_counts,
)

# ---------------------------------------------------------------------------
# Oracles


def oracle_quote(text):
    if any(ch in text for ch in ',()"') or re.search(r"Row\d+: ", text):
        quoted = '"' + text.replace('"', '""') + '"'
        return re.sub(r"(Row\d+:) ", r'\1" "', quoted)
    return text


def oracle_row_pairs(table, row, columns):
    return ", ".join(
        f"({oracle_quote(table.columns[c])},{oracle_quote(format_cell(row[c]))})"
        for c in columns
    )


def oracle_linearize(table, column_subset):
    cols = sorted(column_subset)
    segments = [f"Row{i}: {oracle_row_pairs(table, row, cols)}" for i, row in enumerate(table.rows)]
    return " ".join(segments)


def oracle_parse_pairs(segment):
    pairs = []
    i = 0
    while i < len(segment):
        if segment[i] != "(":
            i += 1
            continue
        i += 1
        fields = []
        current = []
        in_quotes = False
        closed = False
        while i < len(segment):
            ch = segment[i]
            if in_quotes:
                if ch == '"':
                    if i + 1 < len(segment) and segment[i + 1] == '"':
                        current.append('"')
                        i += 2
                        continue
                    in_quotes = False
                else:
                    current.append(ch)
            elif ch == '"':
                in_quotes = True
            elif ch == "," and len(fields) == 0:
                fields.append("".join(current))
                current = []
            elif ch == ")":
                fields.append("".join(current))
                closed = True
                i += 1
                break
            else:
                current.append(ch)
            i += 1
        if closed and len(fields) == 2:
            pairs.append((fields[0], fields[1]))
    return pairs


def oracle_parse_prompt_table(prompt, budget_tokens=None):
    anchors = [m.start() for m in re.finditer(r"Row\d+: ", prompt)]
    if not anchors:
        return None
    preamble = prompt[: anchors[0]]
    segments = [
        prompt[anchors[i] : anchors[i + 1] if i + 1 < len(anchors) else len(prompt)]
        for i in range(len(anchors))
    ]
    if budget_tokens is not None:
        used = count_tokens(preamble)
        kept = []
        for segment in segments:
            used += count_tokens(segment)
            if used > budget_tokens:
                break
            kept.append(segment)
        segments = kept
    rows = []
    headers = None
    for segment in segments:
        pairs = oracle_parse_pairs(segment)
        if not pairs:
            continue
        if headers is None:
            headers = [h for h, _ in pairs]
        if [h for h, _ in pairs] != headers:
            continue
        rows.append([llm._parse_cell(v) for _, v in pairs])
    if headers is None:
        return None
    return Table(tuple(headers), tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# Random tables

WORDS = ["a", "b c", " lead", "trail ", "x,y", "(p)", "q)", "(", ")", '"', 'say "hi"',
         '5" screen', '""', "", "  ", "tab\there", "line\nbreak", "Row1: z", "1", "2.5", "nan"]
NUMBERS = [0, 1, -1, 7, 10**20, 1.0, -0.0, 0.0, 2.0, 2.5, -3.25, 1e-7, 1e20, 1e300,
           math.inf, -math.inf, math.nan, True, False, None]


def random_cell(rng):
    kind = rng.random()
    if kind < 0.45:
        return rng.choice(WORDS) if rng.random() < 0.7 else "".join(
            rng.choice('ab ,()"') for _ in range(rng.randint(0, 6)))
    return rng.choice(NUMBERS)


def random_table(rng, max_rows=12, max_cols=5):
    n_cols = rng.randint(1, max_cols)
    headers = tuple(f"{rng.choice(WORDS)}{c}" for c in range(n_cols))
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        row = [random_cell(rng) for _ in range(n_cols)]
        if rng.random() < 0.3:
            # equal-but-differently-rendered values side by side in one column
            row[0] = rng.choice([1, 1.0, True, 0, 0.0, False, -0.0])
        rows.append(tuple(row))
    return Table(headers, tuple(rows))


def random_subset(rng, n_cols):
    return frozenset(rng.sample(range(n_cols), rng.randint(1, n_cols)))


SEEDS = range(6)


def row_ids(table, cols, encode, ids):
    """Each row's token ids put back together from ``column_token_ids``:
    per column, its header's and then its cell's."""
    columns = column_token_ids(table, cols, encode, ids)
    return [tuple(tok for head, distinct, index in columns for tok in head + distinct[index[r]])
            for r in range(table.n_rows)]


def check_against_oracle(table, cols):
    """Rendering, count, row ids and row vocabulary of ``table`` over
    ``cols``, and what ``tasks`` and ``metrics`` make of them, against the
    oracle's text."""
    text = oracle_linearize(table, cols)
    rows = [oracle_row_pairs(table, row, sorted(cols)) for row in table.rows]
    context = project(table, Reduction(frozenset(cols), frozenset(range(table.n_rows))))
    assert linearize_tables([context])[0] == text
    (counts,) = row_token_counts([context])
    assert counts == [count_tokens(f"Row{i}: {pairs}") for i, pairs in enumerate(rows)]
    assert sum(counts) == count_tokens(text)

    vocab = policy.build_vocabulary(rows)
    assert row_ids(table, cols, vocab.encode, {}) == [vocab.encode(t) for t in rows]
    assert row_ids(table, cols, policy.tokenize, {}) == [tuple(policy.tokenize(t)) for t in rows]
    # with some tokens out of the vocabulary
    partial = policy.build_vocabulary(rows[: len(rows) // 2])
    assert row_ids(table, cols, partial.encode, {}) == [partial.encode(t) for t in rows]

    inst = Instance(id="i", question="Which q?", table=table, relevant_columns=frozenset(cols))
    assert tasks.build_vocab([inst], "rows") == policy.build_vocabulary(["Which q?", *rows])
    assert_same_matrices(tasks.encode(partial, [inst], "rows"), encode_texts(partial, [("Which q?", rows)]))
    length = count_tokens(oracle_linearize(table, range(table.n_columns)))
    assert metrics.bucket_by_length([inst], [-1, length, length + 1]) == [1]  # whole table, exactly


@pytest.mark.parametrize("seed", SEEDS)
def test_renderings_match_oracle(seed):
    rng = random.Random(seed)
    for _ in range(150):
        table = random_table(rng)
        check_against_oracle(table, random_subset(rng, table.n_columns))


# whitespace str.split sees (\x1c, \u3000, \x85), runs at either end or
# alone, and anchors whose quoting splits the run after them
AWKWARD = ['"', "Row3:  x", "Row3: \u3000x", " lead", "trail ", "  both  ", " ", "\t\n ",
           "\x1c", "a\x1cb", "\u3000", "a\u3000\u3000b", "\x85x", "x, y", "Row1:", "row2: z",
           "İstanbul", "ΣΑΣ x", "e\u0301", "", 1, 1.0, True, 0, 0.0, False, -0.0, None,
           1e20, math.nan]


@pytest.mark.parametrize("seed", SEEDS)
def test_awkward_cells_match_oracle(seed):
    rng = random.Random(4000 + seed)
    for _ in range(100):
        n_cols = rng.randint(1, 4)
        headers = tuple(f"{rng.choice(AWKWARD)}{c}" if rng.random() < 0.7 else f"h{c}"
                        for c in range(n_cols))
        rows = tuple(tuple(rng.choice(AWKWARD) for _ in range(n_cols))
                     for _ in range(rng.randint(0, 8)))
        table = Table(headers, rows)
        check_against_oracle(table, random_subset(rng, n_cols))


@pytest.mark.parametrize("cell", [c for c in AWKWARD if isinstance(c, str)])
def test_each_awkward_text_as_header_and_cell(cell):
    table = Table((cell, "n"), ((cell, 1), ("plain", cell), (cell, None)))
    for cols in ({0}, {1}, {0, 1}):
        check_against_oracle(table, cols)


def test_quoting_splits_a_whitespace_run():
    # the anchor's space is written between two quoted runs: 2 runs, not 1
    table = Table(("v",), (("Row3:  x",),))
    assert linearize_tables([table])[0] == 'Row0: (v,"Row3:" " x")'
    assert row_token_counts([table]) == [[count_tokens('Row0: (v,"Row3:" " x")')]] == [[4]]


def test_equal_keys_of_other_types_render_apart():
    table = Table(("v",), ((1,), (1.0,), (True,), (0,), (False,), (-0.0,), (1.5,), (None,)))
    assert linearize_tables([table])[0] == oracle_linearize(table, {0}) == (
        "Row0: (v,1) Row1: (v,1) Row2: (v,true) Row3: (v,0) Row4: (v,false) Row5: (v,0) "
        "Row6: (v,1.5) Row7: (v,)"
    )
    vocab = policy.build_vocabulary(["v 1 true 0 false 1 5"])
    v, one, true, zero, false, five = map(vocab.encode, ["v", "1", "true", "0", "false", "5"])
    assert row_ids(table, {0}, vocab.encode, {}) == [
        v + one, v + one, v + true, v + zero, v + false, v + zero, v + one + five, v
    ]
    check_against_oracle(table, {0})


def test_zero_rows_and_zero_columns():
    table = Table(("a", "b"), ())
    vocab = policy.build_vocabulary(["a b"])
    assert linearize_tables([table]) == [""]
    assert row_token_counts([table]) == [[]]
    assert row_ids(table, {1}, vocab.encode, {}) == []
    assert column_token_ids(table, {1}, vocab.encode, {}) == [(vocab.encode("b"), [], [])]
    inst = Instance(id="i", question="q", table=table, relevant_columns=frozenset({0, 1}))
    assert tasks.build_vocab([inst], "rows") == policy.build_vocabulary(["q"])
    check_against_oracle(table, {0, 1})
    empty = Table((), ((), ()))
    assert row_token_counts([empty]) == [[]]
    instances = [Instance(id="i", question="q", table=t) for t in (table, empty)]
    assert metrics.bucket_by_length(instances, [0, 1]) == [0, 0]


def visible_table(question, table, budget_tokens, read=None):
    """The mock reader's visible rows of every column, given the counts
    ``qa`` passes it, read with the memo ``read`` (a fresh one by default);
    None when no row fits."""
    n_visible = llm._visible_rows(question, row_token_counts([table])[0], budget_tokens)
    if n_visible == 0:
        return None
    return llm._read_visible(table, n_visible, frozenset(range(table.n_columns)), {} if read is None else read)


def same_table(a, b):
    # repr, because nan != nan and the reader shares one parsed value per text
    return repr(a) == repr(b)


def random_pair_text(rng):
    return "".join(rng.choice('(),"ab ') for _ in range(rng.randint(0, 24)))


def check_pair_text_reads_back(text):
    # pair-like text as a header and as a cell: the rendered pair parses back
    # to it, and the mock reader sees what the oracle parses from the prompt
    table = Table((text, "n"), ((text, 1),))
    rendered = linearize_tables([table])[0]
    assert oracle_parse_pairs(rendered) == [(text, text), ("n", "1")], rendered
    prompt = llm.QA_PROMPT_TEMPLATE.format(question="q?", context=rendered)
    assert same_table(visible_table("q?", table, 10**6), oracle_parse_prompt_table(prompt)), prompt


@pytest.mark.parametrize("seed", SEEDS)
def test_parse_pairs_matches_oracle_on_random_text(seed):
    rng = random.Random(1000 + seed)
    for _ in range(2000):
        check_pair_text_reads_back(random_pair_text(rng))


@pytest.mark.parametrize(
    "text",
    ['("a""b,c)', '(a,"b"""c)', '(a,"b""', '(",",")") (x,y)', '(a)(b,c)', '((a,b)',
     '(a,b', '"(a,b)"', '(a,"")"(c,d)', '(a,b)) (c,"d))', '(a,"x""y""")', '(""""""",b)'],
)
def test_parse_pairs_matches_oracle_on_edge_cases(text):
    check_pair_text_reads_back(text)


ANCHOR_TEXTS = ["see Row3: x", "Row12: ", "a, Row1: (b)", 'Row2: "q"', "xRow0: y", "Row4: Row5: z",
                'Row6: ""', "Row7:x"]


@pytest.mark.parametrize("seed", SEEDS)
def test_cells_holding_row_anchors_read_back(seed):
    rng = random.Random(3000 + seed)
    for _ in range(100):
        table = random_table(rng)
        headers = tuple(rng.choice(ANCHOR_TEXTS) + str(c) if rng.random() < 0.3 else h
                        for c, h in enumerate(table.columns))
        rows = tuple(tuple(rng.choice(ANCHOR_TEXTS) if rng.random() < 0.3 else cell for cell in row)
                     for row in table.rows)
        table = Table(headers, rows)
        prompt = llm.QA_PROMPT_TEMPLATE.format(
            question="q?", context=linearize_tables([table])[0]
        )
        expected = Table(headers, tuple(
            tuple(llm._parse_cell(format_cell(cell)) for cell in row) for row in rows
        )) if rows else None
        assert same_table(oracle_parse_prompt_table(prompt), expected), prompt


def test_cell_holding_row_anchor_keeps_both_rows():
    table = Table(("note", "n"), (("see Row3: x", 1), ("plain", 2)))
    text = linearize_tables([table])[0]
    assert text == 'Row0: (note,"see Row3:" "x"), (n,1) Row1: (note,plain), (n,2)'
    assert oracle_parse_prompt_table(text) == table


@pytest.mark.parametrize("seed", SEEDS)
def test_visible_table_matches_oracle(seed):
    # contexts as ``qa`` builds them: projections, some to zero columns or rows
    rng = random.Random(2000 + seed)
    for _ in range(120):
        table = random_table(rng, max_rows=20)
        if rng.random() < 0.3:
            table = Table(table.columns, tuple(
                tuple(rng.choice(ANCHOR_TEXTS) if rng.random() < 0.3 else cell for cell in row)
                for row in table.rows
            ))
        columns = rng.sample(range(table.n_columns), rng.randint(0, table.n_columns))
        rows = rng.sample(range(table.n_rows), rng.randint(0, table.n_rows))
        context = project(table, Reduction(frozenset(columns), frozenset(rows)))
        # no row anchor in the question: a reader of the prompt text would cut there
        question = rng.choice(["q?", "Which (a,b) is, \"x\"?", "row1 Row1:x"])
        text = oracle_linearize(context, range(context.n_columns)) if context.n_columns else ""
        prompt = llm.QA_PROMPT_TEMPLATE.format(question=question, context=text)
        total = count_tokens(prompt)
        for budget in (1, rng.randint(1, total + 1), total, total + 5):
            assert same_table(
                visible_table(question, context, budget), oracle_parse_prompt_table(prompt, budget)
            ), (prompt, budget)


# ---------------------------------------------------------------------------
# Stage memos

# keys equal across types (1, 1.0 and True's text "true"; 0, -0.0 and
# False's "false"), null beside the empty string, and texts that quoting or
# anchors change
COLLIDING = [1, 1.0, True, "true", 0, -0.0, 0.0, False, "false", None, "", "1", "0", 10**20, 1e20,
             2.5, math.nan, 'say "hi"', "x, y", "(p)", "see Row3: x", "Row1:", "a b", "  lead"]


def colliding_table(rng):
    n_cols = rng.randint(1, 4)
    headers = tuple(rng.choice(["v", "true", "a b", "x, y", "Row2: h"]) + str(c) for c in range(n_cols))
    if rng.random() < 0.15:  # a table sharing no cell with the others, which empties the memos
        cells = iter(rng.sample(range(10**6), 24))
        rows = tuple(tuple(rng.choice([n, f"u{n} {n}", float(n) + 0.5])
                           for n in (next(cells) for _ in range(n_cols))) for _ in range(rng.randint(1, 6)))
        return Table(headers, rows)
    rows = tuple(tuple(rng.choice(COLLIDING) for _ in range(n_cols)) for _ in range(rng.randint(0, 6)))
    return Table(headers, rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_memos_match_fresh_walks(seed):
    """The batch calls, each keeping one memo of its per-cell function over
    all of its tables, and a vocabulary's memo of cell ids, kept over many
    tables, give every table what a walk with a fresh memo gives, and what
    the oracle renders."""
    rng = random.Random(5000 + seed)
    batch = [(table, random_subset(rng, table.n_columns))
             for table in (colliding_table(rng) for _ in range(60))]
    batch.append((Table((), ((), ())), frozenset()))
    tables = [table for table, _ in batch]
    whole = [range(table.n_columns) for table in tables]
    rendered = linearize_tables(tables)
    assert rendered == [linearize_tables([table])[0] for table in tables]
    assert rendered[:-1] == [oracle_linearize(table, cols) for table, cols in zip(tables, whole[:-1])]
    counts = row_token_counts(tables)
    assert counts == [row_token_counts([table])[0] for table in tables]
    assert counts[:-1] == [
        [count_tokens(f"Row{i}: {oracle_row_pairs(table, row, sorted(cols))}") for i, row in enumerate(table.rows)]
        for table, cols in zip(tables, whole[:-1])
    ]
    read = {}
    for table in tables:
        for budget in (12, 10**6):
            assert same_table(visible_table("q?", table, budget, read), visible_table("q?", table, budget))
    batch.pop()
    vocab = policy.build_vocabulary([oracle_linearize(table, cols) for table, cols in batch[::2]])
    for table, cols in batch:
        assert row_ids(table, cols, vocab.encode, vocab.cell_ids) == row_ids(table, cols, vocab.encode, {}) == [
            vocab.encode(oracle_row_pairs(table, row, sorted(cols))) for row in table.rows
        ]
    rows = [oracle_row_pairs(table, row, sorted(cols)) for table, cols in batch for row in table.rows]
    instances = [Instance(id=str(k), question="q?", table=table, relevant_columns=cols)
                 for k, (table, cols) in enumerate(batch)]
    assert tasks.build_vocab(instances, "rows") == policy.build_vocabulary(["q?", *rows])
    lengths = [count_tokens(oracle_linearize(table, range(table.n_columns))) for table, _ in batch]
    assert list(map(sum, row_token_counts([table for table, _ in batch]))) == lengths
    assert metrics.bucket_by_length(instances, [0, 10, 30]) == metrics.assign_buckets(lengths, [0, 10, 30])


def disjoint_tables(n_tables, n_cols, n_rows):
    """Tables no two of which share a cell."""
    cells = iter(range(10**6))
    return [Table(tuple(f"h{c}" for c in range(n_cols)),
                  tuple(tuple(next(cells) if c % 2 else f"w{next(cells)} x" for c in range(n_cols))
                        for _ in range(n_rows)))
            for _ in range(n_tables)]


def test_memo_of_tables_sharing_no_cell_stays_small():
    """Until a walk finds one of its cells in a memo, a walk that finds
    none empties the memo once done, so over tables that share no cell a
    memo never holds more than two tables' cells and headers, and every
    result is still a fresh walk's.  Once a walk has found a cell in it,
    the memo lasts."""
    tables = disjoint_tables(40, 3, 5)
    vocab = policy.build_vocabulary(["h0 h1 h2 x"])
    cols = frozenset(range(3))
    runs, read, largest = {}, {}, 0
    for table in tables:
        assert _row_counts(table, runs) == _row_counts(table, {})
        assert row_ids(table, cols, vocab.encode, vocab.cell_ids) == row_ids(table, cols, vocab.encode, {})
        assert same_table(visible_table("q?", table, 10**6, read), visible_table("q?", table, 10**6))
        largest = max(largest, len(runs), len(vocab.cell_ids), len(read))
    assert largest <= 2 * (15 + 3)
    runs = {}
    _row_counts(tables[0], runs)
    _row_counts(Table(("h0",), (("w0 x",),)), runs)  # finds tables[0]'s first cell
    for table in tables[1:]:
        _row_counts(table, runs)
    assert all(cell in runs for table in tables for row in table.rows for cell in row)


def test_vocabularies_never_share_cell_ids():
    """Each vocabulary keeps its own memo of cell token ids: vocabularies
    built one after another, each dropped before the next is built (so one
    may take a dropped one's address), encode the same rows by their own
    ids."""
    table = Table(("city", "n"), (("athens", 1), ("beijing", 2), ("athens", True)))
    inst = Instance(id="i", question="which city?", table=table, relevant_columns=frozenset({0, 1}))
    rows = [oracle_row_pairs(table, row, [0, 1]) for row in table.rows]
    words = ["which", "city", "athens", "beijing", "n", "1", "2", "true", "x", "y"]
    rng = random.Random(7)
    for _ in range(40):
        vocab = policy.build_vocabulary(rng.sample(words, rng.randint(1, len(words))))
        assert not vocab.cell_ids
        expected = encode_texts(vocab, [("which city?", rows)])
        assert_same_matrices(tasks.encode(vocab, [inst], "rows"), expected)
        assert_same_matrices(tasks.encode(vocab, [inst], "rows"), expected)
        del vocab
    first, second = policy.build_vocabulary(["city athens"]), policy.build_vocabulary(["city athens"])
    assert first == second and first.cell_ids is not second.cell_ids
