"""The batched encoder (``tasks.encode``) against the code it replaced.

Rows used to be encoded one by one, as the token ids of each row's text.
Here every instance's count matrix, as the policy builds it from the
batched encoding, must equal byte for byte the matrix built by tokenizing
each row of ``linearize_tables`` over the column subset, and counting each
segment's tokens by hand.  An instance must encode the same alone, inside
any batch and under any grouping of ``reduce``, and each distinct cell and
header must be tokenized once per call, with one memo that lasts the
call, also over tables that share no cell.
"""

import random
import re
from collections import Counter

import numpy as np
import pytest

from encoded_instances import assert_same_matrices, build_vocabulary, encode, encoded
from tabreduce import cli, dataio, policy, tasks
from tabreduce.tables import Instance, Reduction, Table, format_cell, linearize_tables, project
from test_render_fast import disjoint_tables
from test_tasks import count_tokenizer_calls

WORDS = ["alpha", "beta", "gamma", "delta", "see", "ok", "hi"]
# bools, null, integral and signed-zero floats, texts that are quoted (with
# ``,()"`` or a row anchor), texts without a token, and words that no
# vocabulary below holds
CELLS = [True, False, None, 1, 1.0, 0, -0.0, 2.5, 7, -3, "", " ", "--", "()", 'say "hi", (ok)',
         "see Row3: x", "Row1:", "a,b", "alpha beta", "Gamma-7", "unseen", "zz top", "true"]
HEADERS = ["h", "col (a)", "x,y", "Row2: h", '"q"', "beta"]
QUESTIONS = ["which alpha is 7?", "???", "", "zzz qqq", "gamma, (beta)?"]


def random_table(rng):
    n_cols = rng.randint(1, 5)
    headers = tuple(f"{rng.choice(HEADERS)}{c}" for c in range(n_cols))
    n_rows = rng.choice([0, 0, 1, 2, 5, 12, 40])
    return Table(headers, tuple(tuple(rng.choice(CELLS + WORDS) for _ in range(n_cols)) for _ in range(n_rows)))


def random_instances(rng, count):
    """Instances with gold columns, and for each a context: None (the gold
    columns) or another column subset."""
    instances, contexts = [], []
    for k in range(count):
        table = random_table(rng)
        gold = frozenset(rng.sample(range(table.n_columns), rng.randint(1, table.n_columns)))
        instances.append(Instance(id=str(k), question=rng.choice(QUESTIONS), table=table, relevant_columns=gold))
        other = frozenset(rng.sample(range(table.n_columns), rng.randint(1, table.n_columns)))
        contexts.append(None if rng.random() < 0.4 else other)
    return instances, contexts


def oracle_segments(vocab, inst, context):
    """The question's token ids, then those of each row's text in the
    rendering over the context, its ``Row{i}:`` anchor left out."""
    cols = context if context is not None else inst.relevant_columns
    whole = project(inst.table, Reduction(frozenset(cols), frozenset(range(inst.table.n_rows))))
    rows = re.split(r"Row\d+: ", linearize_tables([whole])[0])[1:]
    assert len(rows) == inst.table.n_rows
    return [encode(vocab, inst.question)] + [encode(vocab, row) for row in rows]


def oracle_matrix(segments):
    """``u`` and ``c`` counted by hand: each segment's count of each
    distinct token over the segment's length (an empty segment's row is 0)."""
    u = sorted(set().union(*segments))
    c = np.array([[seg.count(tok) / max(len(seg), 1) for tok in u] for seg in segments])
    c = c.reshape(len(segments), len(u))
    return np.array(u, dtype=np.intp), c


def assert_matrix(matrix, expected):
    u, c = expected
    assert np.array_equal(matrix.u, u)
    assert matrix.c.shape == c.shape and matrix.c.tobytes() == c.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_count_matrices_match_tokenized_rendering(seed):
    rng = random.Random(seed)
    instances, contexts = random_instances(rng, 60)
    # some words of the tables and questions are out of the vocabulary
    vocab = build_vocabulary(rng.sample(WORDS, 4) + ["which is 7 x", "say a b", "1", "true"])
    encs = tasks.encode(vocab, instances, "rows", contexts)
    expected = [oracle_matrix(oracle_segments(vocab, inst, ctx)) for inst, ctx in zip(instances, contexts)]
    assert [enc.n_candidates for enc in encs] == [inst.table.n_rows for inst in instances]
    for matrices in (policy._count_matrices(encs), policy.count_matrices(encs)):
        for matrix, oracle in zip(matrices, expected, strict=True):
            assert_matrix(matrix, oracle)
    # the cases that matter are there
    assert any(inst.table.n_rows == 0 for inst in instances)
    assert any(not encode(vocab, inst.question) for inst in instances)
    assert any(0 in matrix[0] for matrix in expected)
    assert any(len(seg) == 0 for inst, ctx in zip(instances, contexts) for seg in oracle_segments(vocab, inst, ctx))


def test_count_matrices_of_any_token_ids():
    """Count matrices for token ids small and large, empty segments and
    instances without tokens."""
    rng = np.random.default_rng(0)
    for high in (3, 50, 10**6):
        segments = [
            [[int(t) for t in rng.integers(0, high, size=rng.integers(0, 6))] for _ in range(1 + n)]
            for n in rng.integers(0, 12, size=30)
        ]
        segments.append([[]])
        encs = [encoded(segs[0], segs[1:]) for segs in segments]
        for matrix, segs in zip(policy._count_matrices(encs), segments, strict=True):
            assert_matrix(matrix, oracle_matrix(segs))


def test_batch_independent(monkeypatch):
    """An instance's count matrix is bit-identical encoded alone, inside a
    batch of mixed table sizes and in any group of ``reduce``, and so are
    its greedy selections."""
    cfg = dataio.SynthConfig(n_instances=40, rows_range=(1, 120), seed=11)
    instances = tasks.trainable(dataio.generate_synthetic(cfg), "rows")
    rng = random.Random(3)
    contexts = [frozenset(rng.sample(range(inst.table.n_columns), 2)) for inst in instances]
    vocab = tasks.build_vocab(instances, "rows")
    params = policy.init_params(vocab, 16, seed=5)
    alone = [tasks.encode(vocab, [inst], "rows", [ctx])[0] for inst, ctx in zip(instances, contexts)]
    selected = [policy.greedy_decode(params, [enc]).selected[0] for enc in alone]
    sizes = {inst.table.n_rows for inst in instances}
    assert min(sizes) < 10 and max(sizes) > 100

    batch = tasks.encode(vocab, instances, "rows", contexts)
    assert_same_matrices(batch, alone)
    for matrix, enc in zip(policy.count_matrices(batch), alone):
        assert_matrix(matrix, tuple(policy._count_matrices([enc])[0]))
    assert policy.greedy_decode(params, batch).selected == selected
    where = {inst.id: k for k, inst in enumerate(instances)}
    for group_rows in (1, 150, 700):
        monkeypatch.setattr(cli, "_REDUCE_GROUP_ROWS", group_rows)
        groups = list(cli._groups(instances))
        assert 1 < len(groups) < len(instances) or group_rows == 1
        grouped, decoded = [], []
        for group in groups:
            encs = tasks.encode(vocab, group, "rows", [contexts[where[inst.id]] for inst in group])
            grouped += encs
            decoded += policy.greedy_decode(params, encs).selected
        assert_same_matrices(grouped, alone)
        assert decoded == selected


def watch_memos(monkeypatch) -> list[tuple[dict, int]]:
    """The memo of each ``tables.column_tokens`` call of ``tasks`` from now
    on, and its size after the call."""
    memos = []
    real = tasks.column_tokens

    def watched(table, column_subset, tokens):
        out = real(table, column_subset, tokens)
        memos.append((tokens, len(tokens)))
        return out

    monkeypatch.setattr(tasks, "column_tokens", watched)
    return memos


def test_row_candidates_tokenize_each_cell_and_header_once(monkeypatch):
    """Over tables that share cells, one batched encode tokenizes each
    distinct cell key and header once, in one memo over the call
    (questions are tokenized each time), and its encodings are those of a
    fresh vocabulary per instance."""
    rng = random.Random(8)
    pool = [1, 1.0, True, "true", -0.0, 0, None, "alpha", "beta x", "(gamma)", 2, 3]
    instances = []
    for k in range(30):
        headers = tuple(rng.sample(["alpha", "h1", "h2", "h3", "true"], 3))
        # every table but the last holds the cell 2 in each column, and the
        # last holds no row
        rows = tuple(tuple(rng.choice(pool) for _ in headers) for _ in range(rng.randint(0, 8)))
        rows = rows + ((2, 2, 2),) if k < 29 else ()
        instances.append(Instance(id=str(k), question=f"which alpha {k}?", table=Table(headers, rows),
                                  relevant_columns=frozenset(rng.sample(range(3), 2))))
    keys = set()  # the memo's keys: a cell is its own key, a bool its text
    for inst in instances:
        cols = sorted(inst.relevant_columns)
        keys.update(inst.table.columns[c] for c in cols)
        cells = [row[c] for row in inst.table.rows for c in cols]
        keys.update(format_cell(cell) if type(cell) is bool else cell for cell in cells)
    vocab = tasks.build_vocab(instances, "rows")
    fresh = [tasks.encode(tasks.build_vocab(instances, "rows"), [inst], "rows")[0] for inst in instances]
    calls, memos = count_tokenizer_calls(monkeypatch), watch_memos(monkeypatch)
    for _ in range(2):
        calls.clear()
        memos.clear()
        assert_same_matrices(tasks.encode(vocab, instances, "rows"), fresh)
        assert calls == Counter(inst.question for inst in instances) + Counter(map(format_cell, keys))
        (memo,) = {id(memo): memo for memo, _ in memos}.values()
        assert len(memos) == len(instances) and set(memo) == keys


def test_memo_of_tables_sharing_no_cell_holds_every_key(monkeypatch):
    """Over tables that share no cell, the one memo of a batched encode
    only grows, to every table's distinct cells and headers, and the
    encodings are still those of fresh memos."""
    tables = disjoint_tables(40, 3, 5)
    instances = [Instance(id=str(k), question="q?", table=table, relevant_columns=frozenset(range(3)))
                 for k, table in enumerate(tables)]
    vocab = build_vocabulary(["h0 h1 h2 x q"])
    memos = watch_memos(monkeypatch)
    encs = tasks.encode(vocab, instances, "rows")
    (memo,) = {id(memo): memo for memo, _ in memos}.values()
    sizes = [size for _, size in memos]
    assert len(memos) == len(instances) and sizes == sorted(sizes)
    assert set(memo) == {cell for table in tables for row in table.rows for cell in row} | {"h0", "h1", "h2"}
    fresh = [tasks.encode(vocab, [inst], "rows")[0] for inst in instances]
    assert_same_matrices(encs, fresh)
