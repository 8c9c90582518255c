from collections import Counter

import numpy as np
import pytest

from encoded_instances import assert_same_matrices, build_vocabulary, encode, encoded, segments
from tabreduce import dataio, policy, tables, tasks
from tabreduce.errors import ConfigError
from tabreduce.tables import Instance, make_table


def count_tokenizer_calls(monkeypatch) -> Counter:
    """Each text's number of calls of the tokenizer, from now on."""
    calls = Counter()
    real = tables._tokenize

    def counting(text):
        calls[text] += 1
        return real(text)

    monkeypatch.setattr(tables, "_tokenize", counting)
    monkeypatch.setattr(tasks, "_tokenize", counting)
    return calls


def annotated_instance():
    return Instance(
        id="a",
        question="which city in 2008?",
        table=make_table(
            ["year", "city", "noise"],
            [[2004, "athens", "x"], [2008, "beijing", "y"]],
        ),
        sql="select city from t where year = 2008",
        answers=("beijing",),
        relevant_columns=frozenset({0, 1}),
        relevant_rows=frozenset({1}),
        annotation_status="ok",
    )


class TestCandidates:
    """Candidates as the policy sees them: the token ids of the headers, or
    of each row rendered over the context columns (as the oracle renders
    it in ``test_render_fast``)."""

    def vocab(self):
        return build_vocabulary(["which city year athens noise 2004 2008 beijing y"])

    def test_column_candidates_are_headers(self):
        inst = annotated_instance()
        vocab = self.vocab()
        (enc,) = tasks.encode(vocab, [inst], "columns")
        assert segments(enc) == segments(
            encoded(encode(vocab, "which city in 2008?"), [encode(vocab, h) for h in ["year", "city", "noise"]])
        )

    def test_column_candidates_tokenize_each_header_once(self, monkeypatch):
        """Each distinct header text is tokenized once per ``tasks.encode``
        call, and every encoding equals a fresh tokenization of its
        headers."""
        insts = dataio.generate_synthetic(dataio.SynthConfig(n_instances=60, seed=4))
        vocab = tasks.build_vocab(insts, "columns")
        expected = [
            segments(encoded(encode(vocab, inst.question), [encode(vocab, h) for h in inst.table.columns]))
            for inst in insts
        ]
        headers = {h for inst in insts for h in inst.table.columns}
        assert len(headers) < sum(inst.table.n_columns for inst in insts) / 4
        calls = count_tokenizer_calls(monkeypatch)
        for _ in range(2):
            calls.clear()
            assert list(map(segments, tasks.encode(vocab, insts, "columns"))) == expected
            assert calls == Counter(inst.question for inst in insts) + Counter(headers)

    def test_row_candidates_use_gold_columns_by_default(self):
        inst = annotated_instance()
        vocab = self.vocab()
        (enc,) = tasks.encode(vocab, [inst], "rows")
        assert segments(enc)[1:] == [
            tuple(sorted(encode(vocab, "(year,2004), (city,athens)"))),
            tuple(sorted(encode(vocab, "(year,2008), (city,beijing)"))),
        ]

    def test_row_candidates_accept_predicted_columns(self):
        inst = annotated_instance()
        vocab = self.vocab()
        (enc,) = tasks.encode(vocab, [inst], "rows", [frozenset({1, 2})])
        assert segments(enc)[2] == tuple(sorted(encode(vocab, "(city,beijing), (noise,y)")))
        # "x" is out of the vocabulary
        assert segments(enc)[1] == tuple(sorted(encode(vocab, "city athens noise") + (0,)))
        # a context of None is the gold columns
        both = tasks.encode(vocab, [inst, inst], "rows", [None, frozenset({1, 2})])
        assert_same_matrices(both, tasks.encode(vocab, [inst], "rows") + [enc])

    def test_rows_without_columns_rejected(self):
        inst = Instance(id="x", question="q", table=make_table(["a"], [[1]]), answers=("1",))
        with pytest.raises(ConfigError):
            tasks.encode(self.vocab(), [inst], "rows")
        with pytest.raises(ConfigError):
            tasks.build_vocab([inst], "rows")

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError):
            tasks.check_target("cells")
        with pytest.raises(ConfigError):
            tasks.encode(self.vocab(), [annotated_instance()], "cells")
        with pytest.raises(ConfigError):
            tasks.build_vocab([annotated_instance()], "cells")


class TestTrainable:
    def test_filters_unannotated_and_skipped(self):
        good = annotated_instance()
        skipped = Instance(
            id="s", question="q", table=good.table, answers=("x",),
            annotation_status="skipped:unsupported_sql",
        )
        bare = Instance(id="b", question="q", table=good.table, answers=("x",))
        assert tasks.trainable([good, skipped, bare], "columns") == [good]

    def test_rows_require_column_context(self):
        no_cols = Instance(
            id="n", question="q", table=annotated_instance().table, answers=("x",),
            relevant_rows=frozenset({0}), annotation_status="ok",
        )
        assert tasks.trainable([no_cols], "rows") == []


class TestGreedyEvaluate:
    def test_greedy_reduction_deterministic(self):
        inst = annotated_instance()
        vocab = tasks.build_vocab([inst], "columns")
        params = policy.init_params(vocab, 8, seed=0)
        encs = tasks.encode(vocab, [inst], "columns")
        r1 = policy.greedy_decode(params, encs).selected
        r2 = policy.greedy_decode(params, encs).selected
        assert r1 == r2

    def test_greedy_recall_bounds(self):
        instances = dataio.generate_synthetic(dataio.SynthConfig(n_instances=10, seed=0))
        usable = tasks.trainable(instances, "columns")
        vocab = tasks.build_vocab(usable, "columns")
        params = policy.init_params(vocab, 8, seed=0)
        recall = tasks.greedy_recall(params, *tasks.labeled_encodings(vocab, usable, "columns"))
        assert 0.0 <= recall <= 1.0

    def test_greedy_recall_empty(self):
        vocab = build_vocabulary(["x"])
        params = policy.init_params(vocab, 8, seed=0)
        assert tasks.greedy_recall(params, *tasks.labeled_encodings(vocab, [], "columns")) == 0.0


def test_vocab_covers_questions_and_candidates():
    inst = annotated_instance()
    vocab = tasks.build_vocab([inst], "rows")
    for token in ("which", "city", "2008", "athens", "year"):
        assert encode(vocab, token) != (0,), token
    # the rows over the gold columns: "noise" and its cells are not candidates
    assert vocab.tokens == ("2004", "2008", "athens", "beijing", "city", "in", "which", "year")
    assert tasks.build_vocab([inst], "columns").tokens == (
        "2008", "city", "in", "noise", "which", "year"
    )


def edge_instances():
    """Tables whose rows are easy to tokenize apart from their vocabulary:
    one without rows, bool and ``-0.0`` cells, text holding a quoted row
    anchor, and a single gold column.  Words that no candidate of a target
    holds (the row-less table's headers and the columns outside the gold
    one) are each table's own."""
    tables = [
        (make_table(["orphan", "lonely"], []), {0, 1}),
        (make_table(["flag", "amount"], [[True, -0.0], [False, 1.0], [None, 2.5]]), {0, 1}),
        (make_table(["note", "kept"], [["see Row3: x", 'say "hi", (ok)'], ["Row12:", "row3"]]), {0, 1}),
        (make_table(["gold", "unused"], [["alpha", "beta"], ["gamma", "delta"]]), {0}),
    ]
    return [
        Instance(id=f"e{k}", question=f"edge question {k}?", table=table, answers=("x",),
                 relevant_columns=frozenset(cols), relevant_rows=frozenset(range(table.n_rows)),
                 annotation_status="ok")
        for k, (table, cols) in enumerate(tables)
    ]


@pytest.mark.parametrize("target", ["columns", "rows"])
@pytest.mark.parametrize("seed", [None, 3, 11])
def test_vocabulary_holds_exactly_the_encoded_tokens(target, seed):
    """The vocabulary built from instances is the set of tokens their
    encodings hold: every id from 1 to ``size - 1`` occurs, and none is out
    of the vocabulary (id 0)."""
    if seed is None:
        instances = edge_instances()
    else:
        synthetic = dataio.generate_synthetic(dataio.SynthConfig(n_instances=40, seed=seed))
        instances = tasks.trainable(synthetic, target) + edge_instances()
    vocab = tasks.build_vocab(instances, target)
    ids = np.concatenate([enc.ids for enc in tasks.encode(vocab, instances, target)])
    assert np.unique(ids).tolist() == list(range(1, vocab.size))
    if seed is not None:
        return
    words = set(vocab.tokens)
    if target == "rows":
        assert not words & {"orphan", "lonely", "unused", "beta", "delta"}
        assert {"true", "0", "row3", "row12", "hi", "gold", "gamma"} <= words
    else:
        assert {"orphan", "lonely", "unused"} <= words and not words & {"true", "row3", "gamma"}
