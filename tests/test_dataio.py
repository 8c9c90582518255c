import hashlib
import json

import numpy as np
import pytest

from tabreduce import annotate, dataio, sql, tasks
from tabreduce.dataio import (
    SynthConfig,
    generate_synthetic,
    instance_to_record,
    load_dataset,
    record_to_instance,
    save_dataset,
    split,
)
from tabreduce.errors import ConfigError
from tabreduce.tables import Instance, format_cell, make_table, table_fingerprint


def sample_instance():
    return Instance(
        id="a1",
        question="which city?",
        table=make_table(["year", "city"], [[2008, "Beijing"], [2012, None]]),
        sql="select city from t where year = 2008",
        answers=("Beijing",),
        relevant_columns=frozenset({0, 1}),
        relevant_rows=frozenset({0}),
        annotation_status="ok",
        extra={"source": "unit"},
    )


def loaded_record(instance):
    """The record of ``instance`` as ``load_dataset`` reads it back: through
    ``json``, which writes its row tuples as arrays."""
    return json.loads(json.dumps(instance_to_record(instance)))


def with_id(line, new_id="a2"):
    """The JSON record ``line`` under another id, as a dataset's next
    record must be."""
    return json.dumps({**json.loads(line), "id": new_id})


class TestRoundTrip:
    def test_load_save_identity(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_dataset([sample_instance()], path)
        loaded, errors = load_dataset(path)
        assert errors == []
        assert loaded[0] == sample_instance()

    def test_save_is_fixed_point(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset([sample_instance()], p1)
        loaded, _ = load_dataset(p1)
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_saved_bytes_and_fingerprints_pinned(self, tmp_path):
        """The JSON that ``save_dataset`` writes and ``table_fingerprint``
        hashes, over annotated synthetic data and non-ASCII, bool, null,
        negative-zero and nested values, keeps the bytes recorded before
        either encoder stopped checking for cycles."""
        odd = Instance(
            id="odd", question="wie viele?",
            table=make_table(["größe", "flag", "x"], [[1.5, True, None], ['Zürich "q"', False, -0.0]]),
            sql=None, answers=("1.5",), extra={"note": ["ü", {"k": 1e-7}]},
        )
        instances = generate_synthetic(SynthConfig(n_instances=30, seed=2)) + [odd]
        path = tmp_path / "d.jsonl"
        save_dataset(instances, path)
        fingerprints = " ".join(table_fingerprint(inst.table) for inst in instances)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9f0e62ef13c045dcd4a3dc0db2475fe4236ece44eaf508170b6e85797540d341"
        )
        assert hashlib.sha256(fingerprints.encode()).hexdigest() == (
            "2e69214146180101e125c93f5fab0483766ff3b9d1c6cebf4fc2690bc6d69997"
        )

    def test_unknown_fields_preserved(self):
        record = loaded_record(sample_instance())
        record["mystery"] = {"deep": [1, 2]}
        inst = record_to_instance(record)
        assert inst.extra["mystery"] == {"deep": [1, 2]}
        assert instance_to_record(inst)["mystery"] == {"deep": [1, 2]}

    def test_numeric_string_not_coerced(self):
        record = {
            "id": "x", "question": "q",
            "table": {"columns": ["a"], "rows": [["2,008"]]},
            "answers": ["2,008"],
        }
        inst = record_to_instance(record)
        assert inst.table.rows[0][0] == "2,008"

    def test_bad_lines_reported_not_fatal(self, tmp_path):
        path = tmp_path / "d.jsonl"
        good = json.dumps(instance_to_record(sample_instance()))
        path.write_text(good + "\n{broken\n" + with_id(good) + "\n")
        loaded, errors = load_dataset(path)
        assert len(loaded) == 2
        assert len(errors) == 1
        assert errors[0].line == 2

    def test_non_utf8_line_reported_and_lines_split_as_text_mode(self, tmp_path):
        """A line holding a byte that is not UTF-8 is that line's error, and
        lines end, and are numbered, where text mode ends them: at ``\\n``,
        ``\\r\\n`` and a lone ``\\r``."""
        good = json.dumps(instance_to_record(sample_instance()))
        path = tmp_path / "d.jsonl"
        path.write_bytes(good.encode() + b"\r\n" + b'{"id": "\xff"}\n' + b"\r"
                         + with_id(good).encode() + b"\n{broken\r")
        loaded, errors = load_dataset(path)
        assert [inst.id for inst in loaded] == ["a1", "a2"] and loaded[0] == sample_instance()
        assert [e.line for e in errors] == [2, 5]
        assert errors[0].message == "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"
        with open(path, encoding="utf-8", errors="replace") as fh:
            assert len(fh.readlines()) == 5

    def test_repeated_id_reported(self, tmp_path):
        path = tmp_path / "d.jsonl"
        good = json.dumps(instance_to_record(sample_instance()))
        path.write_text("\n".join([good, with_id(good), good]) + "\n")
        loaded, errors = load_dataset(path)
        assert [inst.id for inst in loaded] == ["a1", "a2"]
        assert errors == [dataio.LoadError(line=3, message="id 'a1' was already used on line 1")]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("relevant_columns", [-1], "relevant_columns entry -1 is not an index below 2"),
            ("relevant_columns", [0, 2], "relevant_columns entry 2 is not an index below 2"),
            ("relevant_columns", [True], "relevant_columns entry True is not an index below 2"),
            ("relevant_rows", [999], "relevant_rows entry 999 is not an index below 2"),
            ("relevant_rows", [0.0], "relevant_rows entry 0.0 is not an index below 2"),
            ("relevant_rows", ["1"], "relevant_rows entry '1' is not an index below 2"),
        ],
        ids=["negative-col", "col-past-end", "bool-col", "row-past-end", "float-row", "str-row"],
    )
    def test_relevance_outside_table_reported(self, tmp_path, key, value, message):
        record = loaded_record(sample_instance())
        with pytest.raises(ValueError, match=message):
            record_to_instance({**record, key: value})
        path = tmp_path / "d.jsonl"
        good = json.dumps(record)
        path.write_text(good + "\n" + json.dumps({**record, key: value}) + "\n" + with_id(good) + "\n")
        loaded, errors = load_dataset(path)
        assert len(loaded) == 2
        assert [(e.line, e.message) for e in errors] == [(2, message)]

    @pytest.mark.parametrize(
        "cell, kind",
        [([1, 2], "list"), ({"z": 1}, "dict"), ([], "list")],
        ids=["list", "object", "empty-list"],
    )
    def test_non_scalar_cell_reported(self, tmp_path, cell, kind):
        record = instance_to_record(sample_instance())
        bad = {**record, "table": {**record["table"], "rows": [[2008, "Beijing"], [2012, cell]]}}
        message = f"table row 1 column 1 holds a {kind}, not a string, number, bool or null"
        with pytest.raises(TypeError, match=message):
            record_to_instance(bad)
        path = tmp_path / "d.jsonl"
        good = json.dumps(record)
        path.write_text(good + "\n" + json.dumps(bad) + "\n" + with_id(good) + "\n")
        loaded, errors = load_dataset(path)
        assert len(loaded) == 2
        assert [(e.line, e.message) for e in errors] == [(2, message)]

    @pytest.mark.parametrize(
        "table, message",
        [
            ({"columns": [1, "b"], "rows": [[1, 2]]}, "table column 0 is a int, not a string"),
            ({"columns": ["a", None], "rows": [[1, 2]]}, "table column 1 is a NoneType, not a string"),
            ({"columns": "ab", "rows": [[1, 2]]}, "table columns are a str, not a list"),
            ({"columns": {"a": 1, "b": 2}, "rows": [[1, 2]]}, "table columns are a dict, not a list"),
            ({"columns": ["a", "b"], "rows": [[1, 2], "xy"]}, "table row 1 is a str, not a list"),
            ({"columns": ["a", "b"], "rows": [{"a": 1, "b": 2}]}, "table row 0 is a dict, not a list"),
            ({"columns": ["a", "b"], "rows": [[1, 2], None]}, "table row 1 is a NoneType, not a list"),
            ({"columns": ["a", "b"], "rows": "xy"}, "table rows are a str, not a list"),
        ],
        ids=["int-header", "null-header", "string-headers", "object-headers", "string-row",
             "object-row", "null-row", "string-rows"],
    )
    def test_malformed_table_shape_reported(self, tmp_path, table, message):
        """Headers that are not a list of strings and rows that are not lists
        are refused, not read as their characters or keys."""
        record = instance_to_record(sample_instance())
        bad = {**record, "table": table}
        with pytest.raises(TypeError, match=f"^{message}$"):
            record_to_instance(bad)
        path = tmp_path / "d.jsonl"
        good = json.dumps(record)
        path.write_text(good + "\n" + json.dumps(bad) + "\n" + with_id(good) + "\n")
        loaded, errors = load_dataset(path)
        assert len(loaded) == 2
        assert [(e.line, e.message) for e in errors] == [(2, message)]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("sql", 5, "sql is a int, not a string or null"),
            ("sql", ["select a from t"], "sql is a list, not a string or null"),
            ("answers", "uv", "answers are a str, not a list"),
            ("answers", None, "answers are a NoneType, not a list"),
            ("answers", {"u": 1}, "answers are a dict, not a list"),
            ("answers", ["u", ["v"]], "answer 1 is a list, not a string or number"),
            ("answers", [None], "answer 0 is a NoneType, not a string or number"),
            ("answers", [True], "answer 0 is a bool, not a string or number"),
            ("relevant_rows", 5, "relevant_rows are a int, not a list"),
            ("relevant_rows", "01", "relevant_rows are a str, not a list"),
            ("relevant_columns", {"0": 1}, "relevant_columns are a dict, not a list"),
        ],
        ids=["int-sql", "list-sql", "string-answers", "null-answers", "object-answers",
             "list-answer", "null-answer", "bool-answer", "int-relevant-rows", "string-relevant-rows",
             "object-relevant-columns"],
    )
    def test_malformed_sql_or_answers_reported(self, tmp_path, key, value, message):
        """An ``sql`` that is not a string or null, ``answers`` that are not
        a list of strings and numbers, and relevance indices that are not a
        list are refused at load, not read as characters or left for
        ``annotate`` and ``qa`` to crash on."""
        record = loaded_record(sample_instance())
        bad = {**record, key: value}
        with pytest.raises(TypeError, match=f"^{message}$"):
            record_to_instance(bad)
        path = tmp_path / "d.jsonl"
        good = json.dumps(record)
        path.write_text(good + "\n" + json.dumps(bad) + "\n" + with_id(good) + "\n")
        loaded, errors = load_dataset(path)
        assert len(loaded) == 2
        assert [(e.line, e.message) for e in errors] == [(2, message)]

    def test_numeric_answers_and_null_sql_load(self):
        record = {**loaded_record(sample_instance()), "sql": None, "answers": ["u", 2, 2.5]}
        inst = record_to_instance(record)
        assert inst.sql is None and inst.answers == ("u", "2", "2.5")

    def test_record_hands_row_tuples_to_json(self):
        """The record keeps the table's row tuples; ``json`` writes them as
        the arrays the lists of each row once were, and the record reads
        back through ``json``, not in process."""
        table = make_table(["a", "b", "c"], [[True, None, -0.0], [False, 1.5, 0.0], [1e20, "x y", 10**20]])
        inst = Instance(id="t", question="q?", table=table, answers=("1",))
        record = instance_to_record(inst)
        assert record["table"]["rows"] is table.rows
        as_lists = {**record, "table": {"columns": list(table.columns), "rows": [list(r) for r in table.rows]}}
        assert json.dumps(record) == json.dumps(as_lists)
        assert record_to_instance(json.loads(json.dumps(record))) == inst
        with pytest.raises(TypeError, match="^table rows are a tuple, not a list$"):
            record_to_instance(record)
        tuple_rows = {**record, "table": {"columns": list(table.columns), "rows": list(table.rows)}}
        with pytest.raises(TypeError, match="^table row 0 is a tuple, not a list$"):
            record_to_instance(tuple_rows)
        tuple_headers = {**record, "table": {**as_lists["table"], "columns": table.columns}}
        with pytest.raises(TypeError, match="^table columns are a tuple, not a list$"):
            record_to_instance(tuple_headers)

    def test_scalar_cells_accepted(self):
        record = instance_to_record(sample_instance())
        rows = [[True, "x"], [False, None], [1.5, -0.0]]
        inst = record_to_instance({**record, "table": {**record["table"], "rows": rows}})
        assert inst.table.rows == tuple(map(tuple, rows))

    def test_relevance_edges_accepted(self):
        record = loaded_record(sample_instance())
        inst = record_to_instance({**record, "relevant_columns": [1, 0], "relevant_rows": []})
        assert inst.relevant_columns == frozenset({0, 1}) and inst.relevant_rows == frozenset()
        assert record_to_instance({**record, "relevant_rows": None}).relevant_rows is None

    def test_invalid_table_reported(self, tmp_path):
        path = tmp_path / "d.jsonl"
        bad = {"id": "x", "question": "q", "table": {"columns": [], "rows": []}, "answers": []}
        path.write_text(json.dumps(bad) + "\n")
        loaded, errors = load_dataset(path)
        assert loaded == []
        assert len(errors) == 1


class TestSynth:
    def test_seeded_reproducible(self):
        cfg = SynthConfig(n_instances=8, seed=5)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_synthetic(SynthConfig(n_instances=8, seed=5))
        b = generate_synthetic(SynthConfig(n_instances=8, seed=6))
        assert a != b

    def test_shapes_within_ranges(self):
        cfg = SynthConfig(n_instances=20, columns_range=(3, 5), rows_range=(2, 9), seed=0)
        for inst in generate_synthetic(cfg):
            assert 3 <= inst.table.n_columns <= 5
            assert 2 <= inst.table.n_rows <= 9

    def test_instances_solvable_and_annotated(self):
        instances = generate_synthetic(SynthConfig(n_instances=30, seed=1))
        for inst in instances:
            assert inst.annotation_status == annotate.STATUS_OK
            result = sql.execute(sql.parse_sql(inst.sql), inst.table)
            assert sql.answers_match(result, list(inst.answers))
            assert inst.answers

    def test_sufficiency_invariant_via_annotator(self):
        from tabreduce.tables import Reduction, project

        for inst in generate_synthetic(SynthConfig(n_instances=20, seed=2)):
            reduced = project(inst.table, Reduction(inst.relevant_columns, inst.relevant_rows))
            result = sql.execute(sql.parse_sql(inst.sql), reduced)
            assert sql.answers_match(result, list(inst.answers))

    def test_invalid_mix_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(template_mix=(("lookup", 0.5),))
        with pytest.raises(ConfigError):
            SynthConfig(template_mix=(("median", 1.0),))

    @pytest.mark.parametrize(
        "mix, name",
        [
            ((("lookup", 1.5), ("count", -0.5)), "count"),
            ((("lookup", float("nan")), ("count", 1.0)), "lookup"),
            ((("lookup", 1.0), ("sum", float("inf")), ("max", float("-inf"))), "sum"),
        ],
        ids=["negative", "nan", "infinite"],
    )
    def test_unsamplable_weight_rejected(self, mix, name):
        """A weight the template pick cannot sample is refused by name, even
        when the weights sum to 1 or the sum check cannot see it."""
        with pytest.raises(ConfigError, match=f"template '{name}' has weight"):
            SynthConfig(template_mix=mix)

    def test_no_annotate_flag(self):
        instances = generate_synthetic(SynthConfig(n_instances=3, annotate=False, seed=0))
        assert all(i.annotation_status is None for i in instances)


def per_cell_oracle(cfg, index):
    """The synthetic instance ``index`` of ``cfg`` drawn with one scalar
    ``integers`` call per cell and its template picked by ``Generator.choice``,
    and the generator's state after the cells and after the instance's last
    draw."""
    rng = np.random.default_rng([cfg.seed, index])
    n_cols = int(rng.integers(cfg.columns_range[0], cfg.columns_range[1] + 1))
    n_rows = int(rng.integers(cfg.rows_range[0], cfg.rows_range[1] + 1))
    headers = [
        dataio.HEADER_WORDS[i]
        for i in rng.choice(len(dataio.HEADER_WORDS), size=n_cols, replace=False)
    ]
    numeric = [bool(rng.integers(0, 2)) for _ in range(n_cols)]
    numeric[0] = True
    numeric[1] = False
    value_pool = dataio.VALUE_WORDS[: cfg.value_vocab_size]
    nlo, nhi = cfg.numeric_range
    rows = []
    for _ in range(n_rows):
        row = []
        for c in range(n_cols):
            if numeric[c]:
                row.append(int(rng.integers(nlo, nhi + 1)))
            else:
                row.append(value_pool[int(rng.integers(0, len(value_pool)))])
        rows.append(row)
    table = make_table(headers, rows)
    state_after_cells = rng.bit_generator.state

    names = [name for name, _ in cfg.template_mix]
    weights = np.array([w for _, w in cfg.template_mix])
    template = names[int(rng.choice(len(names), p=weights / weights.sum()))]
    numeric_cols = [c for c in range(n_cols) if numeric[c]]
    string_cols = [c for c in range(n_cols) if not numeric[c]]
    if template in ("sum", "min", "max"):
        val_col = int(numeric_cols[int(rng.integers(0, len(numeric_cols)))])
    elif rng.integers(0, 2):
        val_col = int(numeric_cols[int(rng.integers(0, len(numeric_cols)))])
    else:
        val_col = int(string_cols[int(rng.integers(0, len(string_cols)))])
    key_pool = string_cols if numeric[val_col] else numeric_cols
    key_col = int(key_pool[int(rng.integers(0, len(key_pool)))])
    key_value = rows[int(rng.integers(0, n_rows))][key_col]
    state_after_draws = rng.bit_generator.state

    projection = headers[val_col] if template == "lookup" else f"{template}({headers[val_col]})"
    literal = dataio._sql_literal(key_value)
    query = f"select {projection} from t where {headers[key_col]} = {literal}"
    question = dataio._QUESTION_TEMPLATES[template].format(
        val=headers[val_col], key=headers[key_col], lit=format_cell(key_value)
    )
    result = sql.execute(sql.parse_sql(query), table)
    instance = Instance(
        id=f"synth-{index:05d}", question=question, table=table, sql=query,
        answers=tuple(map(format_cell, result)),
    )
    if cfg.annotate:
        instance = annotate.annotate_instance(instance, target="both")
    return instance, state_after_cells, state_after_draws


# Recorded with the per-cell generator; see test_synthetic_stream_pinned.
SYNTH_40_SEED0_SHA256 = "7210d9aec773494f7c0cfe6b77c8b87b652d4b566db036ca3abdbd523cff826a"


class TestSynthStream:
    """The synthetic data is a function of numpy's ``Generator`` stream, which
    NEP 19 does not promise across numpy versions.  These tests are what
    catch a move of that stream: ``generate_synthetic`` must equal the
    per-cell oracle above, draw for draw, and a pinned dataset must keep its
    hash.  Every acceptance number rests on the synthetic data."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"value_vocab_size": 1, "numeric_range": (0, 0)},
            {"value_vocab_size": 1},
            {"numeric_range": (0, 0)},
            {"numeric_range": (0, 2**31)},
            {"numeric_range": (7, 2**32 + 5), "value_vocab_size": 48},
            {"rows_range": (1, 1), "columns_range": (2, 2)},
            {"rows_range": (1, 3), "columns_range": (2, 48)},
            {"rows_range": (140, 160), "columns_range": (8, 10)},
            {"template_mix": (("lookup", 0.4), ("count", 0.0), ("sum", 0.6))},
            {"template_mix": (("min", 0.5), ("max", 0.5))},
        ],
        ids=[
            "default", "width-1", "one-word", "one-number", "lemire-rejects",
            "wide-numbers", "one-row-two-cols", "every-header", "long",
            "zero-weight", "min-max",
        ],
    )
    @pytest.mark.parametrize("annotate_flag", [True, False], ids=["annotated", "raw"])
    def test_equals_per_cell_oracle(self, monkeypatch, overrides, annotate_flag):
        default_rng = np.random.default_rng
        generators = []

        def recording_rng(seed):
            generators.append(default_rng(seed))
            return generators[-1]

        for seed in (0, 1, 17):
            cfg = SynthConfig(n_instances=6, seed=seed, annotate=annotate_flag, **overrides)
            generators.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", recording_rng)
                instances = generate_synthetic(cfg)
            assert len(generators) == len(instances) == 6
            for index, (inst, used) in enumerate(zip(instances, generators)):
                expected, state_after_cells, state_after_draws = per_cell_oracle(cfg, index)
                assert inst == expected
                # a pick that draws more or fewer variates than choice moves it
                assert used.bit_generator.state == state_after_draws
                rng = np.random.default_rng([seed, index])
                table, _ = dataio._synth_table(cfg, rng)
                assert table == expected.table
                assert rng.bit_generator.state == state_after_cells

    def test_synthetic_stream_pinned(self, tmp_path):
        path = tmp_path / "synth.jsonl"
        save_dataset(generate_synthetic(SynthConfig(n_instances=40, seed=0, annotate=False)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == SYNTH_40_SEED0_SHA256, (
            f"the synthetic stream moved under numpy {np.__version__}: every "
            "synthetic dataset, and so every acceptance number, changes with it"
        )


class TestSplit:
    def test_ratios_on_unique_tables(self):
        instances = generate_synthetic(SynthConfig(n_instances=100, annotate=False, seed=3))
        train, valid, test = split(instances, (0.8, 0.1, 0.1), seed=0)
        assert len({table_fingerprint(i.table) for i in instances}) == 100
        assert (len(train), len(valid), len(test)) == (80, 10, 10)

    def test_union_is_input(self):
        instances = generate_synthetic(SynthConfig(n_instances=40, annotate=False, seed=4))
        train, valid, test = split(instances, (0.6, 0.2, 0.2), seed=1)
        assert sorted(i.id for i in train + valid + test) == sorted(i.id for i in instances)
        assert not (set(i.id for i in train) & set(i.id for i in test))

    def test_same_seed_same_split(self):
        instances = generate_synthetic(SynthConfig(n_instances=30, annotate=False, seed=5))
        s1 = split(instances, (0.8, 0.1, 0.1), seed=7)
        s2 = split(instances, (0.8, 0.1, 0.1), seed=7)
        assert s1 == s2

    def test_tables_do_not_leak(self):
        base = generate_synthetic(SynthConfig(n_instances=10, annotate=False, seed=6))
        doubled = []
        for i, inst in enumerate(base):
            doubled.append(inst)
            doubled.append(
                Instance(
                    id=f"{inst.id}-q2", question=inst.question, table=inst.table,
                    sql=inst.sql, answers=inst.answers,
                )
            )
        train, valid, test = split(doubled, (0.5, 0.25, 0.25), seed=0)
        for part in (train, valid, test):
            prints = {table_fingerprint(i.table) for i in part}
            others = [p for p in (train, valid, test) if p is not part]
            for other in others:
                assert prints.isdisjoint({table_fingerprint(i.table) for i in other})

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            split([], (0.5, 0.5, 0.5))


def test_gold_actions_ordering():
    assert tasks.gold_actions({3, 1}) == (1, 3, -1)
