import json

import pytest

from tabreduce import annotate, dataio, sql, tasks
from tabreduce.dataio import (
    SynthConfig,
    format_answer,
    generate_synthetic,
    instance_to_record,
    load_dataset,
    record_to_instance,
    save_dataset,
    split,
)
from tabreduce.errors import ConfigError
from tabreduce.tables import Instance, make_table, table_fingerprint


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

    def test_unknown_fields_preserved(self):
        record = instance_to_record(sample_instance())
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
        path.write_text(good + "\n{broken\n" + good + "\n")
        loaded, errors = load_dataset(path)
        assert len(loaded) == 2
        assert len(errors) == 1
        assert errors[0].line == 2

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
        record = instance_to_record(sample_instance())
        with pytest.raises(ValueError, match=message):
            record_to_instance({**record, key: value})
        path = tmp_path / "d.jsonl"
        good = json.dumps(record)
        path.write_text(good + "\n" + json.dumps({**record, key: value}) + "\n" + good + "\n")
        loaded, errors = load_dataset(path)
        assert len(loaded) == 2
        assert [(e.line, e.message) for e in errors] == [(2, message)]

    def test_relevance_edges_accepted(self):
        record = instance_to_record(sample_instance())
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

    def test_no_annotate_flag(self):
        instances = generate_synthetic(SynthConfig(n_instances=3, annotate=False, seed=0))
        assert all(i.annotation_status is None for i in instances)


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


def test_format_answer():
    assert format_answer(2.0) == "2"
    assert format_answer(2.5) == "2.5"
    assert format_answer("x") == "x"


def test_gold_actions_ordering():
    assert tasks.gold_actions({3, 1}) == (1, 3, -1)
