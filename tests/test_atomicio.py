import json

import pytest

from tabreduce import dataio, policy
from tabreduce.atomicio import atomic_write
from tabreduce.tables import Instance, make_table


def test_clean_exit_replaces_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_exception_mid_write_keeps_previous_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half of the new")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_exception_before_first_write_creates_nothing(tmp_path):
    path = tmp_path / "new.json"
    with pytest.raises(RuntimeError):
        with atomic_write(path):
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []


def test_failed_save_dataset_keeps_previous_dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    table = make_table(["a"], [[1]])
    good = Instance(id="g", question="q", table=table, sql="select a from t", answers=("1",))
    dataio.save_dataset([good], path)
    before = path.read_bytes()
    unserializable = Instance(id="b", question="q", table=table, extra={"x": object()})
    with pytest.raises(TypeError):
        dataio.save_dataset([good, good, unserializable], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]


def test_failed_save_params_keeps_previous_model(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    params = policy.init_params(policy.Vocabulary(("ant", "bee")), dim=4, seed=0)
    policy.save_params(params, path, target="columns")
    before = path.read_bytes()

    # save_params encodes the whole document with json.dumps, then writes it
    def broken_dumps(doc, **kw):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dumps", broken_dumps)
    with pytest.raises(OSError):
        policy.save_params(params, path, target="columns")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
