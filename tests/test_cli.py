import json
import os
from pathlib import Path

import pytest

from tabreduce import cli, dataio, metrics, policy, tasks


def run(args):
    return cli.main(args)


def synth_config_args(n, out, seed=0):
    return [
        "synth", "--n", str(n), "--seed", str(seed), "--out", str(out),
        "--cols", "3,5", "--rows", "3,8",
    ]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> sft pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    assert run(synth_config_args(80, data)) == 0
    sft_dir = root / "sft-cols"
    sft_cfg = root / "sft.json"
    sft_cfg.write_text(json.dumps({"epochs": 4, "learning_rate": 0.02}))
    assert run([
        "sft", "--data", str(data), "--target", "columns", "--out", str(sft_dir),
        "--config", str(sft_cfg), "--seed", "0", "--dim", "16",
    ]) == 0
    return root, data, sft_dir


class TestSynthAndAnnotate:
    def test_synth_writes_dataset_and_manifest(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert run(synth_config_args(5, out)) == 0
        instances, errors = dataio.load_dataset(out)
        assert len(instances) == 5 and not errors
        manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["elapsed_seconds"] is not None

    def test_annotate_round_trip_and_stats(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        assert run(synth_config_args(6, raw) + ["--no-annotate"]) == 0
        out = tmp_path / "ann.jsonl"
        assert run(["annotate", "--in", str(raw), "--out", str(out), "--target", "both"]) == 0
        instances, _ = dataio.load_dataset(out)
        assert all(i.annotation_status == "ok" for i in instances)
        assert all(i.relevant_columns is not None for i in instances)
        assert "annotated 6/6" in capsys.readouterr().out

    def test_annotate_target_columns_leaves_rows(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        run(synth_config_args(4, raw) + ["--no-annotate"])
        out = tmp_path / "cols.jsonl"
        run(["annotate", "--in", str(raw), "--out", str(out), "--target", "columns"])
        instances, _ = dataio.load_dataset(out)
        assert all(i.relevant_rows is None for i in instances)
        assert all(i.relevant_columns is not None for i in instances)

    def test_annotate_jobs_deterministic(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        run(synth_config_args(10, raw) + ["--no-annotate"])
        out1, out4 = tmp_path / "j1.jsonl", tmp_path / "j4.jsonl"
        run(["annotate", "--in", str(raw), "--out", str(out1), "--jobs", "1"])
        run(["annotate", "--in", str(raw), "--out", str(out4), "--jobs", "4"])
        assert out1.read_bytes() == out4.read_bytes()

    def test_missing_input_is_io_error(self, tmp_path):
        code = run(["annotate", "--in", str(tmp_path / "nope.jsonl"),
                    "--out", str(tmp_path / "o.jsonl")])
        assert code == cli.EXIT_IO


class TestTraining:
    def test_sft_outputs(self, pipeline):
        root, data, sft_dir = pipeline
        assert (sft_dir / "model.json").exists()
        assert (sft_dir / "config.json").exists()
        assert (sft_dir / "manifest.json").exists()
        lines = (sft_dir / "metrics.jsonl").read_text().strip().split("\n")
        assert len(lines) == 4
        params, target = policy.load_params(sft_dir / "model.json")
        assert target == "columns"

    def test_train_rl_runs_and_schedules_evals(self, pipeline, tmp_path):
        root, data, sft_dir = pipeline
        rl_dir = tmp_path / "rl"
        cfg = tmp_path / "ppo.json"
        cfg.write_text(json.dumps({
            "iterations": 3, "rollout_episodes_per_iter": 16,
            "minibatch_episodes": 8, "epochs_per_iter": 1, "eval_every": 2,
        }))
        assert run([
            "train-rl", "--data", str(data), "--target", "columns",
            "--init", str(sft_dir / "model.json"), "--out", str(rl_dir),
            "--config", str(cfg), "--seed", "1",
        ]) == 0
        records = [json.loads(l) for l in (rl_dir / "metrics.jsonl").read_text().strip().split("\n")]
        assert [r["iteration"] for r in records] == [1, 2, 3]
        assert [("valid_recall" in r) for r in records] == [False, True, True]

    def test_wrong_target_model_rejected(self, pipeline, tmp_path):
        root, data, sft_dir = pipeline
        code = run([
            "train-rl", "--data", str(data), "--target", "rows",
            "--init", str(sft_dir / "model.json"), "--out", str(tmp_path / "x"),
        ])
        assert code == cli.EXIT_CONFIG


class TestEvalAndReduce:
    def test_eval_reduce_agrees_with_library(self, pipeline, tmp_path):
        root, data, sft_dir = pipeline
        report_path = tmp_path / "report.json"
        assert run([
            "eval-reduce", "--data", str(data), "--model", str(sft_dir / "model.json"),
            "--report", str(report_path), "--micro",
        ]) == 0
        report = json.loads(report_path.read_text())
        instances, _ = dataio.load_dataset(data)
        params, _ = policy.load_params(sft_dir / "model.json")
        expected = tasks.evaluate_recall(params, tasks.trainable(instances, "columns"), "columns")
        assert report["recall"] == pytest.approx(expected)
        assert report["format_version"] == metrics.REPORT_FORMAT_VERSION
        assert "micro_recall" in report

    def test_reduce_chains_predictions(self, pipeline, tmp_path):
        root, data, sft_dir = pipeline
        row_dir = tmp_path / "sft-rows"
        assert run([
            "sft", "--data", str(data), "--target", "rows", "--out", str(row_dir),
            "--config", str(self._row_cfg(tmp_path)), "--seed", "0", "--dim", "16",
        ]) == 0
        reduced = tmp_path / "reduced.jsonl"
        assert run([
            "reduce", "--data", str(data), "--col-model", str(sft_dir / "model.json"),
            "--row-model", str(row_dir / "model.json"), "--out", str(reduced),
        ]) == 0
        instances, _ = dataio.load_dataset(reduced)
        assert all("predicted_columns" in i.extra for i in instances)
        assert all("predicted_rows" in i.extra for i in instances)

    def test_reduce_rejects_swapped_models(self, pipeline, tmp_path):
        root, data, sft_dir = pipeline
        params, _ = policy.load_params(sft_dir / "model.json")
        row_model = tmp_path / "rows.model.json"
        policy.save_params(params, row_model, target="rows")
        reduced = tmp_path / "reduced.jsonl"
        code = run([
            "reduce", "--data", str(data), "--col-model", str(row_model),
            "--row-model", str(sft_dir / "model.json"), "--out", str(reduced),
        ])
        assert code == cli.EXIT_CONFIG
        assert not reduced.exists()

    @staticmethod
    def _row_cfg(tmp_path):
        path = tmp_path / "row.json"
        path.write_text(json.dumps({"epochs": 2, "learning_rate": 0.02}))
        return path


class TestQaAndReport:
    def test_mock_qa_and_report(self, pipeline, tmp_path):
        root, data, sft_dir = pipeline
        answers = tmp_path / "answers.jsonl"
        assert run([
            "qa", "--data", str(data), "--out", str(answers),
            "--mock", "--budget", "100000", "--context", "full",
        ]) == 0
        records = [json.loads(l) for l in answers.read_text().strip().split("\n")]
        assert len(records) == 80
        # unlimited budget + full context: the mock reader always answers
        instances, _ = dataio.load_dataset(data)
        by_id = {i.id: i for i in instances}
        hits = sum(
            metrics.downstream_accuracy([r["answer"]], [list(by_id[r["id"]].answers)])
            for r in records
        )
        assert hits == len(records)

        report_path = tmp_path / "qa_report.json"
        assert run([
            "report", "--answers", str(answers), "--reductions", str(data),
            "--buckets", "0,40", "--out", str(report_path),
            "--csv", str(tmp_path / "qa.csv"),
        ]) == 0
        doc = json.loads(report_path.read_text())
        assert doc["overall_accuracy"] == 1.0
        assert sum(b["count"] for b in doc["per_bucket"]) == 80
        assert (tmp_path / "qa.csv").read_text().startswith("bucket,min_tokens,count,accuracy")

    def test_gold_context_qa(self, pipeline, tmp_path):
        root, data, sft_dir = pipeline
        answers = tmp_path / "gold_answers.jsonl"
        assert run([
            "qa", "--data", str(data), "--out", str(answers),
            "--mock", "--budget", "60", "--context", "gold",
        ]) == 0
        records = [json.loads(l) for l in answers.read_text().strip().split("\n")]
        instances, _ = dataio.load_dataset(data)
        by_id = {i.id: i for i in instances}
        correct = [
            metrics.downstream_accuracy([r["answer"]], [list(by_id[r["id"]].answers)])
            for r in records
        ]
        assert sum(correct) == len(records)  # gold reduction always fits 60 tokens here

    def test_qa_requires_exactly_one_backend(self, pipeline, tmp_path):
        root, data, _ = pipeline
        code = run(["qa", "--data", str(data), "--out", str(tmp_path / "a.jsonl")])
        assert code == cli.EXIT_CONFIG

    def test_qa_endpoint_mode_wiring(self, pipeline, tmp_path, monkeypatch):
        root, data, _ = pipeline

        def fake_complete_many(prompts, cfg, max_in_flight=4, **kw):
            assert cfg.endpoint == "https://fake.test"
            assert max_in_flight == 2
            return [" stub answer "] * len(prompts)

        from tabreduce import llm as llm_mod

        monkeypatch.setattr(llm_mod, "complete_many", fake_complete_many)
        out = tmp_path / "endpoint_answers.jsonl"
        assert run([
            "qa", "--data", str(data), "--out", str(out),
            "--endpoint", "https://fake.test", "--jobs", "2",
        ]) == 0
        records = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert all(r["answer"] == "stub answer" for r in records)

    def test_qa_mock_requires_sql(self, tmp_path):
        bad = tmp_path / "nosql.jsonl"
        bad.write_text(json.dumps({
            "id": "x", "question": "q",
            "table": {"columns": ["a"], "rows": [[1]]}, "answers": ["1"],
        }) + "\n")
        code = run(["qa", "--data", str(bad), "--out", str(tmp_path / "o.jsonl"), "--mock"])
        assert code == cli.EXIT_CONFIG


class TestReproducibility:
    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(synth_config_args(12, a, seed=3))
        run(synth_config_args(12, b, seed=3))
        assert a.read_bytes() == b.read_bytes()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
