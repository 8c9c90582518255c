import dataclasses
import json
import os
from pathlib import Path

import pytest

from tabreduce import cli, dataio, llm, metrics, policy, sql, tables, tasks, training
from tabreduce.tables import Reduction, linearize_tables, project


def run(args):
    return cli.main(args)


def replace_token_counter(monkeypatch, counter):
    """``counter`` in place of ``tables._row_counts``, the per-table walk
    behind every token count (``tables.row_token_counts``)."""
    monkeypatch.setattr(tables, "_row_counts", counter)


def fake_endpoint(monkeypatch, answer="stub"):
    """Serve ``qa --endpoint`` from a fake transport answering ``answer``."""
    body = json.dumps({"choices": [{"message": {"content": answer}}]}).encode()
    monkeypatch.setattr(llm, "_urllib_transport", lambda timeout: lambda url, headers, data: (200, body))


def assert_one_error_line(capsys, message):
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--cols", "3"], "columns_range must be a (lo, hi) pair, got (3,)"),
            (["--rows", "1,2,3"], "rows_range must be a (lo, hi) pair, got (1, 2, 3)"),
            (["--rows", ","], "rows_range must be a (lo, hi) pair, got ()"),
            (["--cols", "5,3"], "columns_range out of supported bounds"),
            (["--cols", "a"], "expected comma-separated integers, got 'a'"),
            (["--rows", "2,x"], "expected comma-separated integers, got '2,x'"),
        ],
        ids=["one-col", "three-rows", "no-rows", "reversed-cols", "letter-col", "letter-row"],
    )
    def test_bad_synth_range_is_one_error_line(self, tmp_path, capsys, flags, message):
        out = tmp_path / "d.jsonl"
        assert run(["synth", "--n", "5", "--out", str(out)] + flags) == cli.EXIT_CONFIG
        assert_one_error_line(capsys, message)
        assert list(tmp_path.iterdir()) == []

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

    def test_annotate_has_no_rows_target(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        run(synth_config_args(4, raw) + ["--no-annotate"])
        out = tmp_path / "rows.jsonl"
        with pytest.raises(SystemExit) as exc:
            run(["annotate", "--in", str(raw), "--out", str(out), "--target", "rows"])
        assert exc.value.code == 2
        assert "invalid choice: 'rows'" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "rows.jsonl.manifest.json").exists()

    def test_annotate_deterministic(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        run(synth_config_args(10, raw) + ["--no-annotate"])
        out1, out2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
        assert run(["annotate", "--in", str(raw), "--out", str(out1)]) == 0
        assert run(["annotate", "--in", str(raw), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_annotate_manifest_summary(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        run(synth_config_args(5, raw) + ["--no-annotate"])
        lines = raw.read_text().splitlines()
        record = json.loads(lines[0])
        record["sql"] = "select a from t join u"
        lines[0] = json.dumps(record)
        record = json.loads(lines[1])
        record["answers"] = ["no such answer"]
        lines[1] = json.dumps(record)
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "ann.jsonl"
        assert run(["annotate", "--in", str(raw), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "ann.jsonl.manifest.json").read_text())
        assert manifest["summary"] == {
            "instances": 5,
            "ok": 3,
            "skipped": {"skipped:gold_mismatch": 1, "skipped:unsupported_sql": 1},
        }
        assert manifest["elapsed_seconds"] is not None

    @pytest.mark.parametrize("cell", [[1, 2], {"z": 1}], ids=["list", "object"])
    def test_non_scalar_cell_is_one_load_warning(self, tmp_path, capsys, cell):
        """A line whose table holds a list or an object is skipped with one
        warning, both by ``annotate`` and by ``sft`` over annotated data."""
        raw = tmp_path / "raw.jsonl"
        assert run(synth_config_args(40, raw) + ["--no-annotate"]) == 0

        def with_bad_first_line(source, out):
            lines = source.read_text().splitlines()
            bad = json.loads(lines[0])
            bad["table"]["rows"][0][0] = cell
            out.write_text("\n".join([json.dumps(bad), *lines]) + "\n")

        kind = type(cell).__name__
        edited = tmp_path / "edited.jsonl"
        with_bad_first_line(raw, edited)
        annotated = tmp_path / "annotated.jsonl"
        capsys.readouterr()
        assert run(["annotate", "--in", str(edited), "--out", str(annotated)]) == 0
        message = f"table row 0 column 0 holds a {kind}, not a string, number, bool or null"
        assert capsys.readouterr().err.strip().split("\n") == [f"warning: {edited}:1: {message}"]
        assert len(annotated.read_text().splitlines()) == 40

        data = tmp_path / "data.jsonl"
        with_bad_first_line(annotated, data)
        cfg = tmp_path / "sft.json"
        cfg.write_text(json.dumps({"epochs": 1}))
        assert run([
            "sft", "--data", str(data), "--target", "rows", "--out", str(tmp_path / "sft"),
            "--config", str(cfg), "--dim", "8",
        ]) == 0
        assert capsys.readouterr().err.strip().split("\n") == [f"warning: {data}:1: {message}"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.update(columns=[1, *t["columns"][1:]]), "table column 0 is a int, not a string"),
            (lambda t: t.update(columns=[*t["columns"][:-1], None]), "table column {last} is a NoneType, not a string"),
            (lambda t: t.update(columns="".join(h[0] for h in t["columns"])), "table columns are a str, not a list"),
            (lambda t: t.update(rows=[t["rows"][0], "xy"]), "table row 1 is a str, not a list"),
            (lambda t: t.update(rows=[dict(zip(t["columns"], t["rows"][0]))]), "table row 0 is a dict, not a list"),
        ],
        ids=["int-header", "null-header", "string-headers", "string-row", "object-row"],
    )
    def test_malformed_table_shape_is_one_load_warning(self, tmp_path, capsys, edit, message):
        """A line whose headers are not a list of strings, or whose rows are
        not lists, is skipped with one warning by ``annotate`` and by
        ``sft --target rows``, never taken apart into characters or keys."""
        raw = tmp_path / "raw.jsonl"
        assert run(synth_config_args(40, raw) + ["--no-annotate"]) == 0

        def with_bad_first_line(source, out):
            lines = source.read_text().splitlines()
            bad = json.loads(lines[0])
            edit(bad["table"])
            out.write_text("\n".join([json.dumps(bad), *lines]) + "\n")
            return message.format(last=len(bad["table"]["columns"]) - 1)

        edited = tmp_path / "edited.jsonl"
        expected = with_bad_first_line(raw, edited)
        annotated = tmp_path / "annotated.jsonl"
        capsys.readouterr()
        assert run(["annotate", "--in", str(edited), "--out", str(annotated)]) == 0
        assert capsys.readouterr().err.strip().split("\n") == [f"warning: {edited}:1: {expected}"]
        assert len(annotated.read_text().splitlines()) == 40

        data = tmp_path / "data.jsonl"
        expected = with_bad_first_line(annotated, data)
        cfg = tmp_path / "sft.json"
        cfg.write_text(json.dumps({"epochs": 1}))
        assert run([
            "sft", "--data", str(data), "--target", "rows", "--out", str(tmp_path / "sft"),
            "--config", str(cfg), "--dim", "8",
        ]) == 0
        assert capsys.readouterr().err.strip().split("\n") == [f"warning: {data}:1: {expected}"]

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

    def test_train_rl_manifest_summary(self, pipeline, tmp_path):
        root, data, sft_dir = pipeline
        rl_dir = tmp_path / "rl"
        cfg = tmp_path / "ppo.json"
        cfg.write_text(json.dumps({"iterations": 2, "rollout_episodes_per_iter": 8,
                                   "minibatch_episodes": 4, "epochs_per_iter": 1, "seed": 5}))
        assert run([
            "train-rl", "--data", str(data), "--target", "columns",
            "--init", str(sft_dir / "model.json"), "--out", str(rl_dir), "--config", str(cfg),
        ]) == 0
        manifest = json.loads((rl_dir / "manifest.json").read_text())
        summary = manifest["summary"]
        records = [json.loads(l) for l in (rl_dir / "metrics.jsonl").read_text().strip().split("\n")]
        # the value-head warm start's rollout and one per iteration, each
        # episode at least one step long
        assert summary["episodes"] == 8 * 3
        iteration_steps = round(sum(r["mean_episode_length"] * 8 for r in records))
        assert summary["steps"] - iteration_steps >= 8
        assert summary["numerical_rollbacks"] == 0
        # validation is scored after the last iteration only, so that one is chosen
        assert summary["chosen_iteration"] == 2
        for key in ("warm_start_seconds", "rollout_seconds", "update_seconds"):
            assert summary[key] >= 0
        # the resolved config records the seed that came from the file
        assert manifest["args"]["seed"] is None
        assert summary["config"] == dataclasses.asdict(
            training.PpoConfig(iterations=2, rollout_episodes_per_iter=8,
                               minibatch_episodes=4, epochs_per_iter=1, seed=5))

    def test_sft_manifest_summary(self, pipeline, tmp_path):
        root, data, _ = pipeline
        cfg = tmp_path / "sft.json"
        cfg.write_text(json.dumps({"epochs": 1, "seed": 7}))
        out = tmp_path / "sft"
        assert run([
            "sft", "--data", str(data), "--target", "columns", "--out", str(out),
            "--config", str(cfg), "--dim", "8",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # the resolved config records the seed that came from the file
        assert manifest["args"]["seed"] is None
        assert manifest["summary"] == {
            "chosen_epoch": 1,
            "config": dataclasses.asdict(training.SftConfig(epochs=1, seed=7)),
        }
        assert manifest["elapsed_seconds"] is not None
        assert sorted(p.name for p in out.iterdir()) == [
            "config.json", "manifest.json", "metrics.jsonl", "model.json",
        ]

    def test_wrong_target_model_rejected(self, pipeline, tmp_path):
        root, data, sft_dir = pipeline
        code = run([
            "train-rl", "--data", str(data), "--target", "rows",
            "--init", str(sft_dir / "model.json"), "--out", str(tmp_path / "x"),
        ])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_sft_is_one_error_line(self, pipeline, tmp_path, capsys):
        root, data, sft_dir = pipeline
        cfg = tmp_path / "diverge.json"
        cfg.write_text('{"learning_rate": 1e300}')
        code = run(["sft", "--data", str(data), "--target", "columns", "--out", str(tmp_path / "out"),
                    "--config", str(cfg), "--dim", "16"])
        assert code == cli.EXIT_CONFIG
        assert_one_error_line(capsys, "non-finite scores in step distribution")

    @pytest.mark.parametrize("stage", ["sft", "train-rl"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"epoch": 2}', "unknown config key 'epoch'"),
            ('{"epochs": 2', "invalid JSON config"),
            ("[2]", "config must be a JSON object"),
            ('{"learning_rate": null}', "learning_rate must be a finite number, got None"),
            ('{"seed": "0"}', "seed must be an integer, got '0'"),
        ],
        ids=["unknown-key", "invalid-json", "not-an-object", "null-value", "string-seed"],
    )
    def test_bad_config_is_one_error_line(self, pipeline, tmp_path, capsys, stage, text, message):
        root, data, sft_dir = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        extra = ["--init", str(sft_dir / "model.json")] if stage == "train-rl" else []
        code = run([
            stage, "--data", str(data), "--target", "columns", "--out", str(tmp_path / "out"),
            "--config", str(cfg), *extra,
        ])
        assert code == cli.EXIT_CONFIG
        assert_one_error_line(capsys, message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"epochs_per_iter": 0}', "schedule and batch sizes must be >= 1"),
            ('{"learning_rate": 0}', "learning_rate must be positive"),
        ],
        ids=["zero-epochs", "zero-learning-rate"],
    )
    def test_ppo_config_out_of_range_is_one_error_line(self, pipeline, tmp_path, capsys, text, message):
        """An update schedule that would take no step (or a step of size 0)
        is refused before anything is written, as ``SftConfig`` refuses one."""
        root, data, sft_dir = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = run([
            "train-rl", "--data", str(data), "--target", "columns", "--out", str(tmp_path / "out"),
            "--config", str(cfg), "--init", str(sft_dir / "model.json"),
        ])
        assert code == cli.EXIT_CONFIG
        assert_one_error_line(capsys, message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["sft", "train-rl"])
    @pytest.mark.parametrize("split", ["nan,0.5,0.5", "0.5,nan,0.5"])
    def test_non_finite_split_is_one_error_line(self, pipeline, tmp_path, capsys, stage, split):
        root, data, sft_dir = pipeline
        extra = ["--init", str(sft_dir / "model.json")] if stage == "train-rl" else []
        code = run([
            stage, "--data", str(data), "--target", "columns", "--out", str(tmp_path / "out"),
            "--split", split, *extra,
        ])
        assert code == cli.EXIT_CONFIG
        assert_one_error_line(capsys, "ratios must be three finite non-negative numbers summing to 1")

    @pytest.mark.parametrize("stage", ["sft", "train-rl"])
    @pytest.mark.parametrize("split", ["0.8,x,0.1", "0.8,0.2"])
    def test_bad_split_is_one_error_line(self, pipeline, tmp_path, capsys, stage, split):
        root, data, sft_dir = pipeline
        extra = ["--init", str(sft_dir / "model.json")] if stage == "train-rl" else []
        code = run([
            stage, "--data", str(data), "--target", "columns", "--out", str(tmp_path / "out"),
            "--split", split, *extra,
        ])
        assert code == cli.EXIT_CONFIG
        assert_one_error_line(capsys, f"--split needs three comma-separated ratios, got {split!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_bad_dim_is_one_error_line(self, pipeline, tmp_path, capsys, dim):
        root, data, sft_dir = pipeline
        code = run([
            "sft", "--data", str(data), "--target", "columns", "--out", str(tmp_path / "out"),
            "--dim", dim,
        ])
        assert code == cli.EXIT_CONFIG
        assert_one_error_line(capsys, f"dim must be a positive integer, got {dim}")

    @pytest.mark.parametrize("stage", ["eval-reduce", "reduce", "train-rl"])
    @pytest.mark.parametrize("dim", [-2, "x", 2.5, True], ids=["negative", "string", "float", "bool"])
    def test_bad_model_dim_is_one_error_line(self, pipeline, tmp_path, capsys, stage, dim):
        root, data, sft_dir = pipeline
        doc = json.loads((sft_dir / "model.json").read_text())
        model = tmp_path / "bad-dim.model.json"
        model.write_text(json.dumps({**doc, "dim": dim}))
        out = str(tmp_path / "out")
        argv = {
            "eval-reduce": ["--model", str(model), "--report", out + ".json"],
            "reduce": ["--col-model", str(model), "--row-model", str(model), "--out", out + ".jsonl"],
            "train-rl": ["--init", str(model), "--target", "columns", "--out", out],
        }[stage]
        assert run([stage, "--data", str(data), *argv]) == cli.EXIT_CONFIG
        assert_one_error_line(capsys, f"{model}: dim must be a positive integer, got {dim!r}")

    @pytest.mark.parametrize("stage", ["eval-reduce", "reduce", "train-rl"])
    def test_truncated_model_rejected(self, pipeline, tmp_path, capsys, stage):
        root, data, sft_dir = pipeline
        text = (sft_dir / "model.json").read_text()
        model = tmp_path / "truncated.model.json"
        model.write_text(text[: len(text) // 2])
        out = str(tmp_path / "out")
        argv = {
            "eval-reduce": ["--model", str(model), "--report", out + ".json"],
            "reduce": ["--col-model", str(model), "--row-model", str(model), "--out", out + ".jsonl"],
            "train-rl": ["--init", str(model), "--target", "columns", "--out", out],
        }[stage]
        assert run([stage, "--data", str(data), *argv]) == cli.EXIT_CONFIG
        assert "not a JSON model file" in capsys.readouterr().err


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
        usable = tasks.trainable(instances, "columns")
        encs, golds = tasks.labeled_encodings(params.vocab, usable, "columns")
        expected = tasks.greedy_recall(params, encs, golds)
        assert report["recall"] == pytest.approx(expected)
        assert report["format_version"] == metrics.REPORT_FORMAT_VERSION
        assert "micro_recall" in report
        predicted = policy.greedy_decode(params, encs).selected
        summary = json.loads((tmp_path / "report.json.manifest.json").read_text())["summary"]
        assert summary["instances"] == len(usable) == report["count"]
        assert summary["columns_kept"] == sum(map(len, predicted))
        assert summary["decode_steps"] == sum(len(p) + 1 for p in predicted)
        assert set(summary) == {"instances", "columns_kept", "decode_steps"}

    def test_eval_reduce_bad_buckets_is_one_error_line(self, pipeline, tmp_path, capsys):
        root, data, sft_dir = pipeline
        report_path = tmp_path / "report.json"
        code = run([
            "eval-reduce", "--data", str(data), "--model", str(sft_dir / "model.json"),
            "--report", str(report_path), "--buckets", "0,a",
        ])
        assert code == cli.EXIT_CONFIG
        assert_one_error_line(capsys, "expected comma-separated integers, got '0,a'")
        assert not report_path.exists()

    def test_eval_reduce_counts_tokens_only_for_buckets(self, pipeline, tmp_path, monkeypatch):
        root, data, sft_dir = pipeline
        argv = ["eval-reduce", "--data", str(data), "--model", str(sft_dir / "model.json"), "--micro"]
        bucketed = tmp_path / "bucketed.json"
        assert run(argv + ["--report", str(bucketed), "--buckets", "0,40"]) == 0

        def refuse(table, runs):
            raise AssertionError("eval-reduce counted tokens")

        replace_token_counter(monkeypatch, refuse)
        plain = tmp_path / "plain.json"
        assert run(argv + ["--report", str(plain)]) == 0
        with pytest.raises(AssertionError, match="eval-reduce counted tokens"):
            run(argv + ["--report", str(tmp_path / "refused.json"), "--buckets", "0,40"])
        monkeypatch.undo()

        doc = json.loads(bucketed.read_text())
        per_bucket = doc.pop("per_bucket")
        assert json.loads(plain.read_text()) == doc
        instances, _ = dataio.load_dataset(data)
        assignments = metrics.bucket_by_length(tasks.trainable(instances, "columns"), [0, 40])
        assert [b["count"] for b in per_bucket] == [assignments.count(0), assignments.count(1)]
        assert 0 < per_bucket[0]["count"] and 0 < per_bucket[1]["count"]

    def test_untargeted_model_is_one_error_line(self, pipeline, tmp_path, capsys):
        root, data, sft_dir = pipeline
        doc = json.loads((sft_dir / "model.json").read_text())
        del doc["target"]
        model = tmp_path / "untargeted.model.json"
        model.write_text(json.dumps(doc))
        report_path = tmp_path / "report.json"
        argv = ["eval-reduce", "--data", str(data), "--model", str(model), "--report", str(report_path)]
        assert run(argv) == cli.EXIT_CONFIG
        assert_one_error_line(capsys, f"{model}: model file lacks 'target'")
        assert not report_path.exists()

    def test_reduce_chains_predictions(self, pipeline, tmp_path, monkeypatch):
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

        # the same predictions as decoding all instances at once, columns
        # first and then rows over the predicted columns, whatever the grouping
        col_params, _ = policy.load_params(sft_dir / "model.json")
        row_params, _ = policy.load_params(row_dir / "model.json")
        pred_cols = policy.greedy_decode(col_params, tasks.encode(col_params.vocab, instances, "columns")).selected
        with_cols = [k for k, cols in enumerate(pred_cols) if cols]
        pred_rows = [frozenset()] * len(instances)
        row_decode = policy.greedy_decode(row_params, tasks.encode(
            row_params.vocab, [instances[k] for k in with_cols], "rows", [pred_cols[k] for k in with_cols]
        ))
        for k, rows in zip(with_cols, row_decode.selected):
            pred_rows[k] = rows
        steps = 0
        for inst, cols, rows in zip(instances, pred_cols, pred_rows):
            assert inst.extra["predicted_columns"] == sorted(cols)
            assert inst.extra["predicted_rows"] == sorted(rows)
            steps += len(cols) + 1 + (len(rows) + 1 if cols else 0)
        summary = json.loads((tmp_path / "reduced.jsonl.manifest.json").read_text())["summary"]
        assert summary["instances"] == len(instances)
        assert summary["columns_kept"] == sum(len(i.extra["predicted_columns"]) for i in instances)
        assert summary["rows_kept"] == sum(len(i.extra["predicted_rows"]) for i in instances)
        assert summary["decode_steps"] == steps
        assert set(summary) == {"instances", "columns_kept", "rows_kept", "decode_steps"}
        monkeypatch.setattr(cli, "_REDUCE_GROUP_ROWS", 7)
        regrouped = tmp_path / "regrouped.jsonl"
        assert run([
            "reduce", "--data", str(data), "--col-model", str(sft_dir / "model.json"),
            "--row-model", str(row_dir / "model.json"), "--out", str(regrouped),
        ]) == 0
        assert regrouped.read_bytes() == reduced.read_bytes()
        regrouped_summary = json.loads((tmp_path / "regrouped.jsonl.manifest.json").read_text())
        assert regrouped_summary["summary"] == summary

    @pytest.mark.parametrize("stage", ["eval-reduce", "reduce"])
    def test_nan_model_is_one_error_line(self, pipeline, tmp_path, capsys, stage):
        root, data, sft_dir = pipeline
        params, _ = policy.load_params(sft_dir / "model.json")
        params.emb[:] = float("nan")
        model, row_model = tmp_path / "nan.model.json", tmp_path / "nan-rows.model.json"
        policy.save_params(params, model, target="columns")
        policy.save_params(params, row_model, target="rows")
        out = tmp_path / "out.json"
        argv = {
            "eval-reduce": ["--model", str(model), "--report", str(out)],
            "reduce": ["--col-model", str(model), "--row-model", str(row_model), "--out", str(out)],
        }[stage]
        assert run([stage, "--data", str(data), *argv]) == cli.EXIT_CONFIG
        assert_one_error_line(capsys, "non-finite scores in step distribution")
        assert not out.exists()

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

    def test_qa_context_tokens_are_report_lengths(self, pipeline, tmp_path):
        """``qa --context full`` writes each instance's length as ``report``
        buckets it: both stages sum ``tables.row_token_counts``."""
        root, data, _ = pipeline
        instances, _ = dataio.load_dataset(data)
        lengths = [sum(counts) for counts in tables.row_token_counts([inst.table for inst in instances])]
        answers = tmp_path / "answers.jsonl"
        argv = ["qa", "--data", str(data), "--out", str(answers), "--mock", "--budget", "60", "--context", "full"]
        assert run(argv) == 0
        written = [json.loads(line)["context_tokens"] for line in answers.read_text().splitlines()]
        assert written == lengths

        boundaries = list(range(min(written), max(written) + 1))  # one bucket per length
        report_path = tmp_path / "report.json"
        assert run([
            "report", "--answers", str(answers), "--reductions", str(data),
            "--buckets", ",".join(map(str, boundaries)), "--out", str(report_path),
        ]) == 0
        counts = [b["count"] for b in json.loads(report_path.read_text())["per_bucket"]]
        assignments = metrics.assign_buckets(written, boundaries)
        assert counts == [assignments.count(k) for k in range(len(boundaries))]
        assert sum(count > 0 for count in counts) > 10

    @pytest.mark.parametrize(
        "buckets, answer_line, message",
        [
            ("0,a", '{"id": "synth-00000", "answer": "1"}', "expected comma-separated integers, got '0,a'"),
            ("0,40", '{"id": "synth-00000"}', ':1: an answer record needs "id" and "answer"'),
            ("0,40", '["synth-00000", "1"]', ':1: an answer record needs "id" and "answer"'),
            ("0,40", '{"id": "synth-00000", "answer": ', ":1: invalid JSON"),
            ("0,40", '{"id": "synth-00000", "answer": null}', ":1: 'answer' must be a string, got None"),
            ("0,40", '{"id": "synth-00000", "answer": 5}', ":1: 'answer' must be a string, got 5"),
            ("0,40", '{"id": "synth-00000", "answer": ["x"]}', ":1: 'answer' must be a string, got ['x']"),
            ("0,40", '{"id": ["synth-00000"], "answer": "1"}', ":1: 'id' must be a string, got ['synth-00000']"),
            ("0,40", '{"id": 0, "answer": "1"}', ":1: 'id' must be a string, got 0"),
            ("0,40", '{"id": "synth-00000", "answer": "1"}\n{"id": "synth-00000", "answer": "2"}',
             ":2: id 'synth-00000' was already answered on line 1"),
            ("0,40", '{"id": "nosuch", "answer": "1"}', ":1: id 'nosuch' names no instance of the reductions file"),
        ],
        ids=["bad-buckets", "no-answer", "not-an-object", "invalid-json", "answer-null", "answer-int",
             "answer-list", "id-list", "id-int", "dup-id", "unknown-id"],
    )
    def test_bad_report_input_is_one_error_line(self, pipeline, tmp_path, capsys, buckets,
                                                answer_line, message):
        root, data, _ = pipeline
        answers = tmp_path / "answers.jsonl"
        answers.write_text(answer_line + "\n")
        out = tmp_path / "report.json"
        code = run([
            "report", "--answers", str(answers), "--reductions", str(data),
            "--buckets", buckets, "--out", str(out),
        ])
        assert code == cli.EXIT_CONFIG
        assert_one_error_line(capsys, message)
        assert not out.exists()

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

    def test_question_holding_row_anchor_is_answered(self, tmp_path):
        data = tmp_path / "anchor.jsonl"
        data.write_text(json.dumps({
            "id": "anchor", "question": "Which city is in Row1: (city,Rome)?",
            "table": {"columns": ["year", "city"], "rows": [[2004, "Athens"], [2008, "Rome"], [2012, "London"]]},
            "sql": "select city from t where year = 2008", "answers": ["Rome"],
        }) + "\n")
        answers = tmp_path / "answers.jsonl"
        assert run(["qa", "--data", str(data), "--out", str(answers), "--mock"]) == 0
        assert json.loads(answers.read_text())["answer"] == "Rome"

    def test_context_tokens_count_the_rendered_context(self, pipeline, tmp_path, monkeypatch):
        root, data, _ = pipeline
        records = [json.loads(line) for line in data.read_text().splitlines()[:6]]
        records[1]["table"]["rows"], records[1]["relevant_rows"] = [], []
        for k, record in enumerate(records):
            n_columns, n_rows = len(record["table"]["columns"]), len(record["table"]["rows"])
            record["predicted_columns"] = [] if k == 0 else list(range(0, n_columns, 2))
            record["predicted_rows"] = list(range(1, n_rows, 2))
        edited = tmp_path / "reduced.jsonl"
        edited.write_text("".join(json.dumps(record) + "\n" for record in records))
        instances, _ = dataio.load_dataset(edited)

        def rendered_tokens(table):
            return len(linearize_tables([table])[0].split())

        expected = {
            "full": [rendered_tokens(inst.table) for inst in instances],
            "gold": [rendered_tokens(project(inst.table, Reduction(inst.relevant_columns, inst.relevant_rows)))
                     for inst in instances],
            "predicted": [rendered_tokens(project(inst.table, Reduction(
                frozenset(inst.extra["predicted_columns"]), frozenset(inst.extra["predicted_rows"]))))
                for inst in instances],
        }
        assert expected["predicted"][0] == expected["full"][1] == 0 < min(expected["full"][2:])
        fake_endpoint(monkeypatch)
        for source, counts in expected.items():
            for backend in (["--mock", "--budget", "30"], ["--endpoint", "https://fake.test"]):
                answers = tmp_path / f"{source}.jsonl"
                argv = ["qa", "--data", str(edited), "--out", str(answers), "--context", source, *backend]
                assert run(argv) == 0
                written = [json.loads(line)["context_tokens"] for line in answers.read_text().splitlines()]
                assert written == counts, (source, backend)

    @pytest.mark.parametrize(
        "backend", [["--mock"], ["--endpoint", "https://fake.test"]], ids=["mock", "endpoint"]
    )
    def test_qa_counts_each_context_once(self, pipeline, tmp_path, monkeypatch, backend):
        root, data, _ = pipeline
        counted = []

        def counter(table, runs):
            counted.append(table)
            return original(table, runs)

        original = tables._row_counts
        replace_token_counter(monkeypatch, counter)
        fake_endpoint(monkeypatch)
        answers = tmp_path / "answers.jsonl"
        assert run(["qa", "--data", str(data), "--out", str(answers), "--context", "full", *backend]) == 0
        instances, _ = dataio.load_dataset(data)
        assert counted == [inst.table for inst in instances]

    def test_qa_judges_each_distinct_cell_once_per_stage(self, pipeline, tmp_path, monkeypatch):
        """``qa --mock`` calls each per-cell function once per distinct cell
        key (and, for the counts, header) over the whole stage, though most
        keys recur across its tables; the reader reads back the cells of the
        columns the gold SQL references only.  A second stage in the same
        process calls them as often again, so no memo outlives its stage."""
        root, data, _ = pipeline
        calls = {"runs": [], "read": []}
        original = {"runs": tables._quoted_runs, "read": llm._read_back}

        def counting(name):
            def judge(cell):
                calls[name].append(cell)
                return original[name](cell)
            return judge

        monkeypatch.setattr(tables, "_quoted_runs", counting("runs"))
        monkeypatch.setattr(llm, "_read_back", counting("read"))
        argv = ["qa", "--data", str(data), "--out", str(tmp_path / "answers.jsonl"),
                "--mock", "--budget", "100000", "--context", "full"]
        instances, _ = dataio.load_dataset(data)
        def key(cell):
            return tables.format_cell(cell) if type(cell) is bool else cell

        per_table = [{key(c) for row in inst.table.rows for c in row} for inst in instances]
        cells = set().union(*per_table)
        referenced = [sql.referenced_columns(sql.parse_sql(inst.sql), inst.table) for inst in instances]
        read = {key(row[c]) for inst, cols in zip(instances, referenced) for row in inst.table.rows for c in cols}
        assert all(len(cols) < inst.table.n_columns for inst, cols in zip(instances, referenced))
        headers = {h for inst in instances for h in inst.table.columns}
        assert sum(map(len, per_table)) > 5 * len(cells)
        made = []
        for _ in range(2):
            for judged in calls.values():
                judged.clear()
            assert run(argv) == 0
            assert len(calls["read"]) == len(read) and set(calls["read"]) == read
            assert len(calls["runs"]) == len(cells | headers) and set(calls["runs"]) == cells | headers
            made.append({name: len(judged) for name, judged in calls.items()})
        assert made[0] == made[1]

    def test_relevance_outside_table_is_a_load_warning(self, pipeline, tmp_path, capsys):
        root, data, sft_dir = pipeline
        lines = data.read_text().splitlines()
        first, second = json.loads(lines[0]), json.loads(lines[1])
        first["relevant_rows"] = [999]
        second["relevant_columns"] = [-1]
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join([json.dumps(first), json.dumps(second), *lines[2:]]) + "\n")
        answers = tmp_path / "answers.jsonl"
        assert run([
            "qa", "--data", str(edited), "--out", str(answers), "--mock", "--context", "gold",
        ]) == 0
        n_rows = len(first["table"]["rows"])
        n_columns = len(second["table"]["columns"])
        assert capsys.readouterr().err.strip().split("\n") == [
            f"warning: {edited}:1: relevant_rows entry 999 is not an index below {n_rows}",
            f"warning: {edited}:2: relevant_columns entry -1 is not an index below {n_columns}",
        ]
        answered = [json.loads(line)["id"] for line in answers.read_text().splitlines()]
        assert answered == [json.loads(line)["id"] for line in lines[2:]]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("predicted_rows", [999], "predicted_rows entry 999 is not an index below"),
            ("predicted_rows", [-1], "predicted_rows entry -1 is not an index below"),
            ("predicted_rows", [True], "predicted_rows entry True is not an index below"),
            ("predicted_columns", [0, 99], "predicted_columns entry 99 is not an index below"),
            ("predicted_columns", ["0"], "predicted_columns entry '0' is not an index below"),
            ("predicted_columns", 5, "'int' object is not iterable"),
        ],
        ids=["row-past-end", "negative-row", "bool-row", "col-past-end", "str-col", "not-a-list"],
    )
    def test_bad_prediction_is_one_error_line(self, pipeline, tmp_path, capsys, key, value, message):
        root, data, sft_dir = pipeline
        row_model = tmp_path / "rows.model.json"
        params, _ = policy.load_params(sft_dir / "model.json")
        policy.save_params(params, row_model, target="rows")
        reduced = tmp_path / "reduced.jsonl"
        assert run([
            "reduce", "--data", str(data), "--col-model", str(sft_dir / "model.json"),
            "--row-model", str(row_model), "--out", str(reduced),
        ]) == 0
        lines = reduced.read_text().splitlines()
        edited = json.loads(lines[3])
        edited[key] = value
        lines[3] = json.dumps(edited)
        reduced.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        answers = tmp_path / "answers.jsonl"
        code = run([
            "qa", "--data", str(reduced), "--out", str(answers), "--mock", "--context", "predicted",
        ])
        assert code == cli.EXIT_CONFIG
        assert_one_error_line(capsys, f"instance {edited['id']}: {message}")
        assert not answers.exists()

    def test_qa_requires_exactly_one_backend(self, pipeline, tmp_path):
        root, data, _ = pipeline
        code = run(["qa", "--data", str(data), "--out", str(tmp_path / "a.jsonl")])
        assert code == cli.EXIT_CONFIG

    def test_qa_endpoint_mode_wiring(self, pipeline, tmp_path, monkeypatch):
        root, data, _ = pipeline
        seen = []

        def fake_complete_many(prompts, cfg, max_in_flight=4, **kw):
            assert cfg.endpoint == "https://fake.test"
            assert max_in_flight == 2
            seen.extend(prompts)
            return [" stub answer "] * len(prompts)

        monkeypatch.setattr(llm, "complete_many", fake_complete_many)
        out = tmp_path / "endpoint_answers.jsonl"
        assert run([
            "qa", "--data", str(data), "--out", str(out),
            "--endpoint", "https://fake.test", "--jobs", "2",
        ]) == 0
        records = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert all(r["answer"] == "stub answer" for r in records)
        # one user message per instance: the QA template over the whole table
        instances, _ = dataio.load_dataset(data)
        assert seen == [
            [("user", llm.QA_PROMPT_TEMPLATE.format(
                question=inst.question,
                context=linearize_tables([inst.table])[0],
            ))]
            for inst in instances
        ]

    def test_qa_mock_requires_sql(self, tmp_path):
        bad = tmp_path / "nosql.jsonl"
        bad.write_text(json.dumps({
            "id": "x", "question": "q",
            "table": {"columns": ["a"], "rows": [[1]]}, "answers": ["1"],
        }) + "\n")
        code = run(["qa", "--data", str(bad), "--out", str(tmp_path / "o.jsonl"), "--mock"])
        assert code == cli.EXIT_CONFIG


class TestRefusedArguments:
    """A flag value or model file the stage refuses is refused before its
    manifest is written, so the run leaves no file behind."""

    @pytest.fixture(scope="class")
    def models(self, pipeline):
        """Files beside the pipeline's: the column model saved for the rows
        target, the column model cut in half, and one answer."""
        root, _, sft_dir = pipeline
        text = (sft_dir / "model.json").read_text()
        params, _ = policy.load_params(sft_dir / "model.json")
        policy.save_params(params, root / "rows.model.json", target="rows")
        (root / "truncated.model.json").write_text(text[: len(text) // 2])
        (root / "one-answer.jsonl").write_text('{"id": "synth-00000", "answer": "1"}\n')
        return {"columns-model": str(sft_dir / "model.json"), "rows-model": str(root / "rows.model.json"),
                "truncated-model": str(root / "truncated.model.json"), "answers": str(root / "one-answer.jsonl")}

    @pytest.mark.parametrize(
        "stage, flags, message",
        [
            ("sft", ["--split", "0.5,0.5,0.5"], "ratios must be three finite non-negative numbers summing to 1"),
            ("train-rl", ["--split", "nan,0.5,0.5"], "ratios must be three finite non-negative numbers summing to 1"),
            ("sft", ["--dim", "0"], "dim must be a positive integer, got 0"),
            ("qa", ["--mock", "--budget", "-5"], "budget_tokens must be positive"),
            ("qa", ["--endpoint", "http://127.0.0.1:9", "--jobs", "0"], "--jobs must be >= 1, got 0"),
            ("report", ["--buckets", "5,3"], "bucket boundaries must be strictly ascending"),
            ("report", ["--buckets", ""], "bucket boundaries must be non-empty"),
            ("eval-reduce", ["--buckets", "5,3"], "bucket boundaries must be strictly ascending"),
            ("eval-reduce", ["--model", "truncated-model"], "not a JSON model file"),
            ("train-rl", ["--init", "rows-model"], "model was trained for target 'rows', not 'columns'"),
            ("reduce", ["--col-model", "rows-model"], "model was trained for target 'rows', not 'columns'"),
            ("reduce", ["--row-model", "columns-model"], "model was trained for target 'columns', not 'rows'"),
        ],
        ids=["sft-split-sum", "train-rl-split-nan", "sft-dim", "qa-budget", "qa-jobs", "report-buckets",
             "report-no-buckets", "eval-reduce-buckets", "eval-reduce-truncated-model", "train-rl-rows-model",
             "reduce-rows-col-model", "reduce-columns-row-model"],
    )
    def test_leaves_no_files(self, pipeline, models, tmp_path, capsys, stage, flags, message):
        _, data, _ = pipeline
        argv = {
            "sft": ["--target", "columns", "--out", str(tmp_path / "out")],
            "train-rl": ["--target", "columns", "--out", str(tmp_path / "out"),
                         "--init", models["columns-model"]],
            "qa": ["--out", str(tmp_path / "answers.jsonl")],
            "report": ["--answers", models["answers"], "--reductions", str(data), "--out", str(tmp_path / "report.json")],
            "eval-reduce": ["--model", models["columns-model"], "--report", str(tmp_path / "report.json")],
            "reduce": ["--col-model", models["columns-model"], "--row-model", models["rows-model"],
                       "--out", str(tmp_path / "reduced.jsonl")],
        }[stage]
        if stage != "report":
            argv = ["--data", str(data), *argv]
        # a later flag overrides an earlier one
        assert run([stage, *argv, *(models.get(flag, flag) for flag in flags)]) == cli.EXIT_CONFIG
        assert_one_error_line(capsys, message)
        assert list(tmp_path.iterdir()) == []


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
