"""Operator entry point wiring the pipeline stages together.

Stages mirror the data flow: ``synth`` or your own JSONL -> ``annotate`` ->
``sft`` -> ``train-rl`` -> ``reduce`` / ``eval-reduce`` -> ``qa`` ->
``report``.  Every stage writes a manifest next to its output before any
other file, so a run can be reproduced from the recorded flags and seeds.

Exit codes: 0 success, 1 validation/config error, 2 I/O failure,
3 remote endpoint failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from datetime import datetime, timezone

from . import __version__, annotate as annotate_mod, dataio, llm, metrics, policy, tasks, training
from .atomicio import atomic_write
from .errors import ConfigError
from .tables import Reduction, linearize_rows, project

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_REMOTE = 3


def _manifest_path(out_path: str) -> str:
    if os.path.isdir(out_path) or not os.path.splitext(out_path)[1]:
        return os.path.join(out_path, "manifest.json")
    return out_path + ".manifest.json"


class Manifest:
    """Run record written before stage output, finalized with timing."""

    def __init__(self, command: str, args: dict, out_path: str):
        self.path = _manifest_path(out_path)
        self.started = time.time()
        self.doc = {
            "version": __version__,
            "command": command,
            "args": {k: v for k, v in sorted(args.items()) if k != "func"},
            "started_at": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": None,
        }
        self._write()

    def _write(self) -> None:
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with atomic_write(self.path) as fh:
            json.dump(self.doc, fh, sort_keys=True, indent=2)
            fh.write("\n")

    def finish(self) -> None:
        self.doc["elapsed_seconds"] = round(time.time() - self.started, 3)
        self._write()


def _load_instances(path: str):
    instances, errors = dataio.load_dataset(path)
    for err in errors:
        print(f"warning: {path}:{err.line}: {err.message}", file=sys.stderr)
    return instances


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("--split needs three comma-separated ratios")
    return (parts[0], parts[1], parts[2])


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip() != ""]


def _load_model(path: str, target: str | None) -> tuple[policy.PolicyParams, str]:
    """Load a model and its target, refusing one whose stored target is not
    ``target``.  ``target`` stands in for a model file that stores none."""
    params, stored = policy.load_params(path)
    if stored is not None and target is not None and stored != target:
        raise ConfigError(f"{path}: model was trained for target {stored!r}, not {target!r}")
    resolved = stored or target
    if resolved is None:
        raise ConfigError(f"{path}: model file carries no target; pass --target")
    return params, resolved


def _load_config(path: str | None, config_cls, seed: int | None):
    """``config_cls`` built from the JSON object in ``path``, with ``seed``
    (when given) overriding the file's."""
    overrides = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"{path}: invalid JSON config: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        known = {f.name for f in dataclasses.fields(config_cls)}
        for key in overrides:
            if key not in known:
                raise ConfigError(f"{path}: unknown config key {key!r}")
    if seed is not None:
        overrides["seed"] = seed
    return config_cls(**overrides)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_synth(args) -> int:
    cfg = dataio.SynthConfig(
        n_instances=args.n,
        columns_range=tuple(args.cols),
        rows_range=tuple(args.rows),
        value_vocab_size=args.value_vocab,
        seed=args.seed,
        annotate=not args.no_annotate,
    )
    manifest = Manifest("synth", vars(args), args.out)
    instances = dataio.generate_synthetic(cfg)
    dataio.save_dataset(instances, args.out)
    manifest.finish()
    print(f"wrote {len(instances)} instances to {args.out}")
    return EXIT_OK


def cmd_annotate(args) -> int:
    manifest = Manifest("annotate", vars(args), args.out)
    instances = _load_instances(args.inp)
    annotated, stats = annotate_mod.annotate_dataset(instances, target=args.target)
    dataio.save_dataset(annotated, args.out)
    ok = len(annotated) - stats.total
    manifest.doc["summary"] = {"instances": len(annotated), "ok": ok, "skipped": dict(stats.counts)}
    manifest.finish()
    print(f"annotated {ok}/{len(annotated)} instances ({args.target})")
    for reason in sorted(stats.counts):
        print(f"  {reason}: {stats.counts[reason]}")
    return EXIT_OK


def _split_from_args(instances, args):
    return dataio.split(instances, _parse_ratios(args.split), seed=args.split_seed)


def cmd_sft(args) -> int:
    cfg = _load_config(args.config, training.SftConfig, args.seed)
    manifest = Manifest("sft", vars(args), args.out)
    instances = _load_instances(args.data)
    train, valid, _ = _split_from_args(instances, args)
    usable = tasks.trainable(train, args.target)
    if not usable:
        raise ConfigError("no annotated training instances; run annotate first")
    vocab = tasks.build_vocab(usable, args.target)
    params = policy.init_params(vocab, dim=args.dim, seed=cfg.seed)
    best, history = training.train_sft(params, train, valid, cfg, args.target, run_dir=args.out)
    policy.save_params(best, os.path.join(args.out, "model.json"), target=args.target)
    manifest.finish()
    final = history[-1]
    print(
        f"sft done: {len(history)} epochs, final loss {final['loss']:.4f}, "
        f"valid recall {final['valid_recall']}"
    )
    return EXIT_OK


def cmd_train_rl(args) -> int:
    cfg = _load_config(args.config, training.PpoConfig, args.seed)
    manifest = Manifest("train-rl", vars(args), args.out)
    instances = _load_instances(args.data)
    train, valid, _ = _split_from_args(instances, args)
    params, _ = _load_model(args.init, args.target)
    best, history = training.train_rl(
        params, train, valid, cfg, args.target, run_dir=args.out
    )
    policy.save_params(best, os.path.join(args.out, "model.json"), target=args.target)
    manifest.finish()
    evals = [h["valid_recall"] for h in history if "valid_recall" in h]
    print(f"train-rl done: {cfg.iterations} iterations, eval recalls {evals}")
    return EXIT_OK


def cmd_eval_reduce(args) -> int:
    manifest = Manifest("eval-reduce", vars(args), args.report)
    instances = _load_instances(args.data)
    params, target = _load_model(args.model, args.target)
    entries = []
    for inst in tasks.trainable(instances, target):
        gold = tasks.gold_items(inst, target)
        predicted = tasks.greedy_reduction(params, inst, target)
        n_items = inst.table.n_columns if target == tasks.TARGET_COLUMNS else inst.table.n_rows
        entries.append(
            metrics.EvalEntry(
                predicted=predicted,
                gold=gold if gold is not None else frozenset(),
                kept_fraction=len(predicted) / n_items if n_items else 0.0,
                context_tokens=metrics.full_context_tokens(inst),
            )
        )
    boundaries = _parse_int_list(args.buckets) if args.buckets else None
    report = metrics.build_recall_report(entries, boundaries, include_micro=args.micro)
    doc = metrics.report_to_dict(report)
    doc["target"] = target
    with atomic_write(args.report) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    manifest.finish()
    print(
        f"eval-reduce ({target}): recall {report.recall:.4f} precision {report.precision:.4f} "
        f"over {report.count} instances"
    )
    return EXIT_OK


def cmd_reduce(args) -> int:
    manifest = Manifest("reduce", vars(args), args.out)
    instances = _load_instances(args.data)
    col_params, _ = _load_model(args.col_model, tasks.TARGET_COLUMNS)
    row_params, _ = _load_model(args.row_model, tasks.TARGET_ROWS)
    out = []
    for inst in instances:
        predicted_cols = tasks.greedy_reduction(col_params, inst, tasks.TARGET_COLUMNS)
        if predicted_cols:
            predicted_rows = tasks.greedy_reduction(
                row_params, inst, tasks.TARGET_ROWS, context_columns=predicted_cols
            )
        else:
            predicted_rows = frozenset()
        extra = dict(inst.extra)
        extra["predicted_columns"] = sorted(predicted_cols)
        extra["predicted_rows"] = sorted(predicted_rows)
        out.append(dataclasses.replace(inst, extra=extra))
    dataio.save_dataset(out, args.out)
    manifest.finish()
    print(f"reduced {len(out)} instances -> {args.out}")
    return EXIT_OK


def _context_for(inst, source: str) -> str:
    table = inst.table
    if source == "full":
        reduction = None
    elif source == "gold":
        if inst.relevant_columns is None or inst.relevant_rows is None:
            raise ConfigError(f"instance {inst.id} lacks gold annotations")
        reduction = Reduction(inst.relevant_columns, inst.relevant_rows)
    elif source == "predicted":
        cols = inst.extra.get("predicted_columns")
        rows = inst.extra.get("predicted_rows")
        if cols is None or rows is None:
            raise ConfigError(f"instance {inst.id} lacks predictions; run reduce first")
        reduction = Reduction(frozenset(cols), frozenset(rows))
    else:
        raise ConfigError(f"unknown context source {source!r}")
    if reduction is not None:
        table = project(table, reduction)
    if table.n_columns == 0:
        return ""
    return linearize_rows(table, frozenset(range(table.n_columns))).text


def cmd_qa(args) -> int:
    if args.mock == (args.endpoint is not None):
        raise ConfigError("pass exactly one of --mock or --endpoint")
    manifest = Manifest("qa", vars(args), args.out)
    instances = _load_instances(args.data)
    contexts = [_context_for(inst, args.context) for inst in instances]
    if args.mock:
        mock_cfg = llm.MockLlmConfig(budget_tokens=args.budget)
        answers = []
        for inst, context in zip(instances, contexts):
            if inst.sql is None:
                raise ConfigError(f"mock mode needs gold sql (instance {inst.id})")
            prompt = llm.QA_PROMPT_TEMPLATE.format(question=inst.question, context=context)
            answers.append(llm.mock_complete(inst.question, prompt, mock_cfg, inst.sql, inst.answers))
    else:
        cfg = llm.LlmConfig(endpoint=args.endpoint, model=args.model)
        prompts = [
            [("user", llm.QA_PROMPT_TEMPLATE.format(question=inst.question, context=context))]
            for inst, context in zip(instances, contexts)
        ]
        answers = [a.strip() for a in llm.complete_many(prompts, cfg, max_in_flight=args.jobs)]
    records = []
    for inst, context, answer in zip(instances, contexts, answers):
        records.append(
            {
                "id": inst.id,
                "answer": answer,
                "context_source": args.context,
                "context_tokens": len(context.split()),
            }
        )
    with atomic_write(args.out) as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    manifest.finish()
    print(f"answered {len(records)} questions ({args.context} context) -> {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    manifest = Manifest("report", vars(args), args.out)
    instances = _load_instances(args.reductions)
    answers: dict[str, str] = {}
    with open(args.answers, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                answers[record["id"]] = record["answer"]
    doc = metrics.build_accuracy_report(instances, answers, _parse_int_list(args.buckets))
    buckets = doc["per_bucket"]
    with atomic_write(args.out) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if args.csv:
        with atomic_write(args.csv) as fh:
            fh.write("bucket,min_tokens,count,accuracy\n")
            for b in buckets:
                fh.write(f"{b['bucket']},{b['min_tokens']},{b['count']},{b['accuracy']}\n")
    manifest.finish()
    print(f"report over {doc['count']} instances -> {args.out}")
    for b in buckets:
        print(f"  bucket {b['bucket']} (>= {b['min_tokens']} tokens, n={b['count']}): {b['accuracy']:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tabreduce", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic annotated dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--cols", type=_parse_int_list, default=[4, 10], metavar="LO,HI")
    p.add_argument("--rows", type=_parse_int_list, default=[5, 60], metavar="LO,HI")
    p.add_argument("--value-vocab", type=int, default=30)
    p.add_argument("--no-annotate", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("annotate", help="derive gold relevance labels via SQL execution")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target", choices=["columns", "rows", "both"], default="both")
    p.set_defaults(func=cmd_annotate)

    for name, fn in (("sft", cmd_sft), ("train-rl", cmd_train_rl)):
        p = sub.add_parser(name, help=f"{name} training stage")
        p.add_argument("--data", required=True)
        p.add_argument("--target", choices=["columns", "rows"], required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--config", default=None, help="JSON config overrides")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--split", default="0.8,0.1,0.1")
        p.add_argument("--split-seed", type=int, default=0)
        if name == "sft":
            p.add_argument("--dim", type=int, default=64)
        else:
            p.add_argument("--init", required=True, help="initial model file (post-SFT)")
        p.set_defaults(func=fn)

    p = sub.add_parser("eval-reduce", help="recall report for a trained model")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--target", choices=["columns", "rows"], default=None)
    p.add_argument("--buckets", default=None, metavar="B0,B1,...")
    p.add_argument("--micro", action="store_true")
    p.set_defaults(func=cmd_eval_reduce)

    p = sub.add_parser("reduce", help="two-stage column-then-row reduction")
    p.add_argument("--data", required=True)
    p.add_argument("--col-model", required=True)
    p.add_argument("--row-model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("qa", help="downstream question answering")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mock", action="store_true")
    p.add_argument("--budget", type=int, default=512, help="mock context token budget")
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default="gpt-4")
    p.add_argument("--context", choices=["full", "gold", "predicted"], default="full")
    p.add_argument("--jobs", type=int, default=4, help="concurrent endpoint requests")
    p.set_defaults(func=cmd_qa)

    p = sub.add_parser("report", help="length-bucketed downstream accuracy")
    p.add_argument("--answers", required=True)
    p.add_argument("--reductions", required=True)
    p.add_argument("--buckets", required=True, metavar="B0,B1,...")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except llm.LlmError as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return EXIT_REMOTE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
