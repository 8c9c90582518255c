"""Operator entry point wiring the pipeline stages together.

Stages mirror the data flow: ``synth`` or your own JSONL -> ``annotate`` ->
``sft`` -> ``train-rl`` -> ``reduce`` / ``eval-reduce`` -> ``qa`` ->
``report``.  Every stage checks its flags and loads its models, then
writes a manifest next to its output before any other file, so a refused
flag or model leaves no file and a run can be reproduced from the recorded
flags and seeds.

Each command imports what it runs and no more: ``import tabreduce.cli``
loads neither numpy nor the HTTP stack.  The model commands (``sft``,
``train-rl``, ``eval-reduce``, ``reduce``) import ``policy`` and ``tasks``,
and the training ones ``training``, inside their command functions; numpy
comes with them, or with ``dataio``'s generator for ``synth``.  ``qa
--endpoint`` loads the HTTP stack inside ``llm``.  So ``annotate``, ``qa
--mock`` and ``report`` never load numpy.

Exit codes: 0 success, 1 validation/config error or a non-finite number in
training or decoding (``NumericalError``), 2 I/O failure, 3 remote
endpoint failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from datetime import datetime, timezone
from typing import TYPE_CHECKING

from . import __version__, annotate as annotate_mod, dataio, llm, metrics
from .atomicio import atomic_write
from .errors import ConfigError, NumericalError
from .tables import Reduction, Table, linearize_tables, project, row_token_counts

if TYPE_CHECKING:
    from . import policy

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
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3:
        raise ConfigError(f"--split needs three comma-separated ratios, got {text!r}")
    return dataio.check_ratios(parts)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _load_answers(path: str, ids: set[str]) -> dict[str, str]:
    """Answer by instance id from a ``qa`` output file, whose ids must be
    distinct and among ``ids``."""
    answers: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not (isinstance(record, dict) and "id" in record and "answer" in record):
                raise ConfigError(f'{path}:{lineno}: an answer record needs "id" and "answer"')
            for key in ("id", "answer"):
                if not isinstance(record[key], str):
                    raise ConfigError(f"{path}:{lineno}: {key!r} must be a string, got {record[key]!r}")
            name = record["id"]
            if name in lines:
                raise ConfigError(f"{path}:{lineno}: id {name!r} was already answered on line {lines[name]}")
            if name not in ids:
                raise ConfigError(f"{path}:{lineno}: id {name!r} names no instance of the reductions file")
            answers[name], lines[name] = record["answer"], lineno
    return answers


def _load_model(path: str, target: str) -> policy.PolicyParams:
    """Load a model, refusing one trained for a target other than ``target``."""
    from . import policy

    params, stored = policy.load_params(path)
    if stored != target:
        raise ConfigError(f"{path}: model was trained for target {stored!r}, not {target!r}")
    return params


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
        columns_range=tuple(_parse_int_list(args.cols)),
        rows_range=tuple(_parse_int_list(args.rows)),
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


def cmd_sft(args) -> int:
    from . import policy, tasks, training

    cfg = _load_config(args.config, training.SftConfig, args.seed)
    ratios = _parse_ratios(args.split)
    policy.check_dim(args.dim)
    manifest = Manifest("sft", vars(args), args.out)
    instances = _load_instances(args.data)
    train, valid, _ = dataio.split(instances, ratios, seed=args.split_seed)
    usable = tasks.trainable(train, args.target)
    if not usable:
        raise ConfigError("no annotated training instances; run annotate first")
    vocab = tasks.build_vocab(usable, args.target)
    params = policy.init_params(vocab, dim=args.dim, seed=cfg.seed)
    summary: dict = {}
    _, history = training.train_sft(
        params, train, valid, cfg, args.target, run_dir=args.out, summary=summary
    )
    manifest.doc["summary"] = {**summary, "config": dataclasses.asdict(cfg)}
    manifest.finish()
    final = history[-1]
    print(
        f"sft done: {len(history)} epochs, final loss {final['loss']:.4f}, "
        f"valid recall {final['valid_recall']}"
    )
    return EXIT_OK


def cmd_train_rl(args) -> int:
    from . import training

    cfg = _load_config(args.config, training.PpoConfig, args.seed)
    ratios = _parse_ratios(args.split)
    params = _load_model(args.init, args.target)
    manifest = Manifest("train-rl", vars(args), args.out)
    instances = _load_instances(args.data)
    train, valid, _ = dataio.split(instances, ratios, seed=args.split_seed)
    summary: dict = {}
    _, history = training.train_rl(
        params, train, valid, cfg, args.target, run_dir=args.out, summary=summary
    )
    manifest.doc["summary"] = {**summary, "config": dataclasses.asdict(cfg)}
    manifest.finish()
    evals = [h["valid_recall"] for h in history if "valid_recall" in h]
    print(f"train-rl done: {cfg.iterations} iterations, eval recalls {evals}")
    return EXIT_OK


def cmd_eval_reduce(args) -> int:
    from . import policy, tasks

    boundaries = metrics.check_boundaries(_parse_int_list(args.buckets)) if args.buckets else None
    params, target = policy.load_params(args.model)
    manifest = Manifest("eval-reduce", vars(args), args.report)
    instances = _load_instances(args.data)
    usable = tasks.trainable(instances, target)
    encs, golds = tasks.labeled_encodings(params.vocab, usable, target)
    decoded = policy.greedy_decode(params, encs)
    entries = []
    for inst, gold, predicted in zip(usable, golds, decoded.selected):
        n_items = inst.table.n_columns if target == tasks.TARGET_COLUMNS else inst.table.n_rows
        entries.append(
            metrics.EvalEntry(
                predicted=predicted,
                gold=gold,
                kept_fraction=len(predicted) / n_items if n_items else 0.0,
                instance=inst,
            )
        )
    doc = metrics.build_recall_report(entries, boundaries, include_micro=args.micro)
    doc["target"] = target
    with atomic_write(args.report) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    manifest.doc["summary"] = {
        "instances": len(entries),
        f"{target}_kept": sum(len(e.predicted) for e in entries),
        "decode_steps": decoded.steps,
    }
    manifest.finish()
    print(
        f"eval-reduce ({target}): recall {doc['recall']:.4f} precision {doc['precision']:.4f} "
        f"over {doc['count']} instances"
    )
    return EXIT_OK


# Table rows per group of ``reduce``: a group's encodings are what the
# decode holds at once, so memory does not grow with the dataset.
_REDUCE_GROUP_ROWS = 4096


def _groups(instances):
    """Consecutive runs of instances with about ``_REDUCE_GROUP_ROWS`` table
    rows in all (a longer table makes a run of its own)."""
    start = rows = 0
    for i, inst in enumerate(instances):
        if i > start and rows + inst.table.n_rows > _REDUCE_GROUP_ROWS:
            yield instances[start:i]
            start, rows = i, 0
        rows += inst.table.n_rows
    if start < len(instances):
        yield instances[start:]


def cmd_reduce(args) -> int:
    from . import policy, tasks

    col_params = _load_model(args.col_model, tasks.TARGET_COLUMNS)
    row_params = _load_model(args.row_model, tasks.TARGET_ROWS)
    manifest = Manifest("reduce", vars(args), args.out)
    instances = _load_instances(args.data)
    out = []
    summary = dict.fromkeys(("columns_kept", "rows_kept", "decode_steps"), 0)
    for group in _groups(instances):
        # columns for every instance, then rows for those with a column prediction
        col_decode = policy.greedy_decode(col_params, tasks.encode(col_params.vocab, group, tasks.TARGET_COLUMNS))
        with_columns = [i for i, cols in enumerate(col_decode.selected) if cols]
        row_decode = policy.greedy_decode(row_params, tasks.encode(
            row_params.vocab, [group[i] for i in with_columns], tasks.TARGET_ROWS,
            [col_decode.selected[i] for i in with_columns],
        ))
        predicted_rows = dict(zip(with_columns, row_decode.selected))
        for i, (inst, cols) in enumerate(zip(group, col_decode.selected)):
            rows = predicted_rows.get(i, frozenset())
            extra = dict(inst.extra)
            extra["predicted_columns"] = sorted(cols)
            extra["predicted_rows"] = sorted(rows)
            out.append(dataclasses.replace(inst, extra=extra))
            summary["columns_kept"] += len(cols)
            summary["rows_kept"] += len(rows)
        summary["decode_steps"] += col_decode.steps + row_decode.steps
    dataio.save_dataset(out, args.out)
    manifest.doc["summary"] = {"instances": len(out), **summary}
    manifest.finish()
    print(f"reduced {len(out)} instances -> {args.out}")
    return EXIT_OK


def _context_for(inst, source: str) -> Table:
    """The instance's table reduced to the ``source`` context."""
    table = inst.table
    if source == "full":
        reduction = None
    elif source == "gold":
        if inst.relevant_columns is None or inst.relevant_rows is None:
            raise ConfigError(f"instance {inst.id} lacks gold annotations")
        reduction = Reduction(inst.relevant_columns, inst.relevant_rows)
    elif source == "predicted":
        try:
            cols = dataio.index_set(inst.extra, "predicted_columns", table.n_columns)
            rows = dataio.index_set(inst.extra, "predicted_rows", table.n_rows)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"instance {inst.id}: {exc}") from exc
        if cols is None or rows is None:
            raise ConfigError(f"instance {inst.id} lacks predictions; run reduce first")
        reduction = Reduction(cols, rows)
    else:
        raise ConfigError(f"unknown context source {source!r}")
    return table if reduction is None else project(table, reduction)


def cmd_qa(args) -> int:
    if args.mock == (args.endpoint is not None):
        raise ConfigError("pass exactly one of --mock or --endpoint")
    if args.mock:
        cfg = llm.MockLlmConfig(budget_tokens=args.budget)
    else:
        cfg = llm.LlmConfig(endpoint=args.endpoint, model=args.model)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    manifest = Manifest("qa", vars(args), args.out)
    instances = _load_instances(args.data)
    contexts = [_context_for(inst, args.context) for inst in instances]
    row_counts = row_token_counts(contexts)
    if args.mock:
        for inst in instances:
            if inst.sql is None:
                raise ConfigError(f"mock mode needs gold sql (instance {inst.id})")
        answers = llm.mock_complete_many(
            [(inst.question, context, counts, inst.sql, inst.answers)
             for inst, context, counts in zip(instances, contexts, row_counts)],
            cfg,
        )
    else:
        prompts = [
            [("user", llm.QA_PROMPT_TEMPLATE.format(question=inst.question, context=context))]
            for inst, context in zip(instances, linearize_tables(contexts))
        ]
        answers = [a.strip() for a in llm.complete_many(prompts, cfg, max_in_flight=args.jobs)]
    records = [
        {"id": inst.id, "answer": answer, "context_source": args.context, "context_tokens": sum(counts)}
        for inst, counts, answer in zip(instances, row_counts, answers)
    ]
    with atomic_write(args.out) as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    manifest.finish()
    print(f"answered {len(records)} questions ({args.context} context) -> {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    boundaries = metrics.check_boundaries(_parse_int_list(args.buckets))
    manifest = Manifest("report", vars(args), args.out)
    instances = _load_instances(args.reductions)
    answers = _load_answers(args.answers, {inst.id for inst in instances})
    doc = metrics.build_accuracy_report(instances, answers, boundaries)
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
    p.add_argument("--cols", default="4,10", metavar="LO,HI")
    p.add_argument("--rows", default="5,60", metavar="LO,HI")
    p.add_argument("--value-vocab", type=int, default=30)
    p.add_argument("--no-annotate", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("annotate", help="derive gold relevance labels via SQL execution")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target", choices=["columns", "both"], default="both")
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
    except (ConfigError, NumericalError) as exc:
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
