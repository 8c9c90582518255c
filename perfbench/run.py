"""End-to-end benchmark of the tabreduce CLI pipeline, run in one process.

    python3 perfbench/run.py --workload rl-short-tables --seed 1 --seconds 35 --trace 0

Each repeat runs every stage through ``tabreduce.cli.main``:

    synth --no-annotate -> annotate -> sft (columns) -> sft (rows) -> train-rl
    -> eval-reduce -> reduce -> qa --mock (full) -> qa --mock (predicted) -> report

Repeats continue until ``--seconds`` is used up (at least two, so every
output can be compared byte for byte).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repeats and reports
per-layer metrics from the traced ones.  The last line of standard output is
one JSON object; everything above it is for people.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One process, one thread: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import spans as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SHORT = {"cols": (4, 8), "rows": (5, 15)}

# Each workload gives the same stage sequence a different input shape so that
# a different layer does most of the work; README.md gives the reasons.
WORKLOADS = {
    "rl-short-tables": {
        "data": {"n": 600, **SHORT},
        "split": "0.3,0.1,0.6",
        "sft_columns": {"epochs": 3, "learning_rate": 0.05},
        "sft_rows": {"epochs": 6, "learning_rate": 0.05},
        "ppo": {"iterations": 1, "rollout_episodes_per_iter": 512},
        "budget": 256,
        "buckets": "0,100,200,400",
    },
    "annotate-long-tables": {
        "data": {"n": 50, "cols": (8, 10), "rows": (140, 160)},
        "sft_columns": {"epochs": 6, "learning_rate": 0.05},
        "sft_rows": {"epochs": 1, "learning_rate": 0.06},
        "ppo": {"iterations": 1, "rollout_episodes_per_iter": 128},
        "budget": 1024,
        "buckets": "0,1000,2000,3000",
    },
    "reduce-qa-long-tables": {
        "data": {"n": 120, **SHORT},
        "sft_columns": {"epochs": 1},
        "sft_rows": {"epochs": 1},
        "ppo": {"iterations": 1, "rollout_episodes_per_iter": 64},
        "budget": 512,
        "buckets": "0,300,600,1200",
        # the models that eval-reduce and reduce use are trained in set-up
        "trained": {
            "data": {"n": 200, **SHORT},
            "sft_columns": {"epochs": 4, "learning_rate": 0.05},
            "sft_rows": {"epochs": 4, "learning_rate": 0.03},
            "ppo": {"iterations": 1, "rollout_episodes_per_iter": 128},
        },
        "long": {"n": 150, "cols": (4, 8), "rows": (60, 200)},
    },
}

TINY_DATA = {"n": 12, **SHORT}
TINY_TRAIN = {
    "sft_columns": {"epochs": 1},
    "sft_rows": {"epochs": 1},
    "ppo": {"iterations": 1, "rollout_episodes_per_iter": 8},
}


def tiny(cfg: dict) -> dict:
    """The same workload at smoke-test size."""
    small = dict(cfg, **TINY_TRAIN)
    rows = cfg["data"]["rows"]
    small["data"] = {**cfg["data"], "n": 12, "rows": (rows[0], min(rows[1], rows[0] + 10))}
    if "trained" in cfg:
        small["trained"] = {"data": TINY_DATA, **TINY_TRAIN}
        small["long"] = {**cfg["long"], "n": 6, "rows": (60, 70)}
    return small


DEFAULT_SPLIT = "0.8,0.1,0.1"

# Host-speed correction.  On a shared host, other tenants slow this process's
# core by up to 2x, for seconds to minutes at a time, and process CPU time
# grows with wall time (the core is shared, not taken away).  Every timed
# interval is therefore sampled with a fixed probe, and its wall time is
# scaled to the host speed at which the probe takes PROBE_REF_S (about what
# it takes on an uncontended core of the 2-core host this was built on).
PROBE_REF_S = 0.006
PROBE_EVERY_S = 0.2
PROBE_MATRIX = numpy.random.default_rng(0).random((48, 48))

STAGES = ("synth", "annotate", "sft-columns", "sft-rows", "train-rl", "eval-reduce",
          "reduce", "qa-full", "qa-predicted", "report")

# (name, unit, better): the end-to-end metrics of the result line.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("annotate_inst_per_s", "1/s", "higher"),
    ("sft_cols_examples_per_s", "1/s", "higher"),
    ("sft_rows_examples_per_s", "1/s", "higher"),
    ("rl_episodes_per_s", "1/s", "higher"),
    ("reduce_inst_per_s", "1/s", "higher"),
    ("qa_full_answers_per_s", "1/s", "higher"),
    ("qa_pred_answers_per_s", "1/s", "higher"),
    ("report_inst_per_s", "1/s", "higher"),
    ("col_recall", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# Printed but not in the result line: failed_op_share is 0 when the run is
# correct (the line carries it as "failed" / "attempted"), and the accuracy
# of the lightly trained row models is near 0 on long tables and varies
# across seeds by more than any bound the benchmark may set.
PRINTED_ONLY = (
    ("qa_pred_accuracy", "ratio", "higher"),
    ("failed_op_share", "ratio", "lower"),
)

SPANNED = (
    "policy.replay_episode", "policy.accumulate_episode_grads", "policy.sft_loss_and_grad",
    "policy.ppo_loss_and_grad", "policy.sample_episode", "policy.apply_top_p_mask",
    "policy.save_params", "training.Adam.step", "tasks.encode", "tasks.greedy_reduction",
    "tasks.evaluate_recall", "annotate.annotate_instance", "sql.execute", "sql.parse_sql",
    "tables.linearize_rows", "tables.row_candidate_text", "llm.mock_complete",
    "llm.parse_prompt_table",
)
SELF_ONLY = (
    "training.collect_rollouts", "training.compute_advantages", "training.ppo_update",
    "training.warm_start_value_head", "dataio.generate_synthetic", "dataio.load_dataset",
    "dataio.save_dataset", "metrics.bucket_by_length", "metrics.build_recall_report",
)


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for fn in SPANNED:
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    names += [(f"{fn}.self_s", "s") for fn in SELF_ONLY]
    names += [
        ("tables.project.from_annotate.calls", "count"),
        ("tables.project.from_annotate.self_s", "s"),
        ("policy.mean_embedding.calls", "count"),
        ("policy.mean_embedding.per_episode", "ratio"),
        ("sql.parse_sql.per_annotated_inst", "ratio"),
    ]
    names += [(f"layer.{layer}.self_s", "s") for layer in tracing.LAYERS]
    names += [("trace.layer_self_share", "ratio"), ("trace.overhead_s", "s")]
    return names


# ---------------------------------------------------------------------------
# Pipeline


def span(bounds) -> str:
    return ",".join(str(b) for b in bounds)


def stage_argv(cfg: dict, seed: int, rep: Path, inputs: Path, trained: Path | None) -> dict:
    """argv for each stage; reduce and eval-reduce use the set-up models if any."""
    d = cfg["data"]
    models = trained or rep
    col_model = models / "train-rl" / "model.json"
    row_model = models / "sft-rows" / "model.json"
    eval_data = inputs / "long.jsonl" if trained else rep / "data.jsonl"
    split = ["--split", cfg.get("split", DEFAULT_SPLIT)]
    return {
        "synth": ["synth", "--n", str(d["n"]), "--seed", str(seed), "--no-annotate",
                  "--cols", span(d["cols"]), "--rows", span(d["rows"]),
                  "--out", str(rep / "raw.jsonl")],
        "annotate": ["annotate", "--in", str(rep / "raw.jsonl"), "--out", str(rep / "data.jsonl"),
                     "--target", "both"],
        "sft-columns": ["sft", "--data", str(rep / "data.jsonl"), "--target", "columns",
                        "--out", str(rep / "sft-columns"),
                        "--config", str(inputs / "sft-columns.json"), *split],
        "sft-rows": ["sft", "--data", str(rep / "data.jsonl"), "--target", "rows",
                     "--out", str(rep / "sft-rows"), "--config", str(inputs / "sft-rows.json"),
                     *split],
        "train-rl": ["train-rl", "--data", str(rep / "data.jsonl"), "--target", "columns",
                     "--init", str(rep / "sft-columns" / "model.json"),
                     "--out", str(rep / "train-rl"), "--config", str(inputs / "ppo.json"), *split],
        "eval-reduce": ["eval-reduce", "--data", str(rep / "data.jsonl"), "--model", str(col_model),
                        "--report", str(rep / "eval-reduce.json")],
        "reduce": ["reduce", "--data", str(eval_data), "--col-model", str(col_model),
                   "--row-model", str(row_model), "--out", str(rep / "reduced.jsonl")],
        "qa-full": ["qa", "--data", str(rep / "reduced.jsonl"), "--out",
                    str(rep / "answers-full.jsonl"), "--mock", "--context", "full",
                    "--budget", str(cfg["budget"])],
        "qa-predicted": ["qa", "--data", str(rep / "reduced.jsonl"), "--out",
                         str(rep / "answers-predicted.jsonl"), "--mock", "--context",
                         "predicted", "--budget", str(cfg["budget"])],
        "report": ["report", "--answers", str(rep / "answers-predicted.jsonl"),
                   "--reductions", str(rep / "reduced.jsonl"), "--buckets", cfg["buckets"],
                   "--out", str(rep / "qa-report.json"), "--csv", str(rep / "qa-report.csv")],
    }


OUTPUTS = {
    "synth": ("raw.jsonl",),
    "annotate": ("data.jsonl",),
    "sft-columns": ("sft-columns",),
    "sft-rows": ("sft-rows",),
    "train-rl": ("train-rl",),
    "eval-reduce": ("eval-reduce.json",),
    "reduce": ("reduced.jsonl",),
    "qa-full": ("answers-full.jsonl",),
    "qa-predicted": ("answers-predicted.jsonl",),
    "report": ("qa-report.json", "qa-report.csv"),
}


def digest(base: Path, names) -> dict[str, str]:
    """sha256 of every output file, manifests excepted (they hold wall times)."""
    out = {}
    for name in names:
        path = base / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            if f.name == "manifest.json" or f.name.endswith(".manifest.json"):
                continue
            key = str(f.relative_to(base))
            out[key] = hashlib.sha256(f.read_bytes()).hexdigest() if f.exists() else "missing"
    return out


def call_cli(cli, argv: list[str], log: Path) -> int:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing stage is a failed op, not a crashed benchmark
            traceback.print_exc()
            rc = -1
    log.write_text(buf.getvalue(), encoding="utf-8")
    return rc


def probe() -> float:
    """Seconds one run of fixed interpreter and numpy work takes."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(20000):
        table[str(i % 97)] = acc
        acc += i * i % 7
    a = PROBE_MATRIX
    for _ in range(60):
        a = numpy.tanh(a @ a.T / 48)
    return time.perf_counter() - start


def timed(fn):
    """(fn's result, seconds at reference host speed, wall seconds).

    The host's speed is the mean of PROBE_REF_S / probe() over probes taken
    three times before fn, every PROBE_EVERY_S while it runs (from a timer
    signal; their time is taken out of fn's wall time) and three times after.
    Garbage left by earlier work is collected first, so fn is not charged for
    its predecessor's.
    """
    gc.collect()
    samples = [probe() for _ in range(3)]
    in_probes = 0.0

    def sample(signum, frame):
        nonlocal in_probes
        start = time.perf_counter()
        samples.append(probe())
        in_probes += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start - in_probes
        signal.signal(signal.SIGALRM, previous)
    samples += [probe() for _ in range(3)]
    speed = statistics.fmean(PROBE_REF_S / t for t in samples)
    return result, wall * speed, wall


@contextlib.contextmanager
def on_this_core():
    """Keep this process, and the processes it starts, on the core it runs on
    now.  A set-up round's interpreter then runs on the core the probes
    measure; left free, it often ran on the other one."""
    allowed = None
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {ctypes.CDLL(None).sched_getcpu()})
    except (AttributeError, OSError, ValueError):
        pass
    try:
        yield
    finally:
        if allowed is not None:
            os.sched_setaffinity(0, allowed)


def run_pipeline(cli, argv: dict, rep: Path, tracer=None) -> dict:
    """One repeat, each stage once; stops at the first stage that fails."""
    rep.mkdir(parents=True)
    times: dict[str, float] = {}
    walls: dict[str, float] = {}
    rcs: dict[str, int] = {}
    for stage in STAGES:
        def call():
            with tracer.root(f"cli.{stage}") if tracer else contextlib.nullcontext():
                return call_cli(cli, argv[stage], rep / f"{stage}.log")

        rc, times[stage], walls[stage] = timed(call)
        rcs[stage] = rc
        if rc != 0:
            break
    return {"pipeline_s": sum(times.values()), "times": times, "walls": walls, "rcs": rcs}


# ---------------------------------------------------------------------------
# Output checks (independent of the program's own code)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_outputs(cfg: dict, rep: Path, eval_path: Path, qa_template: str) -> dict[str, str]:
    """stage -> problem, for outputs that are wrong whatever the timing."""
    problems: dict[str, str] = {}
    raw = read_jsonl(rep / "raw.jsonl")
    if len(raw) != cfg["data"]["n"] or not all(r.get("sql") and r.get("answers") for r in raw):
        problems["synth"] = "wrong instance count or missing sql/answers"
    data = read_jsonl(rep / "data.jsonl")
    ok = sum(r.get("annotation_status") == "ok" for r in data)
    if [r["id"] for r in data] != [r["id"] for r in raw] or ok < 0.9 * len(data):
        problems["annotate"] = f"ids changed or only {ok}/{len(data)} annotated ok"
    for stage, key, expected in (("sft-columns", "sft_columns", "epochs"),
                                 ("sft-rows", "sft_rows", "epochs"),
                                 ("train-rl", "ppo", "iterations")):
        model = json.loads((rep / stage / "model.json").read_text(encoding="utf-8"))
        lines = read_jsonl(rep / stage / "metrics.jsonl")
        if "params" not in model or len(lines) != cfg[key][expected]:
            problems[stage] = f"model without params or {len(lines)} metrics lines"
    report = json.loads((rep / "eval-reduce.json").read_text(encoding="utf-8"))
    if not (report["count"] > 0 and 0.0 <= report["recall"] <= 1.0):
        problems["eval-reduce"] = f"count {report['count']} recall {report['recall']}"

    inputs = read_jsonl(eval_path)
    gold = {r["id"]: ", ".join(r["answers"]) for r in inputs}
    reduced = read_jsonl(rep / "reduced.jsonl")
    ids = [r["id"] for r in inputs]
    bad = [r["id"] for r in reduced
           if not set(r["predicted_columns"]) <= set(range(len(r["table"]["columns"])))
           or not set(r["predicted_rows"]) <= set(range(len(r["table"]["rows"])))]
    if [r["id"] for r in reduced] != ids or bad:
        problems["reduce"] = f"ids differ or out-of-range predictions ({bad[:3]})"
    questions = {r["id"]: r["question"] for r in inputs}
    for stage, name in (("qa-full", "answers-full.jsonl"), ("qa-predicted", "answers-predicted.jsonl")):
        answers = read_jsonl(rep / name)
        wrong = [a["id"] for a in answers if a["answer"] not in (gold[a["id"]], "unknown")]
        if stage == "qa-full":
            # the mock reader sees the whole table when the prompt fits its
            # budget, and the gold SQL over the whole table gives the gold answer
            for a in answers:
                fixed = len(qa_template.format(question=questions[a["id"]], context="").split())
                if fixed + a["context_tokens"] <= cfg["budget"] and a["answer"] != gold[a["id"]]:
                    wrong.append(a["id"])
        if [a["id"] for a in answers] != ids or wrong:
            problems[stage] = f"ids differ or wrong answers ({wrong[:3]})"
    answers = read_jsonl(rep / "answers-predicted.jsonl")
    accuracy = sum(a["answer"] == gold[a["id"]] for a in answers) / len(answers)
    qa_report = json.loads((rep / "qa-report.json").read_text(encoding="utf-8"))
    if qa_report["count"] != len(ids) or abs(qa_report["overall_accuracy"] - accuracy) > 1e-12:
        problems["report"] = f"count {qa_report['count']} accuracy {qa_report['overall_accuracy']} != {accuracy}"
    return problems


# ---------------------------------------------------------------------------
# Set-up


def write_configs(cfg: dict, inputs: Path) -> None:
    for name in ("sft_columns", "sft_rows"):
        (inputs / f"{name.replace('_', '-')}.json").write_text(
            json.dumps({**cfg[name], "seed": 0}), encoding="utf-8")
    ppo = {**cfg["ppo"], "eval_every": cfg["ppo"]["iterations"], "seed": 0}
    (inputs / "ppo.json").write_text(json.dumps(ppo), encoding="utf-8")


def set_up(cli, cfg: dict, seed: int, inputs: Path) -> tuple[int, int]:
    """Start a fresh interpreter that imports ``tabreduce.cli``, write the
    configs, and for a workload with set-up models train them and generate
    its long tables.  Returns (stage runs, failed ones)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
    subprocess.run([sys.executable, "-c", "import tabreduce.cli"], cwd=ROOT, env=env, check=True)
    inputs.mkdir(parents=True)
    write_configs(cfg, inputs)
    attempted = failed = 0
    if "trained" in cfg:
        trained = inputs / "trained"
        trained.mkdir()
        write_configs(cfg["trained"], trained)
        t, long = cfg["trained"]["data"], cfg["long"]
        argv = stage_argv({**cfg, **cfg["trained"]}, seed, trained, trained, None)
        # The models are trained on the same tables whatever the seed: models
        # trained on each seed's tables kept so differently many rows that the
        # predicted-context QA time differed by up to 1.6x between seeds.
        argv["synth"] = ["synth", "--n", str(t["n"]), "--seed", "0",
                         "--cols", span(t["cols"]), "--rows", span(t["rows"]),
                         "--out", str(trained / "data.jsonl")]
        steps = [argv["synth"], argv["sft-columns"], argv["sft-rows"], argv["train-rl"],
                 ["synth", "--n", str(long["n"]), "--seed", str(seed), "--no-annotate",
                  "--cols", span(long["cols"]), "--rows", span(long["rows"]),
                  "--out", str(inputs / "long.jsonl")]]
        for k, step in enumerate(steps):
            attempted += 1
            if call_cli(cli, step, inputs / f"setup-{k}.log") != 0:
                failed += 1
                break
    return attempted, failed


# ---------------------------------------------------------------------------
# Metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sft_example_count(path: Path, target: str, split: str) -> int:
    """Training examples one SFT epoch visits."""
    from tabreduce import dataio, tasks

    instances, _ = dataio.load_dataset(path)
    train, _, _ = dataio.split(instances, tuple(float(r) for r in split.split(",")), seed=0)
    return len(tasks.trainable(train, target))


def end_to_end(cfg: dict, reps: list[dict], rep0: Path, eval_n: int, setup_s: float) -> dict:
    def typical(stage):
        return statistics.median(r["times"][stage] for r in reps)

    n = cfg["data"]["n"]
    ppo = cfg["ppo"]
    split = cfg.get("split", DEFAULT_SPLIT)
    report = json.loads((rep0 / "eval-reduce.json").read_text(encoding="utf-8"))
    qa_report = json.loads((rep0 / "qa-report.json").read_text(encoding="utf-8"))
    values = {
        "setup_s": setup_s,
        "pipeline_s": statistics.median(r["pipeline_s"] for r in reps),
        "annotate_inst_per_s": n / typical("annotate"),
        "sft_cols_examples_per_s": sft_example_count(rep0 / "data.jsonl", "columns", split)
        * cfg["sft_columns"]["epochs"] / typical("sft-columns"),
        "sft_rows_examples_per_s": sft_example_count(rep0 / "data.jsonl", "rows", split)
        * cfg["sft_rows"]["epochs"] / typical("sft-rows"),
        "rl_episodes_per_s": ppo["rollout_episodes_per_iter"] * (ppo["iterations"] + 1)
        / typical("train-rl"),
        "reduce_inst_per_s": eval_n / typical("reduce"),
        "qa_full_answers_per_s": eval_n / typical("qa-full"),
        "qa_pred_answers_per_s": eval_n / typical("qa-predicted"),
        "report_inst_per_s": eval_n / typical("report"),
        "col_recall": report["recall"],
        "qa_pred_accuracy": qa_report["overall_accuracy"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values


def layer_metrics(summaries: list[dict], untraced: list[dict], traced: list[dict]) -> tuple[dict, list]:
    """Per-layer values from the traced repeats' summaries; also the absent names."""
    base = tracing.base_name
    spanned, counts = summaries[0]["spans"], summaries[0]["counts"]

    def total(name, field):
        return statistics.median(
            sum(e[field] for k, e in s["spans"].items() if base(k) == name) for s in summaries)

    def present(name):
        return any(base(k) == name for k in list(spanned) + list(counts))

    def in_stage(entries, name, stage):
        return sum(e["roots"].get(f"cli.{stage}", 0)
                   for k, e in entries.items() if base(k) == name)

    values: dict[str, float] = {}
    absent: list[str] = []
    for fn in SPANNED + SELF_ONLY:
        if not present(fn):
            absent.append(fn)
        if fn in SPANNED:
            values[f"{fn}.calls"] = total(fn, "calls")
        values[f"{fn}.self_s"] = total(fn, "self_s")

    from_annotate = "tables.project@annotate"
    values["tables.project.from_annotate.calls"] = statistics.median(
        s["spans"].get(from_annotate, {"calls": 0})["calls"] for s in summaries)
    values["tables.project.from_annotate.self_s"] = statistics.median(
        s["spans"].get(from_annotate, {"self_s": 0.0})["self_s"] for s in summaries)
    if from_annotate not in spanned:
        absent.append(from_annotate)

    emb = sum(e["calls"] for k, e in counts.items() if base(k) == "policy.mean_embedding")
    if not emb:
        absent.append("policy.mean_embedding")
    values["policy.mean_embedding.calls"] = emb
    emb_rl = in_stage(counts, "policy.mean_embedding", "train-rl")
    episodes_rl = in_stage(spanned, "policy.sample_episode", "train-rl")
    values["policy.mean_embedding.per_episode"] = emb_rl / episodes_rl if episodes_rl else 0.0
    parses = in_stage(spanned, "sql.parse_sql", "annotate")
    annotated = in_stage(spanned, "annotate.annotate_instance", "annotate")
    values["sql.parse_sql.per_annotated_inst"] = parses / annotated if annotated else 0.0

    for layer in tracing.LAYERS:
        vals = [sum(e["self_s"] for k, e in s["spans"].items() if k.split(".")[0] == layer)
                for s in summaries]
        values[f"layer.{layer}.self_s"] = statistics.median(vals)
    shares = [sum(r["layer_self_s"] for r in s["roots"]) / sum(r["dur_s"] for r in s["roots"])
              for s in summaries]
    values["trace.layer_self_share"] = statistics.median(shares)
    values["trace.overhead_s"] = (statistics.median(r["pipeline_s"] for r in traced)
                                  - statistics.median(r["pipeline_s"] for r in untraced))
    return values, absent


# ---------------------------------------------------------------------------
# Entry point


def environment(seed: int) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "seed": seed}


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False,
        out=sys.stdout) -> dict:
    """Set up, measure, check; returns the result object (the last output line)."""
    from tabreduce import cli, llm

    cfg = WORKLOADS[workload]
    if small:
        cfg = tiny(cfg)
    base = WORK / f"{workload}{'-tiny' if small else ''}" / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    attempted = failed = 0
    notes: list[str] = []

    # set-up, three times; every round must produce the same inputs
    setup_times, setup_walls, setup_digests = [], [], []
    for k in range(3):
        with on_this_core():
            (runs, bad), t, wall = timed(lambda: set_up(cli, cfg, seed, base / f"inputs-{k}"))
        attempted += runs
        failed += bad
        setup_times.append(t)
        setup_walls.append(wall)
        setup_digests.append(digest(base / f"inputs-{k}", ["."]))
    setup_digests = [{k: v for k, v in d.items() if not k.endswith(".log")} for d in setup_digests]
    if any(d != setup_digests[0] for d in setup_digests[1:]):
        failed += 1
        notes.append("set-up outputs differ between rounds")
    for k in (1, 2):
        shutil.rmtree(base / f"inputs-{k}", ignore_errors=True)
    inputs = base / "inputs-0"
    trained = inputs / "trained" if "trained" in cfg else None
    eval_path = inputs / "long.jsonl" if trained else None

    reps: list[dict] = []
    summaries: list[dict] = []
    reference: dict[str, dict] = {}
    begin = time.perf_counter()
    while True:
        k = len(reps)
        traced = trace and k % 2 == 1
        rep = base / f"rep-{k}"
        argv = stage_argv(cfg, seed, rep, inputs, trained)
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
        started = time.perf_counter()
        try:
            result = run_pipeline(cli, argv, rep, tracer)
        finally:
            if traced:
                tracing.uninstall(undo)
        result.update(traced=traced, wall_s=time.perf_counter() - started)
        reps.append(result)
        if tracer is not None:
            summaries.append(tracing.summarize(tracer))
            tracing.write(tracer, base / "spans.json")

        for stage, rc in result["rcs"].items():
            attempted += 1
            hashes = digest(rep, OUTPUTS[stage])
            if rc != 0:
                failed += 1
                notes.append(f"repeat {k}: {stage} exited {rc} (see {rep / (stage + '.log')})")
            elif k == 0:
                reference[stage] = hashes
            elif stage in reference and hashes != reference[stage]:
                failed += 1
                diff = sorted(f for f in hashes if hashes[f] != reference[stage].get(f))
                notes.append(f"repeat {k}: {stage} output differs from repeat 0: {', '.join(diff)}")
        if k == 0 and all(rc == 0 for rc in result["rcs"].values()) and len(result["rcs"]) == len(STAGES):
            for stage, problem in check_outputs(
                    cfg, rep, eval_path or rep / "data.jsonl", llm.QA_PROMPT_TEMPLATE).items():
                failed += 1
                notes.append(f"{stage} output is wrong: {problem}")
        if k > 0:
            shutil.rmtree(rep, ignore_errors=True)

        elapsed = time.perf_counter() - begin
        typical = statistics.median(r["wall_s"] for r in reps)
        enough = len(reps) >= 2 and (not trace or any(r["traced"] for r in reps))
        if enough and elapsed + typical > seconds:
            break

    complete = [r for r in reps if len(r["rcs"]) == len(STAGES) and all(v == 0 for v in r["rcs"].values())]
    untraced = [r for r in complete if not r["traced"]]
    traced_reps = [r for r in complete if r["traced"]]
    if not untraced or (trace and not traced_reps):
        for note in notes:
            print(f"FAIL {note}", file=out)
        raise SystemExit("no complete repeat; nothing to report")

    rep0 = base / "rep-0"
    eval_n = len(read_jsonl(eval_path or rep0 / "data.jsonl"))
    e2e = end_to_end(cfg, untraced, rep0, eval_n, statistics.median(setup_times))
    e2e_spread = {"setup_s": quartiles(setup_times),
                  "pipeline_s": quartiles([r["pipeline_s"] for r in untraced])}
    env = environment(seed)

    print(f"workload {workload} seed {seed}: {len(untraced)} untraced and {len(traced_reps)} traced "
          f"repeats in {time.perf_counter() - begin:.1f} s; {attempted} stage runs, {failed} failed",
          file=out)
    print(f"environment {json.dumps(env, sort_keys=True)}", file=out)
    print(f"stage seconds at reference host speed over {len(untraced)} untraced repeats, "
          "and the median wall time:", file=out)
    for stage in STAGES:
        q1, q2, q3 = quartiles([r["times"][stage] for r in untraced])
        wall = statistics.median(r["walls"][stage] for r in untraced)
        print(f"  stage {stage:13s} median {q2:8.4f} s  q1 {q1:8.4f}  q3 {q3:8.4f}  wall {wall:8.4f}",
              file=out)
    e2e["failed_op_share"] = failed / attempted
    for name, unit, better in END_TO_END + PRINTED_ONLY:
        extra = ""
        if name in e2e_spread:
            q1, _, q3 = e2e_spread[name]
            extra = f"  q1 {q1:.4f}  q3 {q3:.4f}"
        print(f"  {name:26s} {e2e[name]:12.4f} {unit:6s} ({better} is better){extra}", file=out)
    for note in notes:
        print(f"FAIL {note}", file=out)

    doc = {"workload": workload, "seed": seed, "environment": env, "tiny": small,
           "setup_times_s": setup_times, "setup_walls_s": setup_walls, "repeats": reps,
           "end_to_end": e2e, "notes": notes}
    if trace:
        values, absent = layer_metrics(summaries, untraced, traced_reps)
        print("per-layer (traced repeats; one thread, no queues, so there is no wait time):",
              file=out)
        for name, unit in per_layer_names():
            print(f"  {name:44s} {values[name]:14.6f} {unit}", file=out)
        stage_s = statistics.median(sum(r["dur_s"] for r in s["roots"]) for s in summaries)
        for layer in tracing.LAYERS:
            layer_s = values[f"layer.{layer}.self_s"]
            print(f"  layer {layer:9s} {layer_s:8.4f} s, {layer_s / stage_s:6.1%} of traced stage time",
                  file=out)
        for root in summaries[0]["roots"]:
            cover = root["layer_self_s"] / root["dur_s"]
            flag = "" if cover >= 0.5 else "  LOW: layers explain less than half"
            print(f"  {root['name']:18s} {root['dur_s']:8.4f} s, layer self time {cover:6.1%}{flag}",
                  file=out)
        for name in absent:
            print(f"  absent: {name} (renamed or removed; reported as 0)", file=out)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
        doc.update(per_layer=values, absent=absent, stage_roots=summaries[0]["roots"])
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tabreduce" / "cli.py").is_file():
        print(f"error: no tabreduce sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
