"""Acceptance suite: one test per criterion, one PASS line each.

The training-based criteria run the real pipeline at desk scale with fixed
seeds; they take a few minutes combined.  Report lines go to stdout so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist: each
criterion prints its measured numbers before its asserts, so a failing run
shows them too, and a PASS line after them.
"""

import itertools
import json
import random
import statistics
import time

import numpy as np
import pytest

from tabreduce import annotate, cli, dataio, llm, metrics, policy, sql, tasks, training
from tabreduce.tables import Reduction, project, row_token_counts

from test_sql import naive_execute, random_query, random_table


def report(criterion, text):
    """Print what ``criterion`` measured; call it before the asserts on it."""
    print(f"\nACCEPTANCE {criterion}: {text}")


def passed(criterion):
    print(f"ACCEPTANCE {criterion}: PASS")


@pytest.fixture(scope="module")
def dataset_2000():
    return dataio.generate_synthetic(dataio.SynthConfig(n_instances=2000, seed=11))


@pytest.fixture(scope="module")
def splits_2000(dataset_2000):
    return dataio.split(dataset_2000, (0.8, 0.1, 0.1), seed=0)


def _yields_gold(ast, table, gold):
    """Whether the query over the whole of ``table`` yields the gold answers."""
    try:
        return sql.answers_match(sql.execute(ast, table), gold)
    except sql.ExecutionError:
        return False


def test_01_annotator_sufficiency_and_minimality():
    start = time.time()
    instances = dataio.generate_synthetic(dataio.SynthConfig(n_instances=500, seed=1))
    checked = 0
    for inst in instances:
        assert inst.annotation_status == annotate.STATUS_OK
        ast = sql.parse_sql(inst.sql)
        gold = list(inst.answers)
        cols, rows = inst.relevant_columns, inst.relevant_rows
        reduced = project(inst.table, Reduction(cols, rows))
        assert sql.answers_match(sql.execute(ast, reduced), gold), inst.id
        for col in cols:
            smaller = project(inst.table, Reduction(cols - {col}, rows))
            assert not _yields_gold(ast, smaller, gold), inst.id
        for row in rows:
            smaller = project(inst.table, Reduction(cols, rows - {row}))
            assert not _yields_gold(ast, smaller, gold), inst.id
        checked += 1
    elapsed = time.time() - start
    report(1, f"sufficiency and 1-minimality on {checked}/500 instances in {elapsed:.0f}s")
    assert checked == 500
    assert elapsed < 120
    passed(1)


def _sufficient(ast, table, gold, cols, rows):
    reduced = project(table, Reduction(frozenset(cols), frozenset(rows)))
    return _yields_gold(ast, reduced, gold)


def _minimal_sets(ast, table, gold, universe, fix_cols=None):
    sufficient = []
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            if fix_cols is None:
                ok = _sufficient(ast, table, gold, frozenset(combo), frozenset(range(table.n_rows)))
            else:
                ok = _sufficient(ast, table, gold, fix_cols, frozenset(combo))
            if ok:
                sufficient.append(frozenset(combo))
    return [s for s in sufficient if not any(o < s for o in sufficient)]


def test_02_annotator_oracle_equivalence():
    start = time.time()
    rng = random.Random(77)
    checked = 0
    while checked < 200:
        cfg = dataio.SynthConfig(
            n_instances=1, columns_range=(2, 5), rows_range=(1, 6),
            value_vocab_size=4, numeric_range=(1, 6),
            seed=rng.randint(0, 10**9), annotate=False,
        )
        inst = dataio.generate_synthetic(cfg)[0]
        annotated = annotate.annotate_instance(inst, "both")
        if annotated.annotation_status != annotate.STATUS_OK:
            continue
        cols, rows = annotated.relevant_columns, annotated.relevant_rows
        ast = sql.parse_sql(inst.sql)
        gold = list(inst.answers)
        col_sets = _minimal_sets(ast, inst.table, gold, range(inst.table.n_columns))
        assert cols in col_sets, f"{inst.sql}: {sorted(cols)} not minimal"
        row_sets = _minimal_sets(ast, inst.table, gold, range(inst.table.n_rows), fix_cols=cols)
        assert rows in row_sets, f"{inst.sql}: {sorted(rows)} not minimal"
        checked += 1
    elapsed = time.time() - start
    report(2, f"greedy equals a brute-force minimal set on {checked}/200 tables in {elapsed:.0f}s")
    assert elapsed < 300
    passed(2)


def test_03_sql_differential():
    rng = random.Random(4242)
    agreements = 0
    for _ in range(1000):
        table = random_table(rng)
        query = random_query(rng, table)
        ast = sql.parse_sql(query)
        try:
            expected = ("ok", naive_execute(ast, table))
        except sql.ExecutionError as exc:
            expected = ("error", exc.kind)
        try:
            actual = ("ok", sql.execute(ast, table))
        except sql.ExecutionError as exc:
            actual = ("error", exc.kind)
        assert actual == expected, f"{query}\n{table}"
        agreements += 1
    report(3, f"engine matches the naive evaluator on {agreements}/1000 random queries")
    passed(3)


def _fixture_instance(rng):
    words = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"]
    vocab = policy.Vocabulary(tuple(words))
    n_cands = rng.integers(2, 5)
    enc = policy.EncodedInstance(
        question_ids=tuple(int(rng.integers(1, len(words) + 1)) for _ in range(4)),
        candidate_ids=tuple(
            tuple(int(rng.integers(0, len(words) + 1)) for _ in range(2))
            for _ in range(n_cands)
        ),
    )
    k = int(rng.integers(1, n_cands + 1))
    gold = tuple(sorted(rng.choice(n_cands, size=k, replace=False).tolist())) + (policy.STOP,)
    params = policy.init_params(vocab, dim=4, seed=int(rng.integers(0, 2**31)))
    return params, enc, gold


def test_04_gradient_fidelity():
    rng = np.random.default_rng(123)
    worst = max(policy.grad_check(*_fixture_instance(rng), epsilon=1e-5) for _ in range(20))

    params, enc, gold = _fixture_instance(rng)

    def corrupted(p):
        loss, grads = policy.sft_loss_and_grad(p, [enc], policy.pad_actions([gold]))
        grads["score_q"] = grads["score_q"] * 1.5 + 0.01
        return loss, grads

    negative = policy.finite_difference_error(params, corrupted, epsilon=1e-5)
    report(4, f"max rel error {worst:.2e} over 20 fixtures; corrupted gradient flagged at {negative:.2e}")
    assert worst < 1e-4
    assert negative > 1e-2
    passed(4)


def test_05_beta_controller_exact():
    cfg = training.PpoConfig()
    on_target = training.update_beta(0.2, cfg.kl_target, cfg)
    doubled = training.update_beta(0.2, 2 * cfg.kl_target, cfg)
    zeroed = training.update_beta(0.2, 0.0, cfg)
    report(5, f"0.2 -> ({on_target}, {doubled:.3f}, {zeroed:.3f}) for on-target/double/zero KL")
    assert on_target == 0.2
    assert doubled == 0.2 * (1.0 + 0.1 * 0.2)
    assert abs(doubled - 0.204) < 1e-15
    assert zeroed == 0.2 * (1.0 - 0.1 * 0.2)
    assert abs(zeroed - 0.196) < 1e-15
    passed(5)


def test_06_top_p_mask_properties():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 14))
        probs = rng.dirichlet(np.ones(n) * float(rng.uniform(0.3, 3.0)))
        p = float(rng.uniform(0.05, 1.0))
        masked = policy.apply_top_p_mask(probs, p)
        assert abs(masked.sum() - 1.0) < 1e-9
        assert int(np.argmax(masked)) == int(np.argmax(probs))
        support = masked > 0
        kept = [i for i in range(n) if support[i]]
        kept_mass = probs[support].sum()
        assert kept_mass >= p - 1e-12 or support.all()
        weakest = min(kept, key=lambda i: (probs[i], -i))
        assert kept_mass - probs[weakest] < p
        excluded = [i for i in range(n) if not support[i]]
        if excluded:
            assert max(probs[i] for i in excluded) <= min(probs[i] for i in kept) + 1e-12
    report(6, "minimal descending prefix, renormalization, argmax preserved on 1000 distributions")
    passed(6)


def test_07_sft_learning(splits_2000):
    start = time.time()
    train, valid, test = splits_2000
    usable = tasks.trainable(train, "columns")
    vocab = tasks.build_vocab(usable, "columns")
    params = policy.init_params(vocab, dim=64, seed=0)
    best, _ = training.train_sft(
        params, train, valid,
        training.SftConfig(epochs=15, learning_rate=2e-2, seed=0), "columns",
    )
    recall = tasks.greedy_recall(
        best, *tasks.labeled_encodings(vocab, tasks.trainable(test, "columns"), "columns")
    )
    elapsed = time.time() - start
    report(7, f"column SFT held-out recall {recall:.4f} (needs >= 0.95) in {elapsed:.0f}s")
    assert recall >= 0.95
    assert elapsed < 600
    passed(7)


def test_08_rl_improvement(splits_2000):
    start = time.time()
    train, valid, test = splits_2000
    usable = tasks.trainable(train, "columns")
    vocab = tasks.build_vocab(usable, "columns")
    test_cols = tasks.labeled_encodings(vocab, tasks.trainable(test, "columns"), "columns")
    deltas = []
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        idx = rng.permutation(len(train))[: len(train) // 10]
        degraded = [train[i] for i in idx]
        sft, _ = training.train_sft(
            policy.init_params(vocab, dim=64, seed=seed), degraded, valid,
            training.SftConfig(epochs=12, learning_rate=2e-2, seed=seed), "columns",
        )
        recall_sft = tasks.greedy_recall(sft, *test_cols)
        rl, _ = training.train_rl(sft, train, valid, training.PpoConfig(seed=seed), "columns")
        recall_rl = tasks.greedy_recall(rl, *test_cols)
        deltas.append(recall_rl - recall_sft)
    elapsed = time.time() - start
    median = statistics.median(deltas)
    report(8, f"median held-out recall gain {median:+.4f} (needs >= 0.05) over 5 seeds "
              f"(deltas {[round(d, 3) for d in deltas]}) in {elapsed:.0f}s")
    assert median >= 0.05
    assert elapsed < 1800
    passed(8)


def test_09_kl_control(splits_2000):
    train, valid, _ = splits_2000
    usable = tasks.trainable(train, "columns")
    vocab = tasks.build_vocab(usable, "columns")
    # final checkpoint of a moderately-sharp SFT run: the regime the
    # kl_target default was calibrated for
    sft, _ = training.train_sft(
        policy.init_params(vocab, dim=64, seed=0), train, [],
        training.SftConfig(epochs=8, learning_rate=1e-2, seed=0), "columns",
    )
    cfg = training.PpoConfig()
    lo, hi = 0.5 * cfg.kl_target, 1.5 * cfg.kl_target
    in_band_runs = 0
    trajectories = []
    lengths = []
    for seed in range(5):
        _, history = training.train_rl(sft, train, valid, training.PpoConfig(seed=seed), "columns")
        kls = [h["measured_kl"] for h in history if "measured_kl" in h]
        lengths.append(len(kls))
        trajectories.append([round(k, 3) for k in kls[5:]])
        if all(lo <= k <= hi for k in kls[5:]):
            in_band_runs += 1
    report(9, f"{in_band_runs}/5 runs (needs >= 4) keep iterations 6-10 KL in [{lo}, {hi}]; "
              f"late KLs {trajectories}")
    assert lengths == [10] * 5
    assert in_band_runs >= 4
    passed(9)


def test_10_length_bucket_stability():
    start = time.time()
    instances = dataio.generate_synthetic(dataio.SynthConfig(n_instances=3000, seed=21))
    train, valid, test = dataio.split(instances, (0.8, 0.1, 0.1), seed=0)

    vocab_c = tasks.build_vocab(tasks.trainable(train, "columns"), "columns")
    col_params, _ = training.train_sft(
        policy.init_params(vocab_c, 64, 0), train, valid,
        training.SftConfig(epochs=15, learning_rate=2e-2, seed=0), "columns",
    )
    vocab_r = tasks.build_vocab(tasks.trainable(train, "rows"), "rows")
    row_params, _ = training.train_sft(
        policy.init_params(vocab_r, 96, 0), train, valid,
        training.SftConfig(epochs=30, learning_rate=3e-2, seed=0), "rows",
    )

    test_ok = [i for i in test if i.annotation_status == annotate.STATUS_OK]
    budget = max(1, max(map(sum, row_token_counts([i.table for i in instances]))) // 4)
    mock_cfg = llm.MockLlmConfig(budget_tokens=budget)
    quartiles = np.quantile(list(map(sum, row_token_counts([i.table for i in test_ok]))), [0.25, 0.5, 0.75])
    boundaries = [0] + [int(q) for q in quartiles]
    assignments = metrics.bucket_by_length(test_ok, boundaries)

    def bucket_accuracy(reductions):
        per_bucket = {k: [] for k in range(len(boundaries))}
        contexts = [i.table if r is None else project(i.table, r) for i, r in zip(test_ok, reductions)]
        answers = llm.mock_complete_many(
            [(i.question, context, counts, i.sql, i.answers)
             for i, context, counts in zip(test_ok, contexts, row_token_counts(contexts))],
            mock_cfg,
        )
        for inst, k, answer in zip(test_ok, assignments, answers):
            per_bucket[k].append(metrics.downstream_accuracy([answer], [list(inst.answers)]))
        return [float(np.mean(v)) for v in per_bucket.values()]

    def policy_reductions():
        cols = policy.greedy_decode(
            col_params, [tasks.encode(vocab_c, inst, "columns") for inst in test_ok]
        ).selected
        with_cols = [k for k, c in enumerate(cols) if c]
        rows = [frozenset()] * len(test_ok)
        decoded = policy.greedy_decode(row_params, [
            tasks.encode(vocab_r, test_ok[k], "rows", context_columns=cols[k]) for k in with_cols
        ])
        for k, r in zip(with_cols, decoded.selected):
            rows[k] = r
        return [Reduction(c, r) for c, r in zip(cols, rows)]

    full = bucket_accuracy([None] * len(test_ok))
    gold = bucket_accuracy([Reduction(inst.relevant_columns, inst.relevant_rows) for inst in test_ok])
    pred = bucket_accuracy(policy_reductions())
    elapsed = time.time() - start

    full_drop = full[0] - full[-1]
    gold_spread = max(gold) - min(gold)
    pred_spread = max(pred) - min(pred)
    report(10, f"full drop {full_drop:.3f} (needs >= 0.30); gold spread {gold_spread:.3f} "
               f"(needs <= 0.05); policy spread {pred_spread:.3f} (needs <= 0.10) "
               f"(full {[round(a, 3) for a in full]}, gold {[round(a, 3) for a in gold]}, "
               f"policy {[round(a, 3) for a in pred]}) in {elapsed:.0f}s")
    assert full_drop >= 0.30
    assert gold_spread <= 0.05
    assert pred_spread <= 0.10
    assert elapsed < 300
    passed(10)


def test_11_wire_protocol_goldens(tmp_path):
    from pathlib import Path

    fixtures = Path(__file__).parent / "fixtures"
    cfg = llm.LlmConfig(endpoint="https://api.example.test", model="test-model", max_tokens=64)
    url, headers, body = llm.build_request([("user", "hi")], cfg)
    golden = (fixtures / "chat_request.golden.json").read_bytes()
    assert body == golden
    assert url == "https://api.example.test/v1/chat/completions"
    response = (fixtures / "chat_response.golden.json").read_bytes()
    assert llm.extract_completion_text(response) == "Beijing"

    calls = []
    script = [(429, b""), (429, b""), (200, json.dumps(
        {"choices": [{"message": {"content": "done"}}]}).encode())]

    def transport(u, h, b):
        calls.append(u)
        return script[len(calls) - 1]

    sleeps = []
    out = llm.complete([("user", "x")], cfg, transport=transport, sleep=sleeps.append)
    assert out == "done"
    assert len(calls) == 3
    assert sleeps == [cfg.backoff_base, cfg.backoff_base * 2]

    auth_calls = []

    def reject(u, h, b):
        auth_calls.append(u)
        return 401, b""

    with pytest.raises(llm.AuthError):
        llm.complete([("user", "x")], cfg, transport=reject, sleep=lambda s: None)
    assert len(auth_calls) == 1
    report(11, "request/response bytes match goldens; 429x2-then-200 succeeds; 401 never retries")
    passed(11)


def _pipeline(run_root):
    run_root.mkdir(parents=True, exist_ok=True)
    data = run_root / "data.jsonl"
    raw = run_root / "raw.jsonl"
    sft_dir = run_root / "sft"
    rl_dir = run_root / "rl"
    report_path = run_root / "report.json"
    sft_cfg = run_root / "sft.json"
    sft_cfg.write_text(json.dumps({"epochs": 3, "learning_rate": 0.02, "seed": 5}))
    ppo_cfg = run_root / "ppo.json"
    ppo_cfg.write_text(json.dumps({
        "iterations": 3, "rollout_episodes_per_iter": 32,
        "minibatch_episodes": 8, "epochs_per_iter": 2, "eval_every": 2, "seed": 5,
    }))
    assert cli.main(["synth", "--n", "120", "--seed", "9", "--out", str(raw),
                     "--rows", "4,12", "--no-annotate"]) == 0
    assert cli.main(["annotate", "--in", str(raw), "--out", str(data)]) == 0
    assert cli.main(["sft", "--data", str(data), "--target", "columns",
                     "--out", str(sft_dir), "--config", str(sft_cfg), "--dim", "16"]) == 0
    assert cli.main(["train-rl", "--data", str(data), "--target", "columns",
                     "--init", str(sft_dir / "model.json"), "--out", str(rl_dir),
                     "--config", str(ppo_cfg)]) == 0
    assert cli.main(["eval-reduce", "--data", str(data),
                     "--model", str(rl_dir / "model.json"), "--report", str(report_path)]) == 0
    return {
        "data": data.read_bytes(),
        "sft_metrics": (sft_dir / "metrics.jsonl").read_bytes(),
        "rl_metrics": (rl_dir / "metrics.jsonl").read_bytes(),
        "sft_model": (sft_dir / "model.json").read_bytes(),
        "rl_model": (rl_dir / "model.json").read_bytes(),
        "report": report_path.read_bytes(),
    }


def test_12_pipeline_reproducibility(tmp_path):
    first = _pipeline(tmp_path / "run1")
    second = _pipeline(tmp_path / "run2")
    for key in first:
        assert first[key] == second[key], f"{key} differs between runs"
    report(12, "synth -> annotate -> sft -> train-rl -> eval-reduce byte-identical across reruns")
    passed(12)
