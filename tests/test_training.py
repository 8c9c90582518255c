import json
import math

import numpy as np
import pytest

from tabreduce import dataio, policy, tasks, training
from tabreduce.errors import ConfigError, NumericalError
from tabreduce.training import (
    Adam,
    PpoConfig,
    Rollout,
    SftConfig,
    TrainState,
    collect_rollouts,
    compute_advantages,
    train_rl,
    train_sft,
    update_beta,
)


def dataset(n=60, seed=3, rows=(4, 10)):
    cfg = dataio.SynthConfig(n_instances=n, rows_range=rows, seed=seed)
    return dataio.generate_synthetic(cfg)


class TestConfigs:
    def test_ppo_defaults_match_contract(self):
        cfg = PpoConfig()
        assert cfg.clip_epsilon == 0.2
        assert cfg.epochs_per_iter == 4
        assert cfg.minibatch_episodes == 32
        assert cfg.rollout_episodes_per_iter == 512
        assert cfg.learning_rate == 1e-3
        assert cfg.discount == 1.0
        assert cfg.value_loss_coef == 0.5
        assert cfg.entropy_coef == 0.01
        assert cfg.beta0 == 0.2
        assert cfg.k_beta == 0.1
        assert cfg.kl_target == 0.05
        assert cfg.top_p == 0.9
        assert cfg.iterations == 10
        assert cfg.eval_every == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clip_epsilon": 0.0},
            {"clip_epsilon": 1.0},
            {"top_p": 0.0},
            {"top_p": 1.2},
            {"iterations": 0},
            {"kl_target": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            PpoConfig(**kwargs)

    @pytest.mark.parametrize(
        "config_cls, kwargs, message",
        [
            (SftConfig, {"epochs": "2"}, "epochs must be an integer"),
            (SftConfig, {"learning_rate": None}, "learning_rate must be a finite number"),
            (SftConfig, {"seed": "0"}, "seed must be an integer"),
            (SftConfig, {"minibatch": 2.0}, "minibatch must be an integer"),
            (PpoConfig, {"iterations": True}, "iterations must be an integer"),
            (PpoConfig, {"top_p": "0.9"}, "top_p must be a finite number"),
            (PpoConfig, {"learning_rate": float("nan")}, "learning_rate must be a finite number"),
        ],
    )
    def test_wrong_field_type_rejected(self, config_cls, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            config_cls(**kwargs)

    def test_numeric_kinds_accepted(self):
        assert SftConfig(epochs=np.int64(2), learning_rate=1).epochs == 2
        assert PpoConfig(top_p=np.float64(0.5), seed=np.int32(3)).top_p == 0.5


class TestUpdateBeta:
    def test_on_target_unchanged(self):
        cfg = PpoConfig()
        assert update_beta(0.2, cfg.kl_target, cfg) == 0.2

    def test_double_target(self):
        cfg = PpoConfig()
        out = update_beta(0.2, 2 * cfg.kl_target, cfg)
        assert out == 0.2 * (1.0 + 0.1 * 0.2)
        assert abs(out - 0.204) < 1e-15

    def test_zero_kl(self):
        cfg = PpoConfig()
        out = update_beta(0.2, 0.0, cfg)
        assert out == 0.2 * (1.0 - 0.1 * 0.2)
        assert abs(out - 0.196) < 1e-15

    def test_error_clipped_both_sides(self):
        cfg = PpoConfig()
        assert update_beta(1.0, 100.0, cfg) == pytest.approx(1.02)
        assert update_beta(1.0, -100.0, cfg) == pytest.approx(0.98)

    def test_beta_stays_positive_over_long_horizon(self):
        cfg = PpoConfig()
        beta = cfg.beta0
        for kl in [0.0, 1.0] * 200:
            beta = update_beta(beta, kl, cfg)
            assert beta > 0


class TestAdvantages:
    def rollout_from(self, traces, step_rewards, encs):
        return Rollout(encs=encs, traces=traces, step_rewards=step_rewards, beta=0.2)

    def make_trace(self, actions, values, logps=None):
        n = len(actions)
        logps = logps or [0.0] * n
        return policy.EpisodeTrace(
            actions=tuple(actions),
            logp_pi=tuple(logps),
            logp_ref=tuple(logps),
            values=tuple(values),
            selected=frozenset(a for a in actions if a != policy.STOP),
        )

    def test_single_step_advantage(self):
        enc = policy.EncodedInstance((1,), ())
        trace = self.make_trace([policy.STOP], [0.5]).with_task_reward(2.0)
        rollout = self.rollout_from([trace], [np.array([2.0])], [enc])
        examples = compute_advantages(rollout)
        # one step: raw advantage 2.0 - 0.5, normalized to 0 (single sample)
        assert examples[0].returns[0] == pytest.approx(2.0)
        assert examples[0].advantages[0] == pytest.approx(0.0)

    def test_constant_rewards_normalize_to_zero(self):
        enc = policy.EncodedInstance((1,), ())
        traces = [self.make_trace([policy.STOP], [0.0]).with_task_reward(1.0) for _ in range(4)]
        rollout = self.rollout_from(traces, [np.array([1.0])] * 4, [enc] * 4)
        examples = compute_advantages(rollout)
        for ex in examples:
            assert np.allclose(ex.advantages, 0.0)

    def test_two_step_hand_computed(self):
        enc = policy.EncodedInstance((1,), ((2,),))
        trace = self.make_trace([0, policy.STOP], [0.25, -0.5])
        rewards = np.array([-0.1, 3.0])
        rollout = self.rollout_from([trace], [rewards], [enc])
        examples = compute_advantages(rollout)
        assert examples[0].returns.tolist() == pytest.approx([2.9, 3.0])
        raw = np.array([2.9 - 0.25, 3.0 + 0.5])
        normalized = (raw - raw.mean()) / (raw.std() + 1e-8)
        assert examples[0].advantages == pytest.approx(normalized)

    def test_discount_applied(self):
        enc = policy.EncodedInstance((1,), ((2,),))
        trace = self.make_trace([0, policy.STOP], [0.0, 0.0])
        rollout = self.rollout_from([trace], [np.array([1.0, 1.0])], [enc])
        examples = compute_advantages(rollout, discount=0.5)
        assert examples[0].returns.tolist() == pytest.approx([1.5, 1.0])

    def test_empty_batch(self):
        assert compute_advantages(self.rollout_from([], [], [])) == []


def build_state(instances, target="columns", seed=0, beta=0.2):
    usable = tasks.trainable(instances, target)
    vocab = tasks.build_vocab(usable, target)
    params = policy.init_params(vocab, dim=16, seed=seed)
    encs = [tasks.encode(vocab, inst, target) for inst in usable]
    golds = [tasks.gold_items(inst, target) for inst in usable]
    state = TrainState(
        current=params.copy(),
        reference=params.copy(),
        beta=beta,
        rng=np.random.default_rng(seed),
    )
    return state, encs, golds


class TestRollouts:
    def test_zero_episodes(self):
        insts = dataset(10)
        state, encs, golds = build_state(insts)
        rollout = collect_rollouts(state, encs, golds, 0, PpoConfig(), lambda s, g: 0.0)
        assert rollout.traces == []
        assert rollout.measured_kl == 0.0

    def test_beta_zero_means_zero_step_penalties(self):
        insts = dataset(10)
        state, encs, golds = build_state(insts, beta=0.0)
        rollout = collect_rollouts(state, encs, golds, 8, PpoConfig(), lambda s, g: 1.5)
        for rewards, trace in zip(rollout.step_rewards, rollout.traces):
            assert rewards[:-1] == pytest.approx(np.zeros(len(rewards) - 1))
            assert rewards[-1] == pytest.approx(1.5)

    def test_pi_equals_theta_log_ratio_is_mask_renormalization(self):
        insts = dataset(10)
        state, encs, golds = build_state(insts)
        cfg = PpoConfig(top_p=0.9)
        rollout = collect_rollouts(state, encs, golds, 16, cfg, lambda s, g: 0.0)
        for enc, trace in zip(rollout.encs, rollout.traces):
            # with identical parameters the behavior/reference log-ratio is
            # exactly the mask's kept-mass renormalization at each step
            fw = policy.forward(state.current, [policy.build_episode(enc, trace.actions)])
            for t, (lp_pi, lp_ref) in enumerate(zip(trace.logp_pi, trace.logp_ref)):
                probs = fw.probs[0, t][fw.allowed[0, t]]  # remaining candidates, then STOP
                masked = policy.apply_top_p_mask(probs, cfg.top_p)
                kept_mass = probs[masked > 0].sum()
                assert lp_pi - lp_ref == pytest.approx(-np.log(kept_mass))

    def test_task_reward_attached(self):
        insts = dataset(10)
        state, encs, golds = build_state(insts)
        rollout = collect_rollouts(
            state, encs, golds, 4, PpoConfig(),
            lambda selected, gold: float(len(selected & gold)),
        )
        for trace in rollout.traces:
            assert trace.task_reward == float(len(trace.selected & golds_for(trace, encs, golds)))


def golds_for(trace, encs, golds):
    # recover the gold set used: rollouts pick instances by index, so accept any
    # gold consistent with the trace's candidate count; simplest is a lookup by reward
    for gold in golds:
        if float(len(trace.selected & gold)) == trace.task_reward:
            return gold
    raise AssertionError("no matching gold")


class TestSft:
    def test_empty_dataset_rejected(self):
        vocab = policy.build_vocabulary(["x"])
        params = policy.init_params(vocab, 8, 0)
        with pytest.raises(ConfigError):
            train_sft(params, [], [], SftConfig(), "columns")

    def test_loss_decreases_initially(self):
        insts = dataset(80)
        train, valid, _ = dataio.split(insts, (0.8, 0.1, 0.1), seed=0)
        usable = tasks.trainable(train, "columns")
        vocab = tasks.build_vocab(usable, "columns")
        params = policy.init_params(vocab, 16, 0)
        _, history = train_sft(params, train, valid, SftConfig(epochs=3, seed=0), "columns")
        losses = [h["loss"] for h in history]
        assert losses[0] > losses[1] > losses[2]

    def test_seed_fixed_bit_reproducible(self):
        insts = dataset(40)
        train, valid, _ = dataio.split(insts, (0.8, 0.1, 0.1), seed=0)
        usable = tasks.trainable(train, "columns")
        vocab = tasks.build_vocab(usable, "columns")
        cfg = SftConfig(epochs=2, seed=9)
        p1, h1 = train_sft(policy.init_params(vocab, 16, 1), train, valid, cfg, "columns")
        p2, h2 = train_sft(policy.init_params(vocab, 16, 1), train, valid, cfg, "columns")
        assert p1.equals(p2)
        assert h1 == h2

    def test_best_checkpoint_selected_by_valid_recall(self, tmp_path):
        insts = dataset(60)
        train, valid, _ = dataio.split(insts, (0.7, 0.2, 0.1), seed=0)
        usable = tasks.trainable(train, "columns")
        vocab = tasks.build_vocab(usable, "columns")
        run_dir = tmp_path / "run"
        best, history = train_sft(
            policy.init_params(vocab, 16, 0), train, valid,
            SftConfig(epochs=4, learning_rate=2e-2, seed=0), "columns", run_dir=str(run_dir),
        )
        # exhaustively score every saved checkpoint; best must match the max
        valid_encs = tasks.labeled_encodings(vocab, tasks.trainable(valid, "columns"), "columns")
        recalls = []
        for epoch in range(1, 5):
            ck, _ = policy.load_params(run_dir / "checkpoints" / f"epoch-{epoch}.model.json")
            recalls.append(tasks.greedy_recall(ck, *valid_encs))
        best_recall = tasks.greedy_recall(best, *valid_encs)
        assert best_recall == pytest.approx(max(recalls))

    def test_rerun_clears_old_checkpoints(self, tmp_path):
        insts = dataset(40)
        train, valid, _ = dataio.split(insts, (0.8, 0.1, 0.1), seed=0)
        vocab = tasks.build_vocab(tasks.trainable(train, "columns"), "columns")
        run_dir = tmp_path / "run"
        for epochs in (3, 1):
            train_sft(
                policy.init_params(vocab, 16, 0), train, valid,
                SftConfig(epochs=epochs, seed=0), "columns", run_dir=str(run_dir),
            )
        assert [p.name for p in (run_dir / "checkpoints").iterdir()] == ["epoch-1.model.json"]
        assert len((run_dir / "metrics.jsonl").read_text().strip().split("\n")) == 1


class TestTrainRl:
    def small_cfg(self, **kw):
        base = dict(
            iterations=4, rollout_episodes_per_iter=24, minibatch_episodes=8,
            epochs_per_iter=2, eval_every=3, seed=0,
        )
        base.update(kw)
        return PpoConfig(**base)

    def prepared(self, n=50):
        insts = dataset(n)
        train, valid, _ = dataio.split(insts, (0.8, 0.1, 0.1), seed=0)
        usable = tasks.trainable(train, "columns")
        vocab = tasks.build_vocab(usable, "columns")
        params = policy.init_params(vocab, 16, 0)
        sft, _ = train_sft(params, train, valid, SftConfig(epochs=3, seed=0), "columns")
        return sft, train, valid

    def test_reference_frozen_bit_identical(self):
        sft, train, valid = self.prepared()
        reference = sft.copy()
        train_rl(sft, train, valid, self.small_cfg(), "columns")
        assert sft.equals(reference)

    def test_eval_schedule(self):
        sft, train, valid = self.prepared()
        _, history = train_rl(sft, train, valid, self.small_cfg(iterations=10), "columns")
        eval_iters = [h["iteration"] for h in history if "valid_recall" in h]
        assert eval_iters == [3, 6, 9, 10]
        assert len(history) == 10
        assert all("beta" in h for h in history)

    def test_beta_trajectory_recorded_and_positive(self):
        sft, train, valid = self.prepared()
        _, history = train_rl(sft, train, valid, self.small_cfg(), "columns")
        betas = [h["beta"] for h in history]
        assert betas[0] == 0.2
        assert all(b > 0 for b in betas)

    def test_seed_reproducible_history(self):
        sft, train, valid = self.prepared()
        _, h1 = train_rl(sft, train, valid, self.small_cfg(), "columns")
        _, h2 = train_rl(sft, train, valid, self.small_cfg(), "columns")
        assert h1 == h2

    def test_empty_train_rejected(self):
        sft, train, valid = self.prepared()
        with pytest.raises(ConfigError):
            train_rl(sft, [], valid, self.small_cfg(), "columns")

    def test_run_dir_layout(self, tmp_path):
        sft, train, valid = self.prepared()
        run_dir = tmp_path / "rl"
        train_rl(sft, train, valid, self.small_cfg(), "columns", run_dir=str(run_dir))
        assert (run_dir / "config.json").exists()
        assert (run_dir / "metrics.jsonl").exists()
        for k in range(1, 5):
            assert (run_dir / "checkpoints" / f"iter-{k}.model.json").exists()
        lines = (run_dir / "metrics.jsonl").read_text().strip().split("\n")
        assert len(lines) == 4
        assert json.loads(lines[0])["iteration"] == 1

    def test_numerical_error_rolls_back_params_and_optimizer(self, monkeypatch):
        sft, train, valid = self.prepared()
        starts = []  # (params, optimizer, optimizer snapshot) as each update begins
        real_update = training.ppo_update

        def spy_update(params, examples, cfg, adam, rng):
            starts.append((params.copy(), adam, adam.snapshot()))
            return real_update(params, examples, cfg, adam, rng)

        real_loss = policy.ppo_loss_and_grad
        calls_in_iteration_2 = []

        def failing_loss(*args, **kwargs):
            if len(starts) == 2:
                calls_in_iteration_2.append(1)
                if len(calls_in_iteration_2) == 2:
                    raise NumericalError("injected on the second minibatch")
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(training, "ppo_update", spy_update)
        monkeypatch.setattr(policy, "ppo_loss_and_grad", failing_loss)
        # no validation set: train_rl returns the final parameters
        final, history = train_rl(sft, train, [], self.small_cfg(iterations=2), "columns")

        assert "error" not in history[0]
        assert history[1]["error"] == "numerical_rollback"
        params_at_start, adam, (t, m, v) = starts[1]
        assert final.equals(params_at_start)
        assert adam.t == t > 0
        for name in m:
            assert np.array_equal(adam.m[name], m[name])
            assert np.array_equal(adam.v[name], v[name])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_reward_rolls_back_every_iteration(self):
        # the warm start sees non-finite returns and leaves the value head
        # alone; every update then fails in the PPO loss and is rolled back
        sft, train, valid = self.prepared()
        final, history = train_rl(
            sft, train, [], self.small_cfg(iterations=3), "columns",
            reward_fn=lambda selected, gold: math.nan,
        )
        assert [h.get("error") for h in history] == ["numerical_rollback"] * 3
        assert final.equals(sft)

    def test_kl_penalty_pulls_policy_back_with_zero_task_reward(self):
        # start the policy well away from the reference; with no task signal
        # the per-step penalty should shrink measured KL in most seeded runs
        insts = dataset(60)
        train, valid, _ = dataio.split(insts, (0.8, 0.1, 0.1), seed=0)
        usable = tasks.trainable(train, "columns")
        vocab = tasks.build_vocab(usable, "columns")
        sft, _ = train_sft(
            policy.init_params(vocab, 16, 0), train, valid,
            SftConfig(epochs=8, learning_rate=2e-2, seed=0), "columns",
        )
        # continued training on half the data drifts the policy while it
        # stays diffuse enough for masked sampling to explore
        drifted, _ = train_sft(
            sft, usable[: len(usable) // 2], [],
            SftConfig(epochs=6, learning_rate=2e-2, seed=1), "columns",
        )
        wins = 0
        for seed in range(5):
            cfg = PpoConfig(
                iterations=8, rollout_episodes_per_iter=128, minibatch_episodes=16,
                epochs_per_iter=2, entropy_coef=0.0, seed=seed,
            )
            _, history = train_rl(
                drifted, train, valid, cfg, "columns",
                reward_fn=lambda s, g: 0.0, reference=sft,
            )
            kls = [h["measured_kl"] for h in history if "measured_kl" in h]
            assert kls[0] > 0.02  # the drift produced real divergence
            if kls[-1] < kls[0]:
                wins += 1
        assert wins >= 4


class TestAdam:
    def test_moves_toward_minimum(self):
        vocab = policy.build_vocabulary(["a b c"])
        params = policy.PolicyParams.zeros(vocab, 4)
        adam = Adam(params, 0.1)
        target = np.ones_like(params.score_q)
        for _ in range(200):
            grads = {n: np.zeros_like(a) for n, a in params.arrays().items()}
            grads["score_q"] = 2 * (params.score_q - target)
            adam.step(params, grads)
        assert np.allclose(params.score_q, target, atol=1e-2)
