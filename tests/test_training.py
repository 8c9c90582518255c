import copy
import json
import math

import numpy as np
import pytest

from tabreduce import dataio, policy, rewards, tasks, training
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
from test_policy_batched import mixed_batch, params_equal, random_instance, random_params, traces


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
    def rollout_from(self, encs, actions, values, step_rewards):
        """A rollout of episodes given per episode; logp_pi = logp_ref = 0."""
        width = max(len(a) for a in actions)
        pad = lambda rows: np.array([list(r) + [0.0] * (width - len(r)) for r in rows])
        episodes = policy.SampledEpisodes(
            actions=policy.pad_actions(actions), logp_pi=pad([[0.0] * len(a) for a in actions]),
            logp_ref=pad([[0.0] * len(a) for a in actions]), values=pad(values),
            steps=np.array([len(a) for a in actions]),
        )
        task = np.array([r[-1] for r in step_rewards])
        return Rollout(policy.count_matrices(encs), episodes, task, pad(step_rewards))

    def test_single_step_advantage(self):
        enc = policy.EncodedInstance((1,), ())
        rollout = self.rollout_from([enc], [(policy.STOP,)], [[0.5]], [[2.0]])
        batch = compute_advantages(rollout)
        # one step: raw advantage 2.0 - 0.5, normalized to 0 (single sample)
        assert batch.returns[0, 0] == pytest.approx(2.0)
        assert batch.advantages[0, 0] == pytest.approx(0.0)

    def test_constant_rewards_normalize_to_zero(self):
        enc = policy.EncodedInstance((1,), ())
        rollout = self.rollout_from([enc] * 4, [(policy.STOP,)] * 4, [[0.0]] * 4, [[1.0]] * 4)
        assert np.allclose(compute_advantages(rollout).advantages, 0.0)

    def test_two_step_hand_computed(self):
        enc = policy.EncodedInstance((1,), ((2,),))
        rollout = self.rollout_from([enc], [(0, policy.STOP)], [[0.25, -0.5]], [[-0.1, 3.0]])
        batch = compute_advantages(rollout)
        assert batch.returns[0].tolist() == pytest.approx([2.9, 3.0])
        raw = np.array([2.9 - 0.25, 3.0 + 0.5])
        normalized = (raw - raw.mean()) / (raw.std() + 1e-8)
        assert batch.advantages[0] == pytest.approx(normalized)

    def test_padded_steps_read_zero(self):
        # the short episode's padded step takes no part in the normalization
        encs = [policy.EncodedInstance((1,), ((2,),))] * 2
        rollout = self.rollout_from(
            encs, [(0, policy.STOP), (policy.STOP,)], [[0.0, 1.0], [2.0]], [[1.0, 1.0], [5.0]]
        )
        batch = compute_advantages(rollout)
        raw = np.array([2.0 - 0.0, 1.0 - 1.0, 5.0 - 2.0])
        normalized = (raw - raw.mean()) / (raw.std() + 1e-8)
        assert np.allclose(batch.advantages, [normalized[:2], [normalized[2], 0.0]])
        assert batch.advantages[1, 1] == 0.0
        assert batch.returns.tolist() == [[2.0, 1.0], [5.0, 0.0]]
        assert batch.old_logps.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_discount_applied(self):
        enc = policy.EncodedInstance((1,), ((2,),))
        rollout = self.rollout_from([enc], [(0, policy.STOP)], [[0.0, 0.0]], [[1.0, 1.0]])
        batch = compute_advantages(rollout, discount=0.5)
        assert batch.returns[0].tolist() == pytest.approx([1.5, 1.0])

    def test_empty_batch(self):
        insts = dataset(10)
        state, encs, golds = build_state(insts)
        rollout = collect_rollouts(state, encs, golds, 0, PpoConfig(), lambda s, g: 0.0)
        batch = compute_advantages(rollout)
        assert batch.matrices == [] and batch.actions.shape[0] == batch.advantages.shape[0] == 0

    def test_warm_start_fits_the_discounted_returns(self, monkeypatch):
        insts = dataset(20)
        cfg = PpoConfig(discount=0.5, rollout_episodes_per_iter=16)
        state, encs, golds = build_state(insts, seed=2)
        replica, _, _ = build_state(insts, seed=2)
        rollout = collect_rollouts(replica, encs, golds, 16, cfg, lambda s, g: 1.0)
        valid = rollout.episodes.valid
        returns = compute_advantages(rollout, cfg.discount).returns[valid]
        fitted = []
        real_lstsq = np.linalg.lstsq

        def spy_lstsq(features, targets, **kwargs):
            fitted.append(targets)
            return real_lstsq(features, targets, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy_lstsq)
        training.warm_start_value_head(state, encs, golds, cfg, lambda s, g: 1.0)
        assert len(fitted) == 1 and np.array_equal(fitted[0], returns)
        undiscounted = compute_advantages(rollout, 1.0).returns[valid]
        assert not np.allclose(returns, undiscounted)


def assert_matrices_of(matrices, encs):
    """``matrices`` are the count matrices of ``encs`` bit for bit, and
    episodes on the same instance share one matrix object."""
    expected = policy.count_matrices(encs)
    assert len(matrices) == len(expected)
    for matrix, oracle in zip(matrices, expected):
        assert np.array_equal(matrix.u, oracle.u) and np.array_equal(matrix.c, oracle.c)
    shared = {}
    for matrix, enc in zip(matrices, encs):
        assert shared.setdefault(id(enc), matrix) is matrix


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
        assert rollout.matrices == [] and rollout.episodes.steps.size == 0
        assert rollout.measured_kl == 0.0 and rollout.mean_task_reward == 0.0

    def test_beta_zero_means_zero_step_penalties(self):
        insts = dataset(10)
        state, encs, golds = build_state(insts, beta=0.0)
        rollout = collect_rollouts(state, encs, golds, 8, PpoConfig(), lambda s, g: 1.5)
        for step_rewards, n in zip(rollout.step_rewards, rollout.episodes.steps):
            assert step_rewards[: n - 1] == pytest.approx(np.zeros(n - 1))
            assert step_rewards[n - 1] == pytest.approx(1.5)
            assert not step_rewards[n:].any()

    def test_pi_equals_theta_log_ratio_is_mask_renormalization(self):
        insts = dataset(10)
        state, encs, golds = build_state(insts)
        cfg = PpoConfig(top_p=0.9)
        rollout = collect_rollouts(state, encs, golds, 16, cfg, lambda s, g: 0.0)
        for matrix, trace in zip(rollout.matrices, traces(rollout.episodes)):
            # with identical parameters the behavior/reference log-ratio is
            # exactly the mask's kept-mass renormalization at each step
            fw = policy.forward(state.current, [matrix], policy.pad_actions([trace.actions]))
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
        indices = np.random.default_rng(0).integers(0, len(encs), size=4)  # the rollout's draw
        assert_matrices_of(rollout.matrices, [encs[i] for i in indices])
        for trace, reward, i in zip(traces(rollout.episodes), rollout.task_rewards, indices):
            assert reward == float(len(trace.selected & golds[i]))
        assert rollout.mean_task_reward == np.mean(rollout.task_rewards)
        expected = rewards.shaped_reward(
            rollout.task_rewards, rollout.episodes.logp_pi, rollout.episodes.logp_ref,
            rollout.episodes.steps, state.beta,
        )
        assert np.array_equal(rollout.step_rewards, expected)


    def test_random_stream(self):
        """n instance indices, then one (n, N_max + 1) block of uniforms,
        and nothing else; episode k is sampled on row k."""
        insts = dataset(20)
        state, encs, golds = build_state(insts, seed=4)
        cfg = PpoConfig(top_p=0.9)
        rollout = collect_rollouts(state, encs, golds, 6, cfg, lambda s, g: 0.0)
        replay = np.random.default_rng(4)
        indices = replay.integers(0, len(encs), size=6)
        n_max = max(encs[i].n_candidates for i in indices)
        assert n_max < max(enc.n_candidates for enc in encs)  # N_max is the drawn instances'
        uniforms = replay.random((6, n_max + 1))
        assert state.rng.random() == replay.random()
        assert_matrices_of(rollout.matrices, [encs[i] for i in indices])
        drawn = [encs[i] for i in indices]
        expected = policy.sample_episodes(
            policy.embed(state.current, drawn), policy.embed(state.reference, drawn), uniforms, 0.9
        )
        assert traces(rollout.episodes) == traces(expected)
        assert rollout.episodes.actions.shape == uniforms.shape
        assert (state.episodes, state.steps) == (6, expected.steps.sum())

    def test_given_reference_encodings_used(self):
        insts = dataset(10)
        state, encs, golds = build_state(insts)
        other = policy.init_params(state.current.vocab, 16, seed=7)
        state_b = TrainState(state.current.copy(), other, 0.2, np.random.default_rng(0))
        state_c = TrainState(state.current.copy(), state.reference, 0.2, np.random.default_rng(0))
        by_params = collect_rollouts(state_b, encs, golds, 8, PpoConfig(), lambda s, g: 0.0)
        given = collect_rollouts(state_c, encs, golds, 8, PpoConfig(), lambda s, g: 0.0,
                                 reference=policy.embed(other, encs))
        assert traces(given.episodes) == traces(by_params.episodes)


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
        assert params_equal(p1, p2)
        assert h1 == h2

    def test_best_checkpoint_selected_by_valid_recall(self, tmp_path):
        insts = dataset(60)
        train, valid, _ = dataio.split(insts, (0.7, 0.2, 0.1), seed=0)
        usable = tasks.trainable(train, "columns")
        vocab = tasks.build_vocab(usable, "columns")
        run_dir = tmp_path / "run"
        summary = {}
        best, history = train_sft(
            policy.init_params(vocab, 16, 0), train, valid,
            SftConfig(epochs=4, learning_rate=2e-2, seed=0), "columns", run_dir=str(run_dir),
            summary=summary,
        )
        # the returned params score the best validation recall of any epoch
        valid_encs = tasks.labeled_encodings(vocab, tasks.trainable(valid, "columns"), "columns")
        best_recall = tasks.greedy_recall(best, *valid_encs)
        assert best_recall == max(h["valid_recall"] for h in history)
        assert history[summary["chosen_epoch"] - 1]["valid_recall"] == best_recall
        assert summary["chosen_epoch"] < 4  # this run peaks before its last epoch
        assert params_equal(policy.load_params(run_dir / "model.json")[0], best)

    def test_rerun_clears_old_checkpoints(self, tmp_path):
        insts = dataset(40)
        train, valid, _ = dataio.split(insts, (0.8, 0.1, 0.1), seed=0)
        vocab = tasks.build_vocab(tasks.trainable(train, "columns"), "columns")
        run_dir = tmp_path / "run"
        for epochs in (3, 1):
            # the per-epoch models that older versions wrote
            stale = run_dir / "checkpoints"
            stale.mkdir(parents=True, exist_ok=True)
            (stale / f"epoch-{epochs}.model.json").write_text("{}\n")
            train_sft(
                policy.init_params(vocab, 16, 0), train, valid,
                SftConfig(epochs=epochs, seed=0), "columns", run_dir=str(run_dir),
            )
            assert sorted(p.name for p in run_dir.iterdir()) == [
                "config.json", "metrics.jsonl", "model.json",
            ]
        assert len((run_dir / "metrics.jsonl").read_text().strip().split("\n")) == 1

    @pytest.mark.parametrize("valid_share", [0.2, 0.0])
    def test_model_json_is_the_returned_params_checkpoint(self, tmp_path, valid_share):
        insts = dataset(60)
        train, valid, _ = dataio.split(insts, (0.8 - valid_share, valid_share, 0.2), seed=0)
        vocab = tasks.build_vocab(tasks.trainable(train, "columns"), "columns")
        run_dir = tmp_path / "run"
        summary = {}
        best, history = train_sft(
            policy.init_params(vocab, 16, 0), train, valid,
            SftConfig(epochs=4, learning_rate=2e-2, seed=0), "columns", run_dir=str(run_dir),
            summary=summary,
        )
        policy.save_params(best, tmp_path / "expected.json", target="columns")
        model = (run_dir / "model.json").read_bytes()
        assert model == (tmp_path / "expected.json").read_bytes()
        # the best validation recall, ties to the later epoch; the last epoch without validation
        recalls = [(h["valid_recall"] or 0.0, h["epoch"]) for h in history]
        assert (valid_share == 0) == all(h["valid_recall"] is None for h in history)
        epoch = max(recalls)[1] if valid_share else 4
        assert summary == {"chosen_epoch": epoch}
        # the returned params are those the chosen epoch ended with
        rerun, _ = train_sft(
            policy.init_params(vocab, 16, 0), train, [],
            SftConfig(epochs=epoch, learning_rate=2e-2, seed=0), "columns",
        )
        assert params_equal(best, rerun)


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
        assert params_equal(sft, reference)

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
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "config.json", "metrics.jsonl", "model.json",
        ]
        lines = (run_dir / "metrics.jsonl").read_text().strip().split("\n")
        assert len(lines) == 4
        assert json.loads(lines[0])["iteration"] == 1

    @pytest.mark.parametrize("with_valid", [True, False])
    def test_model_json_is_the_returned_params_checkpoint(self, tmp_path, with_valid):
        sft, train, valid = self.prepared()
        run_dir = tmp_path / "rl"
        summary = {}
        best, history = train_rl(sft, train, valid if with_valid else [],
                                 self.small_cfg(eval_every=1), "columns", run_dir=str(run_dir),
                                 summary=summary)
        policy.save_params(best, tmp_path / "expected.json", target="columns")
        model = (run_dir / "model.json").read_bytes()
        assert model == (tmp_path / "expected.json").read_bytes()
        if with_valid:
            iteration = max((h["valid_recall"], h["iteration"]) for h in history)[1]
        else:
            iteration = 4
        assert summary["chosen_iteration"] == iteration
        # the returned params are those the chosen iteration ended with
        rerun, _ = train_rl(sft, train, [], self.small_cfg(eval_every=1, iterations=iteration),
                            "columns")
        assert params_equal(best, rerun)

    def test_chosen_iteration_follows_valid_recall(self, tmp_path, monkeypatch):
        sft, train, valid = self.prepared()
        recalls = iter([0.5, 0.7, 0.7, 0.2])  # the best recall twice: the later one wins
        monkeypatch.setattr(training.tasks, "greedy_recall", lambda *args: next(recalls))
        summary = {}
        best, history = train_rl(sft, train, valid, self.small_cfg(eval_every=1), "columns",
                                 run_dir=str(tmp_path / "rl"), summary=summary)
        assert [h["valid_recall"] for h in history] == [0.5, 0.7, 0.7, 0.2]
        assert summary["chosen_iteration"] == 3
        assert params_equal(policy.load_params(tmp_path / "rl" / "model.json")[0], best)
        rerun, _ = train_rl(sft, train, [], self.small_cfg(iterations=3), "columns")
        assert params_equal(best, rerun)
        last, _ = train_rl(sft, train, [], self.small_cfg(), "columns")
        assert not params_equal(best, last)

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
        assert params_equal(final, params_at_start)
        assert adam.t == t > 0
        for name in m:
            assert np.array_equal(adam.m[name], m[name])
            assert np.array_equal(adam.v[name], v[name])

    def test_non_finite_score_in_rollout_rolls_back(self, monkeypatch):
        sft, train, valid = self.prepared()
        real_sample = policy.sample_episodes
        calls = []

        def corrupting_sample(current, reference, uniforms, top_p=None):
            calls.append(1)
            if len(calls) == 3:  # iteration 2: the warm start sampled first
                params = current[0].params.copy()
                params.score_q[0, 0] = np.inf
                current = [policy.Embedded(params, e.q, e.v) for e in current]
            return real_sample(current, reference, uniforms, top_p)

        monkeypatch.setattr(policy, "sample_episodes", corrupting_sample)
        summary = {}
        with np.errstate(invalid="ignore"):
            final, history = train_rl(sft, train, [], self.small_cfg(iterations=3), "columns",
                                      summary=summary)
        assert [h.get("error") for h in history] == [None, "numerical_rollback", None]
        assert summary["numerical_rollbacks"] == 1
        assert summary["episodes"] == 24 * 3  # the failed rollout sampled none

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
        assert params_equal(final, sft)

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
            grads = policy.zero_grads(params)
            grads["score_q"][:] = 2 * (params.score_q - target)
            adam.step(params, grads)
        assert np.allclose(params.score_q, target, atol=1e-2)


# ---------------------------------------------------------------------------
# Differential tests: flat Adam against the per-array update it replaced, and
# the rollout-held count matrices against matrices rebuilt per minibatch

class OracleAdam:
    """The per-array Adam that the flat buffers replaced: eight numpy calls
    on each parameter array, moments as separate arrays."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros_like(a) for n, a in params.arrays().items()}
        self.v = {n: np.zeros_like(a) for n, a in params.arrays().items()}

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, arr in params.arrays().items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            arr -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def snapshot(self):
        return (self.t, {n: a.copy() for n, a in self.m.items()},
                {n: a.copy() for n, a in self.v.items()})

    def restore(self, snapshot):
        t, m, v = snapshot
        self.t = t
        self.m = {n: a.copy() for n, a in m.items()}
        self.v = {n: a.copy() for n, a in v.items()}


def assert_adam_equal(adam, oracle):
    assert adam.t == oracle.t
    assert adam.m.keys() == oracle.m.keys()
    for name in oracle.m:
        assert np.array_equal(adam.m[name], oracle.m[name])
        assert np.array_equal(adam.v[name], oracle.v[name])


def random_grads(params, rng):
    """Gradients of mixed scales, some exactly zero, as flat-buffer views."""
    grads = policy.zero_grads(params)
    for arr in grads.values():
        arr[...] = rng.normal(size=arr.shape) * 10.0 ** rng.integers(-9, 4, size=arr.shape)
        arr[rng.random(arr.shape) < 0.2] = 0.0
    return grads


class TestFlatAdam:
    def test_matches_per_array_update_bit_for_bit(self):
        rng = np.random.default_rng(11)
        params = random_params(3, dim=6)
        expected = params.copy()
        adam = Adam(params, 0.05)
        oracle = OracleAdam(expected, 0.05)
        snapshots = None
        for step in range(1, 81):
            grads = random_grads(params, rng)
            adam.step(params, grads)
            oracle.step(expected, {n: a.copy() for n, a in grads.items()})
            assert params_equal(params, expected)
            assert_adam_equal(adam, oracle)
            if step == 30:
                snapshots = adam.snapshot(), oracle.snapshot(), params.copy()
            if step == 50:  # roll both back and take other steps from there
                adam.restore(snapshots[0])
                oracle.restore(snapshots[1])
                params, expected = snapshots[2].copy(), snapshots[2].copy()
                assert_adam_equal(adam, oracle)
        assert adam.t == 60

    def test_snapshot_is_a_copy_and_restores_twice(self):
        rng = np.random.default_rng(2)
        params = random_params(1, dim=4)
        adam = Adam(params, 0.1)
        adam.step(params, random_grads(params, rng))
        t, m, v = adam.snapshot()
        before = m.flat.copy(), v.flat.copy()
        for _ in range(2):
            adam.step(params, random_grads(params, rng))
            assert not np.array_equal(adam.m.flat, before[0])
            adam.restore((t, m, v))
            assert adam.t == t
            assert np.array_equal(adam.m.flat, before[0]) and np.array_equal(adam.v.flat, before[1])
        # the moments' views still write the flat buffers
        adam.m["emb"][0, 0] = 7.0
        assert adam.m.flat[0] == 7.0

    def test_zero_grads_are_views_of_one_buffer(self):
        params = random_params(0, dim=5)
        grads = policy.zero_grads(params)
        assert list(grads) == list(params.arrays())
        assert grads.flat.size == sum(a.size for a in params.arrays().values())
        assert not grads.flat.any()
        offset = 0
        for name, arr in params.arrays().items():
            assert grads[name].shape == arr.shape and grads[name].base is grads.flat
            grads[name][...] = offset + 1.0
            assert (grads.flat[offset : offset + arr.size] == offset + 1.0).all()
            offset += arr.size


def rl_fixture(seed, n_episodes=48):
    """A train state on random parameters and the instances of a
    ``mixed_batch`` plus a one-candidate instance: 0, 1 and 160 candidates,
    so minibatches and the rollout span several ``chunks`` runs."""
    rng = np.random.default_rng([seed, 5])
    encs = [enc for enc, _ in mixed_batch(seed)] + [random_instance(rng, 1)]
    sizes = {enc.n_candidates for enc in encs}
    assert {0, 1, 160} <= sizes
    golds = [frozenset(int(j) for j in np.flatnonzero(rng.random(enc.n_candidates) < 0.3))
             for enc in encs]
    state = TrainState(random_params(seed), random_params(seed + 50), 0.2,
                       np.random.default_rng([seed, 6]))
    cfg = PpoConfig(rollout_episodes_per_iter=n_episodes, minibatch_episodes=8,
                    epochs_per_iter=3, seed=seed)
    reward = lambda selected, gold: len(selected & gold) - 0.5 * len(selected - gold)
    return state, encs, golds, cfg, reward


def rows_of(state, encs, n):
    """The instance of each row of the next rollout, from the first draw of
    its random stream (``collect_rollouts``)."""
    indices = copy.deepcopy(state.rng).integers(0, len(encs), size=n)
    return [encs[i] for i in indices]


def rebuilt_matrices(rows):
    """Count matrices built afresh, one ``_count_matrices`` call per
    ``chunks`` run, as each forward pass built them before rollouts kept
    theirs."""
    return [m for run in policy.chunks(rows) for m in policy._count_matrices(rows[run])]


def oracle_ppo_update(params, rows, batch, cfg, adam, rng):
    """``ppo_update`` as it was: each minibatch rebuilds its episodes' count
    matrices, and the per-array Adam steps."""
    stats = []
    for _ in range(cfg.epochs_per_iter):
        order = rng.permutation(len(rows))
        for start in range(0, len(order), cfg.minibatch_episodes):
            index = order[start : start + cfg.minibatch_episodes]
            minibatch = policy.PpoBatch(
                rebuilt_matrices([rows[i] for i in index]), batch.actions[index],
                batch.old_logps[index], batch.advantages[index], batch.returns[index],
            )
            _, grads, batch_stats = policy.ppo_loss_and_grad(
                params, minibatch, cfg.clip_epsilon, cfg.value_loss_coef, cfg.entropy_coef
            )
            adam.step(params, dict(grads))
            stats.append(batch_stats)
    return stats


def oracle_warm_start(state, encs, golds, cfg, reward):
    """The value-head fit as it was: the forward pass rebuilds the count
    matrices of the rollout's rows."""
    rows = rows_of(state, encs, cfg.rollout_episodes_per_iter)
    rollout = collect_rollouts(state, encs, golds, len(rows), cfg, reward)
    features = []
    for run in policy.chunks(rows):
        fw = policy.forward(state.current, rebuilt_matrices(rows[run]), rollout.episodes.actions[run])
        q = np.broadcast_to(fw.q[:, None, :], fw.h.shape)
        features.append(np.concatenate([q, fw.h, np.ones(fw.h.shape[:2] + (1,))], axis=-1)[fw.valid])
    targets = training._returns_to_go(rollout.step_rewards, cfg.discount)[rollout.episodes.valid]
    solution, *_ = np.linalg.lstsq(np.concatenate(features), targets, rcond=None)
    d = state.current.dim
    return solution[:d], solution[d : 2 * d], solution[-1]


class TestRolloutMatrices:
    @pytest.mark.parametrize("seed", range(3))
    def test_ppo_update_matches_matrices_rebuilt_per_minibatch(self, seed):
        state, encs, golds, cfg, reward = rl_fixture(seed)
        rows = rows_of(state, encs, cfg.rollout_episodes_per_iter)
        rollout = collect_rollouts(state, encs, golds, cfg.rollout_episodes_per_iter, cfg, reward)
        assert_matrices_of(rollout.matrices, rows)
        batch = compute_advantages(rollout)
        assert len(policy.chunks(batch.matrices)) > 2
        params, expected = state.current.copy(), state.current.copy()
        adam, oracle = Adam(params, 0.05), OracleAdam(expected, 0.05)
        rng, oracle_rng = copy.deepcopy(state.rng), copy.deepcopy(state.rng)
        stats = training.ppo_update(params, batch, cfg, adam, rng)
        oracle_stats = oracle_ppo_update(expected, rows, batch, cfg, oracle, oracle_rng)
        assert params_equal(params, expected)
        assert_adam_equal(adam, oracle)
        assert stats == {
            name: float(np.mean([getattr(s, name) for s in oracle_stats]))
            for name in ("policy_loss", "value_loss", "entropy", "clip_fraction", "mean_ratio")
        }
        assert 0.0 < stats["clip_fraction"] < 1.0
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_start_matches_matrices_rebuilt_per_run(self, seed):
        state, encs, golds, cfg, reward = rl_fixture(seed)
        replica = TrainState(state.current.copy(), state.reference, state.beta,
                             copy.deepcopy(state.rng))
        training.warm_start_value_head(state, encs, golds, cfg, reward)
        value_q, value_h, value_b = oracle_warm_start(replica, encs, golds, cfg, reward)
        assert np.array_equal(state.current.value_q, value_q)
        assert np.array_equal(state.current.value_h, value_h)
        assert state.current.value_b[0] == value_b
        assert value_b != 0.0


@pytest.mark.parametrize("given_reference", [True, False])
def test_count_matrices_once_per_distinct_drawn_instance(monkeypatch, given_reference):
    """A rollout counts each distinct instance it draws once, and its
    update (every minibatch of every epoch) and the warm start's forward
    pass count none again."""
    state, encs, golds, cfg, reward = rl_fixture(4, n_episodes=40)
    reference = policy.embed(state.reference, encs) if given_reference else None
    seen = []
    real = policy._count_matrices

    def counting(batch):
        seen.extend(map(id, batch))
        return real(batch)

    monkeypatch.setattr(policy, "_count_matrices", counting)
    n = cfg.rollout_episodes_per_iter
    rows = rows_of(state, encs, n)
    training.warm_start_value_head(state, encs, golds, cfg, reward, reference)
    assert sorted(seen) == sorted({id(enc) for enc in rows})
    adam = Adam(state.current, cfg.learning_rate)
    for _ in range(3):
        seen.clear()
        rows = rows_of(state, encs, n)
        rollout = collect_rollouts(state, encs, golds, n, cfg, reward, reference)
        training.ppo_update(state.current, compute_advantages(rollout), cfg, adam, state.rng)
        assert sorted(seen) == sorted({id(enc) for enc in rows})
        assert len(set(map(id, rows))) < n  # instances recur among the rows
