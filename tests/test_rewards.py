import math
import random

import numpy as np
import pytest

from encoded_instances import encode_texts
from tabreduce import policy, training
from tabreduce.errors import ConfigError, NumericalError
from tabreduce.rewards import RewardConfig, shaped_reward, task_reward


class TestConfig:
    def test_defaults_valid(self):
        cfg = RewardConfig()
        assert cfg.r_correct == 1.0
        assert cfg.r_irrelevant == -0.2
        assert cfg.c_miss == -5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_correct": 0.0},
            {"r_correct": -1.0},
            {"r_irrelevant": 0.1},
            {"c_miss": -0.1},           # not below r_irrelevant
            {"c_miss": -0.2},           # must be strictly below
        ],
    )
    def test_invariants_enforced(self, kwargs):
        with pytest.raises(ConfigError):
            RewardConfig(**kwargs)


class TestTaskReward:
    def test_exact_match(self):
        out = task_reward({1, 2, 3}, {1, 2, 3}, RewardConfig())
        assert out.task_reward == pytest.approx(3.0)
        assert (out.n_correct, out.n_irrelevant, out.n_missing) == (3, 0, 0)

    def test_one_extra(self):
        out = task_reward({1, 2, 9}, {1, 2}, RewardConfig())
        assert out.task_reward == pytest.approx(1.8)

    def test_one_miss(self):
        out = task_reward({1}, {1, 2}, RewardConfig())
        assert out.task_reward == pytest.approx(-4.0)

    def test_breakdown_formula(self):
        rng = random.Random(0)
        cfg = RewardConfig()
        for _ in range(100):
            pred = frozenset(rng.sample(range(10), rng.randint(0, 10)))
            gold = frozenset(rng.sample(range(10), rng.randint(0, 10)))
            out = task_reward(pred, gold, cfg)
            assert out.task_reward == pytest.approx(
                out.n_correct * cfg.r_correct
                + out.n_irrelevant * cfg.r_irrelevant
                + out.n_missing * cfg.c_miss
            )

    def test_monotonicity(self):
        cfg = RewardConfig()
        rng = random.Random(1)
        for _ in range(100):
            gold = frozenset(rng.sample(range(12), 6))
            pred = frozenset(rng.sample(range(12), rng.randint(0, 12)))
            missing = list(gold - pred)
            extra = [i for i in range(12) if i not in gold and i not in pred]
            base = task_reward(pred, gold, cfg).task_reward
            if missing:
                assert task_reward(pred | {missing[0]}, gold, cfg).task_reward > base
            if extra:
                grew = task_reward(pred | {extra[0]}, gold, cfg).task_reward
                assert grew == pytest.approx(base + cfg.r_irrelevant)

    def test_miss_worse_than_extra(self):
        # missing one gold item scores strictly below having one extra
        for cfg in (RewardConfig(), RewardConfig(1.0, -0.5, -2.0), RewardConfig(2.0, 0.0, -0.1)):
            gold = frozenset({0, 1, 2})
            miss = task_reward(frozenset({0, 1}), gold, cfg).task_reward
            extra = task_reward(frozenset({0, 1, 2, 7}), gold, cfg).task_reward
            assert miss < extra


def shaped_one(task, logp_pi, logp_ref, beta):
    """``shaped_reward`` of one episode, as its row."""
    return shaped_reward(
        np.array([task]), np.array([logp_pi]), np.array([logp_ref]), np.array([len(logp_pi)]), beta
    )[0]


class TestShapedReward:
    def test_equal_logps_passthrough(self):
        rewards = shaped_one(2.0, [-0.4, -1.3], [-0.4, -1.3], 0.2)
        assert rewards == pytest.approx([0.0, 2.0])

    def test_formula(self):
        rewards = shaped_one(0.0, [-0.5, -0.1], [-1.5, -0.6], 0.2)
        assert rewards == pytest.approx([-0.2, -0.1])

    def test_beta_zero(self):
        assert shaped_one(1.7, [-0.1, -2.0], [-9.0, -0.5], 0.0) == pytest.approx([0.0, 1.7])

    def test_linear_in_beta_and_logratio(self):
        base = shaped_one(1.0, [-1.0, -0.3], [-2.0, -0.1], 0.3)
        double_beta = shaped_one(1.0, [-1.0, -0.3], [-2.0, -0.1], 0.6)
        doubled_ratio = shaped_one(1.0, [-2.0, -0.5], [-4.0, -0.1], 0.3)
        base[-1] -= 1.0
        double_beta[-1] -= 1.0
        doubled_ratio[-1] -= 1.0
        assert double_beta == pytest.approx(2 * base)
        assert doubled_ratio == pytest.approx(2 * base)

    def test_padded_episodes(self):
        # each episode's task reward lands on its own last step; after it, 0
        logp_pi = np.array([[-0.5, -0.1, 0.0], [-1.0, 0.0, 0.0], [-0.2, -0.3, -0.4]])
        logp_ref = np.array([[-1.5, -0.6, 0.0], [-2.0, 0.0, 0.0], [-0.2, -0.3, -0.4]])
        rewards = shaped_reward(np.array([1.0, 2.0, 3.0]), logp_pi, logp_ref, np.array([2, 1, 3]), 0.2)
        assert np.allclose(rewards, [[-0.2, 0.9, 0.0], [1.8, 0.0, 0.0], [0.0, 0.0, 3.0]])
        assert rewards[0, 2] == rewards[1, 1] == rewards[1, 2] == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # shaped_reward passes a non-finite reward through; the PPO loss over
        # the episode's advantages is where it is rejected
        vocab = policy.build_vocabulary(["q", "a", "b"])
        params = policy.init_params(vocab, 4, seed=0)
        enc = encode_texts(vocab, [("q", ["a", "b"])])[0]
        uniforms = np.random.default_rng(0).random((1, 3))
        matrices = policy.count_matrices([enc])
        sampled = policy.sample_episodes(params, params, matrices, uniforms)
        task = np.array([bad])
        rewards = shaped_reward(task, sampled.logp_pi, sampled.logp_ref, sampled.steps, 0.1)
        assert not np.all(np.isfinite(rewards))
        rollout = training.Rollout(matrices, sampled, task, rewards)
        batch = training.compute_advantages(rollout)
        with pytest.raises(NumericalError):
            policy.ppo_loss_and_grad(
                params, batch, clip_epsilon=0.2, value_loss_coef=0.5, entropy_coef=0.01
            )
