"""Supervised fine-tuning, PPO with per-step KL shaping, and the adaptive
penalty-coefficient controller.

The RL loop freezes the post-SFT parameters as the reference policy, rolls
out episodes under the top-p-masked current policy, attaches the per-step
penalty ``-beta * (logp_pi - logp_ref)`` plus the terminal task reward,
and optimizes the clipped surrogate.  The stored behavior log-probs are the
masked ones (the behavior policy IS the masked policy); the update's fresh
log-probs come from the unmasked policy.  After each iteration the penalty
coefficient moves by

    error    = clip((kl - kl_target) / kl_target, -0.2, 0.2)
    beta_new = beta * (1 + k_beta * error)

so it drifts at most 2% per iteration toward holding the measured KL at the
setpoint.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import policy, tasks
from .errors import ConfigError, NumericalError
from .rewards import RewardConfig, task_reward
from .tables import Instance


@dataclass(frozen=True)
class SftConfig:
    epochs: int = 15
    minibatch: int = 32
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.minibatch < 1:
            raise ConfigError("epochs and minibatch must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")


@dataclass(frozen=True)
class PpoConfig:
    clip_epsilon: float = 0.2
    epochs_per_iter: int = 4
    minibatch_episodes: int = 32
    rollout_episodes_per_iter: int = 512
    learning_rate: float = 1e-3
    discount: float = 1.0
    value_loss_coef: float = 0.5
    entropy_coef: float = 0.01
    beta0: float = 0.2
    k_beta: float = 0.1
    kl_target: float = 0.05
    top_p: float = 0.9
    iterations: int = 10
    eval_every: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ConfigError("clip_epsilon must be in (0, 1)")
        if not 0.0 < self.top_p <= 1.0:
            raise ConfigError("top_p must be in (0, 1]")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.kl_target <= 0:
            raise ConfigError("kl_target must be positive")
        if self.eval_every < 1 or self.minibatch_episodes < 1 or self.rollout_episodes_per_iter < 1:
            raise ConfigError("schedule and batch sizes must be >= 1")


class Adam:
    """Adaptive-moment-estimation optimizer over named parameter arrays."""

    def __init__(self, params: policy.PolicyParams, learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros_like(a) for n, a in params.arrays().items()}
        self.v = {n: np.zeros_like(a) for n, a in params.arrays().items()}

    def step(self, params: policy.PolicyParams, grads: dict[str, np.ndarray]) -> None:
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

    def snapshot(self) -> tuple:
        """Copy of the step count and moments, for ``restore``."""
        return (
            self.t,
            {n: a.copy() for n, a in self.m.items()},
            {n: a.copy() for n, a in self.v.items()},
        )

    def restore(self, snapshot: tuple) -> None:
        t, m, v = snapshot
        self.t = t
        self.m = {n: a.copy() for n, a in m.items()}
        self.v = {n: a.copy() for n, a in v.items()}


def _write_metrics_line(run_dir: str | None, record: dict) -> None:
    if run_dir is None:
        return
    with open(os.path.join(run_dir, "metrics.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _prepare_run_dir(run_dir: str | None, config) -> None:
    """Write the config; drop the metrics and checkpoints of an earlier run."""
    if run_dir is None:
        return
    checkpoints = os.path.join(run_dir, "checkpoints")
    if os.path.isdir(checkpoints):
        shutil.rmtree(checkpoints)
    os.makedirs(checkpoints)
    with open(os.path.join(run_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(asdict(config), fh, sort_keys=True, indent=2)
        fh.write("\n")
    metrics_path = os.path.join(run_dir, "metrics.jsonl")
    if os.path.exists(metrics_path):
        os.remove(metrics_path)


# ---------------------------------------------------------------------------
# Supervised fine-tuning

def train_sft(
    params: policy.PolicyParams,
    train: Sequence[Instance],
    valid: Sequence[Instance],
    cfg: SftConfig,
    target: str,
    run_dir: str | None = None,
) -> tuple[policy.PolicyParams, list[dict]]:
    """Minibatch likelihood training; returns the best-on-validation params."""
    train = tasks.trainable(train, target)
    valid = tasks.trainable(valid, target)
    if not train:
        raise ConfigError("no trainable instances for SFT")
    _prepare_run_dir(run_dir, cfg)

    examples = []
    for inst in train:
        gold = tasks.gold_items(inst, target)
        assert gold is not None
        examples.append(
            policy.build_episode(tasks.encode(params.vocab, inst, target), tasks.gold_actions(gold))
        )

    rng = np.random.default_rng(cfg.seed)
    adam = Adam(params, cfg.learning_rate)
    params = params.copy()
    best = params.copy()
    best_recall = -1.0
    history: list[dict] = []

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(examples))
        losses = []
        for start in range(0, len(order), cfg.minibatch):
            batch = [examples[i] for i in order[start : start + cfg.minibatch]]
            loss, grads = policy.sft_loss_and_grad(params, batch)
            adam.step(params, grads)
            losses.append(loss)
        recall = tasks.evaluate_recall(params, valid, target) if valid else float("nan")
        record = {
            "epoch": epoch,
            "loss": float(np.mean(losses)),
            "valid_recall": None if math.isnan(recall) else recall,
        }
        history.append(record)
        _write_metrics_line(run_dir, record)
        if run_dir is not None:
            policy.save_params(
                params, os.path.join(run_dir, "checkpoints", f"epoch-{epoch}.model.json"),
                target=target,
            )
        # ties prefer the later epoch: equal validation recall, lower train loss
        if not math.isnan(recall) and recall >= best_recall:
            best_recall = recall
            best = params.copy()

    return (best if best_recall >= 0 else params), history


# ---------------------------------------------------------------------------
# Rollouts and advantages

@dataclass
class Rollout:
    """Episodes from one collection pass plus their encodings and rewards."""

    encs: list[policy.EncodedInstance]
    traces: list[policy.EpisodeTrace]
    step_rewards: list[np.ndarray]
    beta: float

    @property
    def measured_kl(self) -> float:
        """Single-sample KL estimate: mean over taken actions of the
        behavior log-probability minus the reference's."""
        total = 0.0
        count = 0
        for trace in self.traces:
            total += sum(trace.logp_pi) - sum(trace.logp_ref)
            count += len(trace.logp_pi)
        return total / count if count else 0.0

    @property
    def mean_task_reward(self) -> float:
        if not self.traces:
            return 0.0
        return float(np.mean([t.task_reward for t in self.traces]))


@dataclass
class TrainState:
    """Mutable RL loop state; the reference parameters never change."""

    current: policy.PolicyParams
    reference: policy.PolicyParams
    beta: float
    rng: np.random.Generator
    iteration: int = 0
    history: list[dict] = field(default_factory=list)


RewardFn = Callable[[frozenset[int], frozenset[int]], float]


def warm_start_value_head(
    state: TrainState,
    encs: Sequence[policy.EncodedInstance],
    golds: Sequence[frozenset[int]],
    cfg: PpoConfig,
    reward_fn: RewardFn,
    reference: Sequence[policy.Embedded] | None = None,
) -> None:
    """Least-squares fit of the value head on pre-loop rollout returns.

    The zero-initialized value head makes first-iteration advantages equal
    to raw returns, which (after batch normalization) shove the policy far
    past the KL-penalty equilibrium before the head catches up.  Fitting
    value_q/value_h/value_b on one rollout batch from the initial policy
    removes that transient without touching the update rule.  The features
    ``[q, h, 1]`` of every step come from the teacher-forced forward pass.
    """
    rollout = collect_rollouts(
        state, encs, golds, cfg.rollout_episodes_per_iter, cfg, reward_fn, reference
    )
    if not rollout.traces:
        return
    episodes = [
        policy.build_episode(enc, trace.actions)
        for enc, trace in zip(rollout.encs, rollout.traces)
    ]
    features: list[np.ndarray] = []
    for run in policy.chunks(episodes):
        fw = policy.forward(state.current, episodes[run])
        q = np.broadcast_to(fw.q[:, None, :], fw.h.shape)
        ones = np.ones(fw.h.shape[:2] + (1,))
        features.append(np.concatenate([q, fw.h, ones], axis=-1)[fw.valid])
    targets = np.concatenate([np.flip(np.cumsum(np.flip(r))) for r in rollout.step_rewards])
    solution, *_ = np.linalg.lstsq(np.concatenate(features), targets, rcond=None)
    if not np.all(np.isfinite(solution)):
        return
    d = state.current.dim
    state.current.value_q[:] = solution[:d]
    state.current.value_h[:] = solution[d : 2 * d]
    state.current.value_b[0] = solution[-1]


def collect_rollouts(
    state: TrainState,
    encs: Sequence[policy.EncodedInstance],
    golds: Sequence[frozenset[int]],
    n: int,
    cfg: PpoConfig,
    reward_fn: RewardFn,
    reference: Sequence[policy.Embedded] | None = None,
) -> Rollout:
    """Sample n episodes under the masked current policy.

    Each step carries the penalty ``-beta * (logp_pi - logp_ref)`` over the
    behavior log-probabilities; the terminal step additionally carries the
    task reward.  ``reference`` is ``encs`` embedded under the reference
    parameters (computed here when not given).
    """
    chosen_encs: list[policy.EncodedInstance] = []
    traces: list[policy.EpisodeTrace] = []
    step_rewards: list[np.ndarray] = []
    if n == 0:
        return Rollout(chosen_encs, traces, step_rewards, state.beta)
    indices = state.rng.integers(0, len(encs), size=n)
    current = policy.embed(state.current, encs)
    if reference is None:
        reference = policy.embed(state.reference, encs)
    for idx in indices:
        enc = encs[idx]
        trace = policy.sample_episode(
            current[idx], reference[idx], mode="sample", top_p=cfg.top_p, rng=state.rng,
        )
        trace = trace.with_task_reward(reward_fn(trace.selected, golds[idx]))
        rewards = -state.beta * (np.array(trace.logp_pi) - np.array(trace.logp_ref))
        rewards[-1] += trace.task_reward
        chosen_encs.append(enc)
        traces.append(trace)
        step_rewards.append(rewards)
    return Rollout(chosen_encs, traces, step_rewards, state.beta)


def compute_advantages(rollout: Rollout, discount: float = 1.0) -> list[policy.PpoExample]:
    """Monte-Carlo returns-to-go, baseline-subtracted, batch-normalized."""
    raw: list[np.ndarray] = []
    returns: list[np.ndarray] = []
    for trace, rewards in zip(rollout.traces, rollout.step_rewards):
        g = np.zeros(len(rewards))
        acc = 0.0
        for t in range(len(rewards) - 1, -1, -1):
            acc = rewards[t] + discount * acc
            g[t] = acc
        returns.append(g)
        raw.append(g - np.array(trace.values))
    if not raw:
        return []
    flat = np.concatenate(raw)
    mean = flat.mean()
    std = flat.std()
    examples = []
    for enc, trace, adv, ret in zip(rollout.encs, rollout.traces, raw, returns):
        examples.append(
            policy.PpoExample(
                enc=enc,
                actions=trace.actions,
                old_logps=np.array(trace.logp_pi),
                advantages=(adv - mean) / (std + 1e-8),
                returns=ret,
            )
        )
    return examples


def ppo_update(
    params: policy.PolicyParams,
    examples: Sequence[policy.PpoExample],
    cfg: PpoConfig,
    adam: Adam,
    rng: np.random.Generator,
) -> dict:
    """epochs x minibatches of clipped-surrogate steps; returns mean stats."""
    stats: list[policy.PpoStats] = []
    for _ in range(cfg.epochs_per_iter):
        order = rng.permutation(len(examples))
        for start in range(0, len(order), cfg.minibatch_episodes):
            batch = [examples[i] for i in order[start : start + cfg.minibatch_episodes]]
            _, grads, batch_stats = policy.ppo_loss_and_grad(
                params, batch,
                clip_epsilon=cfg.clip_epsilon,
                value_loss_coef=cfg.value_loss_coef,
                entropy_coef=cfg.entropy_coef,
            )
            adam.step(params, grads)
            stats.append(batch_stats)
    return {
        "policy_loss": float(np.mean([s.policy_loss for s in stats])),
        "value_loss": float(np.mean([s.value_loss for s in stats])),
        "entropy": float(np.mean([s.entropy for s in stats])),
        "clip_fraction": float(np.mean([s.clip_fraction for s in stats])),
        "mean_ratio": float(np.mean([s.mean_ratio for s in stats])),
    }


def update_beta(beta: float, measured_kl: float, cfg: PpoConfig) -> float:
    """beta * (1 + k_beta * clip((kl - target)/target, -0.2, 0.2))"""
    error = (measured_kl - cfg.kl_target) / cfg.kl_target
    error = min(0.2, max(-0.2, error))
    return beta * (1.0 + cfg.k_beta * error)


# ---------------------------------------------------------------------------
# Full RL loop

def train_rl(
    initial: policy.PolicyParams,
    train: Sequence[Instance],
    valid: Sequence[Instance],
    cfg: PpoConfig,
    target: str,
    reward_cfg: RewardConfig | None = None,
    reward_fn: RewardFn | None = None,
    reference: policy.PolicyParams | None = None,
    run_dir: str | None = None,
) -> tuple[policy.PolicyParams, list[dict]]:
    """PPO iterations with periodic greedy evaluation.

    The reference policy defaults to a frozen copy of the initial
    parameters.  Returns the best-on-validation checkpoint (final params if
    validation is empty).  A NumericalError inside an iteration rolls the
    parameters and the optimizer state back to the iteration start and
    moves on.
    """
    train = tasks.trainable(train, target)
    valid = tasks.trainable(valid, target)
    if not train:
        raise ConfigError("no trainable instances for RL")
    _prepare_run_dir(run_dir, cfg)

    if reward_fn is None:
        rcfg = reward_cfg if reward_cfg is not None else RewardConfig()
        reward_fn = lambda selected, gold: task_reward(selected, gold, rcfg).task_reward

    encs = [tasks.encode(initial.vocab, inst, target) for inst in train]
    golds = []
    for inst in train:
        gold = tasks.gold_items(inst, target)
        assert gold is not None
        golds.append(gold)

    state = TrainState(
        current=initial.copy(),
        reference=(reference if reference is not None else initial).copy(),
        beta=cfg.beta0,
        rng=np.random.default_rng(cfg.seed),
    )
    reference_embedded = policy.embed(state.reference, encs)
    warm_start_value_head(state, encs, golds, cfg, reward_fn, reference_embedded)
    adam = Adam(state.current, cfg.learning_rate)
    best = state.current.copy()
    best_recall = -1.0

    for iteration in range(1, cfg.iterations + 1):
        state.iteration = iteration
        backup = state.current.copy()
        adam_backup = adam.snapshot()
        record: dict = {"iteration": iteration, "beta": state.beta}
        try:
            rollout = collect_rollouts(
                state, encs, golds, cfg.rollout_episodes_per_iter, cfg, reward_fn,
                reference_embedded,
            )
            examples = compute_advantages(rollout, cfg.discount)
            update_stats = ppo_update(state.current, examples, cfg, adam, state.rng)
            record.update(update_stats)
            record["mean_task_reward"] = rollout.mean_task_reward
            record["measured_kl"] = rollout.measured_kl
            record["mean_episode_length"] = float(
                np.mean([len(t.actions) for t in rollout.traces])
            )
            state.beta = update_beta(state.beta, rollout.measured_kl, cfg)
        except NumericalError:
            state.current = backup
            adam.restore(adam_backup)
            record["error"] = "numerical_rollback"

        if valid and (iteration % cfg.eval_every == 0 or iteration == cfg.iterations):
            recall = tasks.evaluate_recall(state.current, valid, target)
            record["valid_recall"] = recall
            if recall >= best_recall:
                best_recall = recall
                best = state.current.copy()

        state.history.append(record)
        _write_metrics_line(run_dir, record)
        if run_dir is not None:
            policy.save_params(
                state.current,
                os.path.join(run_dir, "checkpoints", f"iter-{iteration}.model.json"),
                target=target,
            )

    return (best if best_recall >= 0 else state.current), state.history
