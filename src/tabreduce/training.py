"""Supervised fine-tuning, PPO with per-step KL shaping, and the adaptive
penalty-coefficient controller.

The RL loop freezes the post-SFT parameters as the reference policy, rolls
out episodes under the top-p-masked current policy, attaches the per-step
KL-shaped reward of :func:`tabreduce.rewards.shaped_reward` (a penalty on
the behavior/reference log-ratio plus the terminal task reward), and
optimizes the clipped surrogate.  The stored behavior log-probs are the
masked ones (the behavior policy IS the masked policy); the update's fresh
log-probs come from the unmasked policy.  After each iteration the penalty
coefficient moves by

    error    = clip((kl - kl_target) / kl_target, -0.2, 0.2)
    beta_new = beta * (1 + k_beta * error)

so it drifts at most 2% per iteration toward holding the measured KL at the
setpoint.

Episodes stay the sampler's padded ``(n, W)`` arrays from rollout to update
(``policy.SampledEpisodes``): step rewards, returns-to-go and advantages
are computed on whole arrays with the steps after each episode's end held
at 0, and each PPO minibatch is a selection of rows (``policy.PpoBatch``).
``train_rl`` builds the count matrices of its training instances once per
run (``policy.count_matrices``).  A rollout draws its rows from them, and
``policy.sample_episodes`` encodes each drawn instance from its matrix
under the current and the reference parameters; the rollout keeps the
matrix of each row, shared by the rows on one instance, so the value-head
warm start's forward pass and every minibatch of every update epoch reuse
them.  SFT pads its gold action sequences the same way
(``policy.pad_actions``) and builds each minibatch's matrices as it goes.
Parameters and gradients are named views of one flat buffer each
(``policy.PolicyParams``), and Adam's moments are flat buffers of the same
layout, so an Adam step is one elementwise pass that writes the parameters
in place.

SFT and PPO share one run (``_Run``) around their updates: it filters and
encodes the splits, writes the run directory and the metrics lines, and
picks the model of best validation recall, ties to the later epoch or
iteration (the last one without validation).
"""

from __future__ import annotations

import json
import math
import numbers
import os
import shutil
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import policy, tasks
from .atomicio import atomic_write
from .errors import ConfigError, NumericalError
from .rewards import RewardConfig, shaped_reward, task_reward
from .tables import Instance


def _check_field_types(config) -> None:
    """``ConfigError`` unless each ``int`` field holds an integer and each
    ``float`` field a finite number (a bool is neither)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int":
            ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        else:
            ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value))
        if not ok:
            kind = "an integer" if f.type == "int" else "a finite number"
            raise ConfigError(f"{f.name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class SftConfig:
    epochs: int = 15
    minibatch: int = 32
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        _check_field_types(self)
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
        _check_field_types(self)
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ConfigError("clip_epsilon must be in (0, 1)")
        if not 0.0 < self.top_p <= 1.0:
            raise ConfigError("top_p must be in (0, 1]")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.kl_target <= 0:
            raise ConfigError("kl_target must be positive")
        if (self.eval_every < 1 or self.epochs_per_iter < 1 or self.minibatch_episodes < 1
                or self.rollout_episodes_per_iter < 1):
            raise ConfigError("schedule and batch sizes must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")


# Adam's moment decay rates and denominator guard: Kingma and Ba's defaults
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment-estimation optimizer over a parameter set's flat
    buffer.

    The moments ``m`` and ``v`` are flat arrays laid out like the ``flat``
    buffer of a ``policy.PolicyParams``.  A step is one elementwise pass
    over the flat buffers ending in one subtraction from ``params.flat``,
    so it writes the parameters in place; elementwise arithmetic rounds
    each value alike whatever the array, so it is the per-array update bit
    for bit.
    """

    def __init__(self, params: policy.PolicyParams, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = np.zeros(params.flat.shape)
        self.v = np.zeros(params.flat.shape)
        self._update = np.zeros(params.flat.shape)

    def step(self, params: policy.PolicyParams, grads: policy.PolicyParams) -> None:
        """One update of ``params`` in place from ``grads``, laid out alike."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        g, m, v = grads.flat, self.m, self.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        np.divide(self.learning_rate * (m / bc1), np.sqrt(v / bc2) + ADAM_EPS, out=self._update)
        params.flat -= self._update

    def snapshot(self) -> tuple:
        """Copy of the step count and moments, for ``restore``."""
        return self.t, self.m.copy(), self.v.copy()

    def restore(self, snapshot: tuple) -> None:
        t, m, v = snapshot
        self.t = t
        self.m[:] = m
        self.v[:] = v


class _Run:
    """What ``train_sft`` and ``train_rl`` share apart from the update.

    The run filters both splits to their trainable instances, refuses an
    empty training set, telling an empty training share of the split from
    one with nothing annotated, and encodes both under ``vocab``.  With a
    ``run_dir``, it writes the config there and drops the metrics of an
    earlier run and the ``checkpoints/`` directory that older versions
    wrote.  ``log`` appends a record to ``history`` and to
    metrics.jsonl; ``evaluate`` measures validation recall and keeps a
    copy of the best parameters, ties to the later step; ``finish`` picks
    them (the last step's without validation) and writes ``model.json``.
    """

    def __init__(self, vocab, train, valid, cfg, target: str, run_dir: str | None, stage: str):
        kept = tasks.trainable(train, target)
        self.valid = tasks.trainable(valid, target)
        if not train:
            raise ConfigError(f"the split leaves no training instances for {stage}; "
                              "give training a larger share")
        if not kept:
            raise ConfigError(f"no annotated training instances for {stage}; run annotate first")
        self.target, self.run_dir = target, run_dir
        self.history: list[dict] = []
        self.best: policy.PolicyParams | None = None
        self.best_recall, self.best_step = -1.0, 0
        if run_dir is not None:
            os.makedirs(run_dir, exist_ok=True)
            checkpoints = os.path.join(run_dir, "checkpoints")
            if os.path.isdir(checkpoints):
                shutil.rmtree(checkpoints)
            with atomic_write(os.path.join(run_dir, "config.json")) as fh:
                json.dump(asdict(cfg), fh, sort_keys=True, indent=2)
                fh.write("\n")
            metrics_path = os.path.join(run_dir, "metrics.jsonl")
            if os.path.exists(metrics_path):
                os.remove(metrics_path)
        self.encs, self.golds = tasks.labeled_encodings(vocab, kept, target)
        self.valid_encs, self.valid_golds = tasks.labeled_encodings(vocab, self.valid, target)

    def log(self, record: dict) -> None:
        self.history.append(record)
        if self.run_dir is not None:
            with open(os.path.join(self.run_dir, "metrics.jsonl"), "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def evaluate(self, params: policy.PolicyParams, step: int) -> float:
        """Validation recall of ``params`` after ``step``, keeping a copy of
        them when no earlier step did better."""
        recall = tasks.greedy_recall(params, self.valid_encs, self.valid_golds)
        if recall >= self.best_recall:
            self.best_recall, self.best, self.best_step = recall, params.copy(), step
        return recall

    def finish(self, params: policy.PolicyParams, step: int) -> tuple[policy.PolicyParams, int]:
        """The chosen parameters and step: the best evaluated, else ``params``
        after the last ``step``; written as ``model.json`` with a run_dir."""
        chosen = (params, step) if self.best is None else (self.best, self.best_step)
        if self.run_dir is not None:
            policy.save_params(chosen[0], os.path.join(self.run_dir, "model.json"), target=self.target)
        return chosen


# ---------------------------------------------------------------------------
# Supervised fine-tuning

def train_sft(
    params: policy.PolicyParams,
    train: Sequence[Instance],
    valid: Sequence[Instance],
    cfg: SftConfig,
    target: str,
    run_dir: str | None = None,
    summary: dict | None = None,
) -> tuple[policy.PolicyParams, list[dict]]:
    """Minibatch likelihood training; returns the params of the epoch with
    the best validation recall (ties to the later epoch; the last epoch if
    validation is empty).  With a ``run_dir``, writes its config, one
    metrics line per epoch, and the returned params as ``model.json``.
    ``summary``, when given, receives the chosen epoch."""
    run = _Run(params.vocab, train, valid, cfg, target, run_dir, "SFT")
    actions = policy.pad_actions([tasks.gold_actions(gold) for gold in run.golds])

    rng = np.random.default_rng(cfg.seed)
    adam = Adam(params, cfg.learning_rate)
    params = params.copy()

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(run.encs))
        losses = []
        for start in range(0, len(order), cfg.minibatch):
            batch = order[start : start + cfg.minibatch]
            loss, grads = policy.sft_loss_and_grad(params, [run.encs[i] for i in batch], actions[batch])
            adam.step(params, grads)
            losses.append(loss)
        run.log({
            "epoch": epoch,
            "loss": float(np.mean(losses)),
            "valid_recall": run.evaluate(params, epoch) if run.valid else None,
        })

    best, best_epoch = run.finish(params, cfg.epochs)
    if summary is not None:
        summary["chosen_epoch"] = best_epoch
    return best, run.history


# ---------------------------------------------------------------------------
# Rollouts and advantages

@dataclass
class Rollout:
    """Episodes from one collection pass: the count matrix of each
    episode's instance (shared by the episodes on one instance), the
    sampled ``(n, W)`` arrays, each episode's task reward and its per-step
    KL-shaped rewards, 0 after its last step."""

    matrices: list[policy.CountMatrix]
    episodes: policy.SampledEpisodes
    task_rewards: np.ndarray  # (n,)
    step_rewards: np.ndarray  # (n, W)

    @property
    def measured_kl(self) -> float:
        """Single-sample KL estimate: mean over taken actions of the
        behavior log-probability minus the reference's.  Sums run in step
        order within an episode, then in episode order (``cumsum``; the
        zeros after an episode's end leave its sum as it is)."""
        count = int(self.episodes.steps.sum())
        if not count:
            return 0.0
        per_episode = (np.cumsum(self.episodes.logp_pi, axis=1)[:, -1]
                       - np.cumsum(self.episodes.logp_ref, axis=1)[:, -1])
        return float(np.cumsum(per_episode)[-1] / count)

    @property
    def mean_task_reward(self) -> float:
        return float(np.mean(self.task_rewards)) if self.task_rewards.size else 0.0


@dataclass
class TrainState:
    """Mutable RL loop state; the reference parameters never change.
    ``episodes`` and ``steps`` count what ``collect_rollouts`` sampled."""

    current: policy.PolicyParams
    reference: policy.PolicyParams
    beta: float
    rng: np.random.Generator
    episodes: int = 0
    steps: int = 0


RewardFn = Callable[[frozenset[int], frozenset[int]], float]


def warm_start_value_head(
    state: TrainState,
    matrices: Sequence[policy.CountMatrix],
    golds: Sequence[frozenset[int]],
    cfg: PpoConfig,
    reward_fn: RewardFn,
) -> None:
    """Least-squares fit of the value head on pre-loop rollout returns.

    The zero-initialized value head makes first-iteration advantages equal
    to raw returns, which (after batch normalization) shove the policy far
    past the KL-penalty equilibrium before the head catches up.  Fitting
    value_q/value_h/value_b on one rollout batch from the initial policy
    removes that transient without touching the update rule.  The features
    ``[q, h, 1]`` of every step come from the teacher-forced forward pass
    on the rollout's count matrices, and the targets are the returns-to-go
    that ``compute_advantages`` uses.
    """
    rollout = collect_rollouts(state, matrices, golds, cfg.rollout_episodes_per_iter, cfg, reward_fn)
    features: list[np.ndarray] = []
    for run in policy.chunks(rollout.matrices):
        fw = policy.forward(state.current, rollout.matrices[run], rollout.episodes.actions[run])
        q = np.broadcast_to(fw.q[:, None, :], fw.h.shape)
        ones = np.ones(fw.h.shape[:2] + (1,))
        features.append(np.concatenate([q, fw.h, ones], axis=-1)[fw.valid])
    targets = _returns_to_go(rollout.step_rewards, cfg.discount)[rollout.episodes.valid]
    solution, *_ = np.linalg.lstsq(np.concatenate(features), targets, rcond=None)
    if not np.all(np.isfinite(solution)):
        return
    d = state.current.dim
    state.current.value_q[:] = solution[:d]
    state.current.value_h[:] = solution[d : 2 * d]
    state.current.value_b[0] = solution[-1]


def collect_rollouts(
    state: TrainState,
    matrices: Sequence[policy.CountMatrix],
    golds: Sequence[frozenset[int]],
    n: int,
    cfg: PpoConfig,
    reward_fn: RewardFn,
) -> Rollout:
    """Sample n episodes under the masked current policy, all together.

    ``matrices`` and ``golds`` are the training instances' count matrices
    (``policy.count_matrices``) and gold items.  The random stream:
    ``state.rng`` draws the n instance indices, then one ``(n, N_max + 1)``
    block of uniforms, where N_max is the most candidates among the drawn
    instances; episode k takes its step t from row k, column t
    (``policy.sample_episodes``, which encodes each drawn instance once
    under the current and once under the reference parameters).  The
    rollout keeps each episode's matrix, shared by the episodes on one
    instance, for its update.

    Each episode's step rewards are :func:`tabreduce.rewards.shaped_reward`
    of its task reward and its behavior and reference log-probabilities.
    """
    indices = state.rng.integers(0, len(matrices), size=n)
    rows = [matrices[i] for i in indices]
    uniforms = state.rng.random((n, max((m.n_candidates for m in rows), default=0) + 1))
    episodes = policy.sample_episodes(state.current, state.reference, rows, uniforms, cfg.top_p)
    state.episodes += n
    state.steps += int(episodes.steps.sum())
    task = np.array([
        reward_fn(frozenset(actions[: k - 1].tolist()), golds[idx])
        for actions, k, idx in zip(episodes.actions, episodes.steps, indices)
    ], dtype=float)
    step_rewards = shaped_reward(task, episodes.logp_pi, episodes.logp_ref, episodes.steps, state.beta)
    return Rollout(rows, episodes, task, step_rewards)


def _returns_to_go(rewards: np.ndarray, discount: float) -> np.ndarray:
    """Per row, g[t] = rewards[t] + discount * g[t + 1], the last column's g
    its reward; rows that end in zeros keep zero returns there."""
    g = np.zeros(rewards.shape)
    acc = np.zeros(rewards.shape[0])
    for t in range(rewards.shape[1] - 1, -1, -1):
        acc = rewards[:, t] + discount * acc
        g[:, t] = acc
    return g


def compute_advantages(rollout: Rollout, discount: float = 1.0) -> policy.PpoBatch:
    """Monte-Carlo returns-to-go, baseline-subtracted, normalized over every
    step of the batch (in row-major step order); 0 after each episode."""
    valid = rollout.episodes.valid
    returns = _returns_to_go(rollout.step_rewards, discount)
    raw = returns - rollout.episodes.values
    flat = raw[valid]
    mean, std = (flat.mean(), flat.std()) if flat.size else (0.0, 0.0)
    advantages = np.where(valid, (raw - mean) / (std + 1e-8), 0.0)
    return policy.PpoBatch(
        rollout.matrices, rollout.episodes.actions, rollout.episodes.logp_pi, advantages, returns
    )


def ppo_update(
    params: policy.PolicyParams,
    batch: policy.PpoBatch,
    cfg: PpoConfig,
    adam: Adam,
    rng: np.random.Generator,
) -> dict:
    """epochs x minibatches of clipped-surrogate steps, each minibatch a
    selection of the batch's rows (and of its count matrices); returns mean
    stats."""
    stats: list[policy.PpoStats] = []
    for _ in range(cfg.epochs_per_iter):
        order = rng.permutation(len(batch.matrices))
        for start in range(0, len(order), cfg.minibatch_episodes):
            _, grads, batch_stats = policy.ppo_loss_and_grad(
                params, batch.rows(order[start : start + cfg.minibatch_episodes]),
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
    reward_fn: RewardFn | None = None,
    reference: policy.PolicyParams | None = None,
    run_dir: str | None = None,
    summary: dict | None = None,
) -> tuple[policy.PolicyParams, list[dict]]:
    """PPO iterations with periodic greedy evaluation.

    The reference policy defaults to a frozen copy of the initial
    parameters.  Returns the params of the evaluated iteration with the
    best validation recall (ties to the later iteration; the final params
    if validation is empty); with a ``run_dir``, writes the run files of
    ``train_sft``, one metrics line per iteration.  A NumericalError inside
    an iteration rolls the parameters and the optimizer state back to the
    iteration start and moves on.  ``summary``, when given, receives the
    episodes and steps sampled (the value-head warm start's included), the
    number of numerical rollbacks, the wall seconds spent in the value-head
    warm start, in rollouts and in updates, and the chosen iteration.
    """
    run = _Run(initial.vocab, train, valid, cfg, target, run_dir, "RL")
    if reward_fn is None:
        rcfg = RewardConfig()
        reward_fn = lambda selected, gold: task_reward(selected, gold, rcfg).task_reward
    matrices = policy.count_matrices(run.encs)  # kept for the run: every rollout draws from them

    state = TrainState(
        current=initial.copy(),
        reference=(reference if reference is not None else initial).copy(),
        beta=cfg.beta0,
        rng=np.random.default_rng(cfg.seed),
    )
    started = time.perf_counter()
    warm_start_value_head(state, matrices, run.golds, cfg, reward_fn)
    warm_start_s = time.perf_counter() - started
    adam = Adam(state.current, cfg.learning_rate)
    rollout_s = update_s = 0.0

    for iteration in range(1, cfg.iterations + 1):
        backup = state.current.copy()
        adam_backup = adam.snapshot()
        record: dict = {"iteration": iteration, "beta": state.beta}
        try:
            started = time.perf_counter()
            rollout = collect_rollouts(state, matrices, run.golds, cfg.rollout_episodes_per_iter, cfg, reward_fn)
            rollout_s += time.perf_counter() - started
            started = time.perf_counter()
            examples = compute_advantages(rollout, cfg.discount)
            update_stats = ppo_update(state.current, examples, cfg, adam, state.rng)
            update_s += time.perf_counter() - started
            record.update(update_stats)
            record["mean_task_reward"] = rollout.mean_task_reward
            record["measured_kl"] = rollout.measured_kl
            record["mean_episode_length"] = float(np.mean(rollout.episodes.steps))
            state.beta = update_beta(state.beta, rollout.measured_kl, cfg)
        except NumericalError:
            state.current = backup
            adam.restore(adam_backup)
            record["error"] = "numerical_rollback"

        if run.valid and (iteration % cfg.eval_every == 0 or iteration == cfg.iterations):
            record["valid_recall"] = run.evaluate(state.current, iteration)
        run.log(record)

    best, best_iteration = run.finish(state.current, cfg.iterations)
    if summary is not None:
        summary.update(
            episodes=state.episodes,
            steps=state.steps,
            numerical_rollbacks=sum("error" in record for record in run.history),
            warm_start_seconds=round(warm_start_s, 3),
            rollout_seconds=round(rollout_s, 3),
            update_seconds=round(update_s, 3),
            chosen_iteration=best_iteration,
        )
    return best, run.history
