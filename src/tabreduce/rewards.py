"""Set-level task reward and the per-step KL-shaped reward.

Missing a relevant item is the critical error: it costs far more than
picking up an irrelevant one, so the defaults satisfy
``c_miss < r_irrelevant <= 0 < r_correct``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class RewardConfig:
    r_correct: float = 1.0
    r_irrelevant: float = -0.2
    c_miss: float = -5.0

    def __post_init__(self) -> None:
        if not self.r_correct > 0:
            raise ConfigError("r_correct must be positive")
        if not self.r_irrelevant <= 0:
            raise ConfigError("r_irrelevant must be non-positive")
        if not self.c_miss < self.r_irrelevant:
            raise ConfigError("c_miss must be strictly below r_irrelevant")


@dataclass(frozen=True)
class RewardBreakdown:
    n_correct: int
    n_irrelevant: int
    n_missing: int
    task_reward: float


def task_reward(
    predicted: frozenset[int] | set[int],
    gold: frozenset[int] | set[int],
    cfg: RewardConfig,
) -> RewardBreakdown:
    n_correct = len(set(predicted) & set(gold))
    n_irrelevant = len(set(predicted) - set(gold))
    n_missing = len(set(gold) - set(predicted))
    total = (
        n_correct * cfg.r_correct
        + n_irrelevant * cfg.r_irrelevant
        + n_missing * cfg.c_miss
    )
    return RewardBreakdown(
        n_correct=n_correct,
        n_irrelevant=n_irrelevant,
        n_missing=n_missing,
        task_reward=total,
    )


def shaped_reward(
    task: float, logp_pi: Sequence[float], logp_ref: Sequence[float], beta: float
) -> np.ndarray:
    """Per-step reward of one episode: ``-beta * (logp_pi - logp_ref)`` at
    every step, plus the task reward on the last step.

    Non-finite inputs pass through: the value-head warm start skips on
    them, and the PPO loss raises ``NumericalError``.
    """
    rewards = -beta * (np.array(logp_pi) - np.array(logp_ref))
    rewards[-1] += task
    return rewards
