"""Finite-difference checks of the policy's hand-written gradients, for
``test_04`` and ``test_policy.TestGradients``."""

from typing import Callable, Sequence

import numpy as np

from tabreduce.policy import (
    EncodedInstance,
    PolicyParams,
    PpoBatch,
    _count_matrices,
    forward,
    pad_actions,
    ppo_loss_and_grad,
    sft_loss_and_grad,
)


def finite_difference_error(
    params: PolicyParams,
    value_and_grad: Callable[[PolicyParams], tuple[float, PolicyParams]],
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference
    gradients, over every entry of ``flat``."""
    _, grads = value_and_grad(params)
    work = params.copy()
    flat = work.flat
    worst = 0.0
    for i, analytic in enumerate(grads.flat):
        orig = flat[i]
        flat[i] = orig + epsilon
        up, _ = value_and_grad(work)
        flat[i] = orig - epsilon
        down, _ = value_and_grad(work)
        flat[i] = orig
        numeric = (up - down) / (2.0 * epsilon)
        denom = max(1e-6, abs(analytic), abs(numeric))
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def grad_check(
    params: PolicyParams,
    enc: EncodedInstance,
    gold_actions: Sequence[int],
    epsilon: float = 1e-5,
    clip_epsilon: float = 0.2,
) -> float:
    """Finite-difference check of both loss gradients on one instance.

    The surrogate fixture shifts the stored behavior log-probs so some steps
    sit inside the clip region and others strictly outside it, exercising
    both branches away from the kink.
    """
    actions = pad_actions([gold_actions])
    matrices = _count_matrices([enc])

    def sft_fn(p: PolicyParams) -> tuple[float, PolicyParams]:
        return sft_loss_and_grad(p, [enc], actions)

    base_logps = forward(params, matrices, actions).logps
    t = np.arange(base_logps.shape[1])
    offsets = np.where(t % 2 == 0, 0.1, 0.4)
    signs = np.where(t % 3 == 0, -1.0, 1.0)
    batch = PpoBatch(
        matrices, actions,
        old_logps=base_logps - offsets,
        advantages=(signs * (1.0 + 0.25 * t))[None],
        returns=np.linspace(-1.0, 1.0, t.size)[None],
    )

    def ppo_fn(p: PolicyParams) -> tuple[float, PolicyParams]:
        loss, grads, _ = ppo_loss_and_grad(
            p, batch, clip_epsilon=clip_epsilon, value_loss_coef=0.5, entropy_coef=0.01
        )
        return loss, grads

    return max(
        finite_difference_error(params, sft_fn, epsilon),
        finite_difference_error(params, ppo_fn, epsilon),
    )
