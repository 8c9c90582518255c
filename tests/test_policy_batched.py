"""Differential test of the batched policy core against the per-step code it
replaced.

The oracle below is the earlier implementation: an ``_Encoder`` walked one
episode at a time, ``step_distribution`` gave each step's probabilities as
a softmax of ``step_scores``, ``replay_episode`` recomputed each step's
distribution, ``accumulate_episode_grads`` backpropagated step by step, and
the two losses looped over episodes.  Its encodings are per-segment means of
token embeddings; the policy's count-matrix products sum in another order,
so encodings must agree to 1e-13 relative (to the largest magnitude of each
array), and losses, gradients and per-step quantities to 1e-10.  An
instance's encoding must not depend on the batch around it: alone and in any
batch it is bit-identical.  Sampling and greedy decoding are checked against
the oracle's walks fed the policy's own one-instance encodings (the segment
means of the instance's count matrix, ``encodings``).  Given the same encodings and uniforms,
the batched sampler must take the walk's actions, with log-probabilities
and values within 1e-12 (its products are shaped differently, so BLAS
rounds them differently), and a trace must not depend on the episodes it is
stepped with.  The greedy stepper, which decodes many instances together,
must select exactly what the greedy walk selects.  The walk takes the
argmax of its scores and then the lowest remaining candidate whose encoding
is bit-identical to that pick's: the stepper scores such copies exactly
alike and takes the lowest, while the walk's matrix-vector products may
round them apart.  Only ties between bit-identical encodings are settled
so; every other step must agree as it stands.

Episodes travel as padded ``(B, T)`` arrays.  What ``forward`` derives from
them (allowed slots, history weights, picks) must equal bit for bit the
per-step layout built one episode at a time (``oracle_layout``), and the
rollout arithmetic (shaped rewards, returns-to-go, advantages, measured KL)
must equal bit for bit the per-episode loops it replaced.

Sampling, greedy decoding and ``forward`` evaluate one step function, so
between them no tolerance is allowed: unmasked, ``forward`` at the
sampler's width must give sampled episodes the sampler's log-probabilities
and values and, at every step, the stepper's distribution, bit for bit, and
every greedy pick must have its step's largest replayed probability.  The
sampler's and greedy decoder's picks, and the bits of the sampler's
log-probabilities and values, for fixed parameters and uniforms are pinned
by digest, since the stepper's arithmetic is the reference that replay
follows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from tabreduce import dataio, policy, rewards, tasks, training
from tabreduce.errors import ConfigError, NumericalError
from tabreduce.policy import (
    STOP,
    EncodedInstance,
    PolicyParams,
    PpoBatch,
    PpoStats,
)
from encoded_instances import build_vocabulary, encoded, segment_ids
from test_render_fast import oracle_row_pairs

TOLERANCE = 1e-10
ENCODING_TOLERANCE = 1e-13
SAMPLING_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# Oracle: the per-step implementation

def oracle_top_p_mask(probs: np.ndarray, p: float) -> np.ndarray:
    """The top-p mask as a loop over the probability-descending order."""
    order = np.lexsort((np.arange(probs.size), -probs))
    keep = np.zeros(probs.size, dtype=bool)
    cum = 0.0
    for idx in order:
        keep[idx] = True
        cum += probs[idx]
        if cum >= p:
            break
    masked = np.where(keep, probs, 0.0)
    return masked / masked.sum()


def step_scores(params: PolicyParams, question_enc: np.ndarray, history_enc: np.ndarray,
                candidate_encs: np.ndarray) -> np.ndarray:
    """Scores of the remaining candidates (given order) then STOP."""
    n = candidate_encs.shape[0]
    scores = np.empty(n + 1)
    scores[:n] = (question_enc @ params.score_q) @ candidate_encs.T
    scores[:n] += (history_enc @ params.score_h) @ candidate_encs.T
    scores[n] = question_enc @ params.stop_q + history_enc @ params.stop_h + params.stop_b[0]
    return scores


def step_distribution(params: PolicyParams, question_enc: np.ndarray, history_enc: np.ndarray,
                      candidate_encs: np.ndarray) -> np.ndarray:
    """Probabilities over the remaining candidates (given order) then STOP."""
    scores = step_scores(params, question_enc, history_enc, candidate_encs)
    exp = np.exp(scores - scores.max())
    return exp / exp.sum()


def value_estimate(params: PolicyParams, question_enc: np.ndarray, history_enc: np.ndarray) -> float:
    return float(
        question_enc @ params.value_q + history_enc @ params.value_h + params.value_b[0]
    )


def mean_embedding(emb: np.ndarray, ids: Sequence[int]) -> np.ndarray:
    if not ids:
        return np.zeros(emb.shape[1])
    return emb[list(ids)].mean(axis=0)


class _Encoder:
    """Per-episode cache of q, candidate encodings and the history mean.

    The encodings are per-segment means unless ``means`` gives them (the
    question's, then each candidate's)."""

    def __init__(self, params: PolicyParams, enc: EncodedInstance, means: np.ndarray | None = None):
        self.params = params
        if means is not None:
            self.q, self.v = means[0], means[1:]
        else:
            question_ids, *candidate_ids = segment_ids(enc)
            self.q = mean_embedding(params.emb, question_ids)
            self.v = np.stack(
                [mean_embedding(params.emb, ids) for ids in candidate_ids]
            ) if enc.n_candidates else np.zeros((0, params.dim))
        self._selected: list[int] = []
        self.h = np.zeros(params.dim)

    def select(self, candidate: int) -> None:
        self._selected.append(candidate)
        self.h = self.v[self._selected].mean(axis=0)

    def scores(self, remaining: Sequence[int]) -> np.ndarray:
        return step_scores(self.params, self.q, self.h, self.v[list(remaining)])

    def distribution(self, remaining: Sequence[int]) -> np.ndarray:
        return step_distribution(self.params, self.q, self.h, self.v[list(remaining)])


def oracle_sample_episode(params, reference_params, enc, mode="sample", top_p=1.0, uniforms=None,
                          tie_steps=None):
    """The per-episode walk over the policy's one-instance encodings; step t
    of a sampled episode picks where ``uniforms[t]`` falls in the behavior
    distribution's normalized cumulative sum.  A greedy step takes the argmax
    of the scores, then the lowest remaining candidate whose encoding is
    bit-identical to it: such candidates are one candidate to the policy,
    though the walk's matrix-vector products may round their scores apart.
    Each greedy step whose pick had such a copy is appended to
    ``tie_steps`` (when given).  Returns (actions, logp_pi, logp_ref,
    values, selected)."""
    ref = reference_params if reference_params is not None else params
    pi = _Encoder(params, enc, encodings(params, enc))
    theta = _Encoder(ref, enc, encodings(ref, enc))

    remaining = list(range(enc.n_candidates))
    actions: list[int] = []
    logp_pi: list[float] = []
    logp_ref: list[float] = []
    values: list[float] = []

    while True:
        probs = pi.distribution(remaining)
        if mode == "sample" and top_p < 1.0:
            behavior = oracle_top_p_mask(probs, top_p)
        else:
            behavior = probs
        if mode == "greedy":
            pick = int(np.argmax(pi.scores(remaining)))
            if pick < len(remaining):
                key = pi.v[remaining[pick]].tobytes()
                copies = [k for k, c in enumerate(remaining) if pi.v[c].tobytes() == key]
                pick = copies[0]
                if tie_steps is not None and len(copies) > 1:
                    tie_steps.append(len(actions))
        else:
            cdf = np.cumsum(behavior)
            cdf /= cdf[-1]
            pick = int(np.searchsorted(cdf, uniforms[len(actions)], side="right"))
        ref_probs = theta.distribution(remaining)

        values.append(value_estimate(params, pi.q, pi.h))
        logp_pi.append(float(np.log(behavior[pick])))
        logp_ref.append(float(np.log(ref_probs[pick])))

        if pick == len(remaining):  # STOP slot
            actions.append(STOP)
            break
        chosen = remaining.pop(pick)
        actions.append(chosen)
        pi.select(chosen)
        theta.select(chosen)

    return (
        tuple(actions), tuple(logp_pi), tuple(logp_ref), tuple(values),
        frozenset(a for a in actions if a != STOP),
    )


@dataclass
class Replay:
    """Teacher-forced forward pass over a fixed action sequence."""

    logps: np.ndarray       # (T,) log-probability of each taken action
    entropies: np.ndarray   # (T,) step distribution entropies
    values: np.ndarray      # (T,) value head outputs
    probs: list[np.ndarray]
    remaining: list[list[int]]
    histories: list[np.ndarray]
    selected_before: list[list[int]]


def replay_episode(params: PolicyParams, enc: EncodedInstance, actions: Sequence[int]) -> Replay:
    """Recompute per-step distributions for a given action sequence (no mask)."""
    encod = _Encoder(params, enc)
    remaining = list(range(enc.n_candidates))
    logps, entropies, values = [], [], []
    probs_seq: list[np.ndarray] = []
    remaining_seq: list[list[int]] = []
    histories: list[np.ndarray] = []
    selected_seq: list[list[int]] = []
    selected: list[int] = []

    for action in actions:
        probs = encod.distribution(remaining)
        if action == STOP:
            pick = len(remaining)
        else:
            if action not in remaining:
                raise ValueError(f"action {action} not available")
            pick = remaining.index(action)
        with np.errstate(divide="ignore"):
            logs = np.log(probs)
        logps.append(float(logs[pick]))
        entropies.append(float(-(probs * np.where(probs > 0, logs, 0.0)).sum()))
        values.append(value_estimate(params, encod.q, encod.h))
        probs_seq.append(probs)
        remaining_seq.append(list(remaining))
        histories.append(encod.h.copy())
        selected_seq.append(list(selected))
        if action == STOP:
            break
        remaining.remove(action)
        selected.append(action)
        encod.select(action)

    return Replay(
        logps=np.array(logps),
        entropies=np.array(entropies),
        values=np.array(values),
        probs=probs_seq,
        remaining=remaining_seq,
        histories=histories,
        selected_before=selected_seq,
    )


def accumulate_episode_grads(
    params: PolicyParams,
    enc: EncodedInstance,
    actions: Sequence[int],
    replay: Replay,
    grads: PolicyParams,
    logp_coef: np.ndarray,
    entropy_coef: np.ndarray,
    value_coef: np.ndarray,
) -> None:
    """Add d(sum_t logp_coef_t*logp_t + entropy_coef_t*H_t + value_coef_t*V_t)
    to ``grads``.  Backpropagates through scores, encodings, the shared
    history mean, and down to the token embeddings.
    """
    question_ids, *candidate_ids = segment_ids(enc)
    q = mean_embedding(params.emb, question_ids)
    v = np.stack(
        [mean_embedding(params.emb, ids) for ids in candidate_ids]
    ) if enc.n_candidates else np.zeros((0, params.dim))

    dq = np.zeros(params.dim)
    dv = np.zeros_like(v)

    for t, action in enumerate(actions[: len(replay.logps)]):
        remaining = replay.remaining[t]
        probs = replay.probs[t]
        h = replay.histories[t]
        pick = len(remaining) if action == STOP else remaining.index(action)

        dscores = np.zeros(probs.size)
        if logp_coef[t] != 0.0:
            dscores -= logp_coef[t] * probs
            dscores[pick] += logp_coef[t]
        if entropy_coef[t] != 0.0:
            with np.errstate(divide="ignore"):
                logs = np.where(probs > 0, np.log(probs), 0.0)
            dscores += entropy_coef[t] * (-probs * (logs + replay.entropies[t]))

        dh = np.zeros(params.dim)
        if remaining:
            g_vec = dscores[: len(remaining)]
            v_rem = v[remaining]
            gv = v_rem.T @ g_vec  # sum_j g_j v_j
            grads.score_q += np.outer(q, gv)
            grads.score_h += np.outer(h, gv)
            dq += params.score_q @ gv
            dh += params.score_h @ gv
            shared = params.score_q.T @ q + params.score_h.T @ h
            dv[remaining] += np.outer(g_vec, shared)
        g_stop = dscores[-1]
        if g_stop != 0.0:
            grads.stop_q += g_stop * q
            grads.stop_h += g_stop * h
            grads.stop_b[0] += g_stop
            dq += g_stop * params.stop_q
            dh += g_stop * params.stop_h

        if value_coef[t] != 0.0:
            gv_t = value_coef[t]
            grads.value_q += gv_t * q
            grads.value_h += gv_t * h
            grads.value_b[0] += gv_t
            dq += gv_t * params.value_q
            dh += gv_t * params.value_h

        selected = replay.selected_before[t]
        if selected and dh.any():
            share = dh / len(selected)
            for cand in selected:
                dv[cand] += share

    if question_ids and dq.any():
        per_token = dq / len(question_ids)
        for tok in question_ids:
            grads.emb[tok] += per_token
    for cand, ids in enumerate(candidate_ids):
        if ids and dv[cand].any():
            per_token = dv[cand] / len(ids)
            for tok in ids:
                grads.emb[tok] += per_token


def oracle_layout(enc: EncodedInstance, actions: Sequence[int]):
    """The per-step layout the batched forward derives, built step by step:
    the actions through the first STOP (a ValueError for one that is not
    available), and per step the candidates still available and the
    history-mean weights (1/k on each of the k candidates selected before
    it).  Returns (steps, available, history)."""
    n = enc.n_candidates
    steps: list[int] = []
    for action in actions:
        steps.append(action)
        if action == STOP:
            break
    available = np.ones((len(steps), n), dtype=bool)
    history = np.zeros((len(steps), n))
    chosen: list[int] = []
    for t, action in enumerate(steps):
        if chosen:
            available[t, chosen] = False
            history[t, chosen] = 1.0 / len(chosen)
        if action == STOP:
            break
        if not 0 <= action < n or action in chosen:
            raise ValueError(f"action {action} not available")
        chosen.append(action)
    return steps, available, history


@dataclass(frozen=True)
class Trace:
    """One sampled episode's steps, cut from the ``(n, W)`` arrays."""

    actions: tuple[int, ...]
    logp_pi: tuple[float, ...]
    logp_ref: tuple[float, ...]
    values: tuple[float, ...]

    @property
    def selected(self) -> frozenset[int]:
        return frozenset(a for a in self.actions if a != STOP)


def traces(sampled: policy.SampledEpisodes) -> list[Trace]:
    """Each episode of ``sampled``; asserts that its arrays read STOP and 0
    after each episode's last step, which is its only STOP."""
    out = []
    for k, n in enumerate(sampled.steps.tolist()):
        assert (sampled.actions[k, n:] == STOP).all() and sampled.actions[k, n - 1] == STOP
        assert STOP not in sampled.actions[k, : n - 1]
        for name in ("logp_pi", "logp_ref", "values"):
            assert (getattr(sampled, name)[k, n:] == 0.0).all()
        out.append(Trace(*(tuple(getattr(sampled, name)[k, :n].tolist())
                           for name in ("actions", "logp_pi", "logp_ref", "values"))))
    return out


def params_equal(a: PolicyParams, b: PolicyParams) -> bool:
    """Same vocabulary and bit-identical arrays."""
    return a.vocab.tokens == b.vocab.tokens and all(
        np.array_equal(x, y) for x, y in zip(a.arrays().values(), b.arrays().values())
    )


def episodes_of(batch):
    """``(encs, actions)`` of a list of (encoding, action sequence) pairs."""
    return [enc for enc, _ in batch], policy.pad_actions([actions for _, actions in batch])


def encodings(params, enc) -> np.ndarray:
    """The policy's encodings of ``enc`` alone: the segment means of its
    count matrix, the question's first."""
    return policy.count_matrices([enc])[0].means(params.emb)


def forward_of(params, encs, actions):
    """``policy.forward`` on the count matrices of ``encs``."""
    return policy.forward(params, policy.count_matrices(encs), actions)


def oracle_sft_loss_and_grad(params, batch):
    grads = PolicyParams(params.vocab, params.dim)
    total = 0.0
    scale = -1.0 / len(batch)
    for enc, actions in batch:
        replay = replay_episode(params, enc, actions)
        total += replay.logps.sum()
        steps = len(replay.logps)
        accumulate_episode_grads(
            params, enc, actions, replay, grads,
            logp_coef=np.full(steps, scale),
            entropy_coef=np.zeros(steps),
            value_coef=np.zeros(steps),
        )
    return -total / len(batch), grads


def oracle_ppo_loss_and_grad(params, batch, clip_epsilon, value_loss_coef, entropy_coef):
    grads = PolicyParams(params.vocab, params.dim)
    n_steps = sum(len(ex.old_logps) for ex in batch)
    pol_sum = val_sum = ent_sum = ratio_sum = 0.0
    clipped = 0
    for ex in batch:
        replay = replay_episode(params, ex.enc, ex.actions)
        steps = len(replay.logps)
        ratios = np.exp(replay.logps - ex.old_logps)
        surr1 = ratios * ex.advantages
        surr2 = np.clip(ratios, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * ex.advantages
        take_unclipped = surr1 <= surr2
        pol_sum += -np.minimum(surr1, surr2).sum()
        clipped += int((~take_unclipped).sum())
        ratio_sum += ratios.sum()

        errors = replay.values - ex.returns
        val_sum += float((errors**2).sum())
        ent_sum += float(replay.entropies.sum())

        logp_coef = np.where(take_unclipped, -ratios * ex.advantages / n_steps, 0.0)
        value_coef = value_loss_coef * 2.0 * errors / n_steps
        ent_coef_vec = np.full(steps, -entropy_coef / n_steps)
        accumulate_episode_grads(
            params, ex.enc, ex.actions, replay, grads,
            logp_coef=logp_coef,
            entropy_coef=ent_coef_vec,
            value_coef=value_coef,
        )
    policy_loss = pol_sum / n_steps
    value_loss = val_sum / n_steps
    entropy = ent_sum / n_steps
    loss = policy_loss + value_loss_coef * value_loss - entropy_coef * entropy
    stats = PpoStats(
        policy_loss=policy_loss,
        value_loss=value_loss,
        entropy=entropy,
        clip_fraction=clipped / n_steps,
        mean_ratio=ratio_sum / n_steps,
    )
    return loss, grads, stats


# ---------------------------------------------------------------------------
# Random instances

VOCAB = policy.Vocabulary(tuple(f"w{i}" for i in range(40)))


def random_params(seed: int, dim: int = 8) -> PolicyParams:
    """Sharper-than-init scores and a non-zero value head."""
    params = policy.init_params(VOCAB, dim, seed=seed)
    rng = np.random.default_rng(seed + 1)
    params.emb *= 4.0
    params.score_q *= 3.0
    params.score_h *= 3.0
    params.value_q[...] = rng.uniform(-0.5, 0.5, dim)
    params.value_h[...] = rng.uniform(-0.5, 0.5, dim)
    params.value_b[...] = rng.uniform(-0.5, 0.5, 1)
    return params


def random_instance(rng, n_candidates: int, question_len: int | None = None) -> EncodedInstance:
    if question_len is None:
        question_len = int(rng.integers(1, 7))
    tokens = lambda k: tuple(int(t) for t in rng.integers(0, VOCAB.size, size=k))
    return encoded(tokens(question_len), [tokens(int(rng.integers(0, 5))) for _ in range(n_candidates)])


def random_actions(rng, n_candidates: int, max_picks: int = 6) -> tuple[int, ...]:
    k = int(rng.integers(0, min(n_candidates, max_picks) + 1))
    return tuple(int(a) for a in rng.permutation(n_candidates)[:k]) + (STOP,)


def mixed_batch(seed: int) -> list[tuple[EncodedInstance, tuple[int, ...]]]:
    """Different T and N in one minibatch, with the edge cases: an empty
    question, zero candidates, a STOP-only episode on a full instance, a
    row-length candidate set and an episode that takes every candidate."""
    rng = np.random.default_rng(seed)
    batch = [
        (random_instance(rng, 5, question_len=0), random_actions(rng, 5)),
        (random_instance(rng, 0), (STOP,)),
        (random_instance(rng, 7), (STOP,)),
        (random_instance(rng, 160), random_actions(rng, 160, max_picks=9)),
        (random_instance(rng, 6), tuple(int(a) for a in rng.permutation(6)) + (STOP,)),
    ]
    for _ in range(6):
        n = int(rng.integers(1, 13))
        batch.append((random_instance(rng, n), random_actions(rng, n)))
    order = rng.permutation(len(batch))
    return [batch[i] for i in order]


@dataclass(frozen=True)
class OracleExample:
    """One episode for the per-episode PPO oracle."""

    enc: EncodedInstance
    actions: tuple[int, ...]
    old_logps: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


def ppo_batch(params, seed: int, zero_advantages: bool = False) -> list[OracleExample]:
    rng = np.random.default_rng(seed + 100)
    examples = []
    for enc, actions in mixed_batch(seed):
        logps = replay_episode(params, enc, actions).logps
        steps = len(logps)
        examples.append(OracleExample(
            enc=enc,
            actions=actions,
            old_logps=logps - rng.uniform(-0.6, 0.6, steps),
            advantages=np.zeros(steps) if zero_advantages else rng.normal(size=steps),
            returns=rng.normal(size=steps),
        ))
    return examples


def padded(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Per-episode step vectors as one zero-padded array."""
    out = np.zeros((len(rows), max(len(row) for row in rows)))
    for b, row in enumerate(rows):
        out[b, : len(row)] = row
    return out


def as_ppo_batch(examples: Sequence[OracleExample]) -> PpoBatch:
    return PpoBatch(
        policy.count_matrices([ex.enc for ex in examples]),
        policy.pad_actions([ex.actions for ex in examples]),
        *(padded([getattr(ex, name) for ex in examples])
          for name in ("old_logps", "advantages", "returns")),
    )


def relative_error(actual, expected) -> float:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    diff = float(np.abs(actual - expected).max(initial=0.0))
    scale = float(np.abs(expected).max(initial=0.0))
    return diff / scale if scale > 0 else diff


def assert_grads_agree(actual, expected) -> None:
    actual, expected = actual.arrays(), expected.arrays()
    assert actual.keys() == expected.keys()
    for name in expected:
        err = relative_error(actual[name], expected[name])
        assert err <= TOLERANCE, f"{name}: relative error {err:.2e}"


# ---------------------------------------------------------------------------
# Tests

def test_segment_means_match_oracle():
    params = random_params(0)
    encs = [enc for enc, _ in mixed_batch(0)]
    for enc, matrix in zip(encs, policy.count_matrices(encs)):
        means = matrix.means(params.emb)
        oracle = _Encoder(params, enc)
        assert relative_error(means[0], oracle.q) <= ENCODING_TOLERANCE
        assert relative_error(means[1:], oracle.v) <= ENCODING_TOLERANCE


@pytest.mark.parametrize("seed", range(4))
def test_forward_matches_replay(seed):
    params = random_params(seed)
    batch = mixed_batch(seed)
    fw = forward_of(params, *episodes_of(batch))
    for b, (enc, actions) in enumerate(batch):
        replay = replay_episode(params, enc, actions)
        walker = _Encoder(params, enc)
        steps = len(replay.logps)
        assert fw.valid[b, :steps].all() and not fw.valid[b, steps:].any()
        assert relative_error(fw.logps[b, :steps], replay.logps) <= TOLERANCE
        assert relative_error(fw.entropies[b, :steps], replay.entropies) <= TOLERANCE
        assert relative_error(fw.values[b, :steps], replay.values) <= TOLERANCE
        assert relative_error(fw.h[b, :steps], np.stack(replay.histories)) <= TOLERANCE
        assert relative_error(fw.q[b], walker.q) <= ENCODING_TOLERANCE
        for t in range(steps):
            probs = fw.probs[b, t][fw.allowed[b, t]]
            assert relative_error(probs, replay.probs[t]) <= TOLERANCE


@pytest.mark.parametrize("seed", range(4))
def test_sft_matches_oracle(seed):
    params = random_params(seed)
    batch = mixed_batch(seed)
    loss, grads = policy.sft_loss_and_grad(params, *episodes_of(batch))
    oracle_loss, oracle_grads = oracle_sft_loss_and_grad(params, batch)
    assert relative_error(loss, oracle_loss) <= TOLERANCE
    assert_grads_agree(grads, oracle_grads)


@pytest.mark.parametrize(
    "value_loss_coef, entropy_coef, zero_advantages",
    [
        (0.5, 0.01, False),   # the training defaults
        (0.0, 0.05, True),    # entropy term only
        (0.5, 0.0, True),     # value term only
        (0.0, 0.0, False),    # surrogate only
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_ppo_matches_oracle(seed, value_loss_coef, entropy_coef, zero_advantages):
    params = random_params(seed)
    batch = ppo_batch(params, seed, zero_advantages)
    loss, grads, stats = policy.ppo_loss_and_grad(
        params, as_ppo_batch(batch), 0.2, value_loss_coef, entropy_coef
    )
    oracle_loss, oracle_grads, oracle_stats = oracle_ppo_loss_and_grad(
        params, batch, 0.2, value_loss_coef, entropy_coef
    )
    assert relative_error(loss, oracle_loss) <= TOLERANCE
    assert_grads_agree(grads, oracle_grads)
    for name in ("policy_loss", "value_loss", "entropy", "clip_fraction", "mean_ratio"):
        err = relative_error(getattr(stats, name), getattr(oracle_stats, name))
        assert err <= TOLERANCE, f"{name}: relative error {err:.2e}"
    if not zero_advantages:
        assert 0.0 < stats.clip_fraction < 1.0  # both surrogate branches ran


@pytest.mark.parametrize("seed", range(4))
def test_forward_layout_matches_per_step_oracle(seed):
    """The allowed slots, history weights and picks that ``forward`` derives
    from a padded minibatch are bit for bit the per-step layout, padded."""
    params = random_params(seed)
    for batch_seed in range(25 * seed, 25 * seed + 25):
        assert_layout_matches_oracle(params, mixed_batch(batch_seed))


def assert_layout_matches_oracle(params, batch) -> None:
    fw = forward_of(params, *episodes_of(batch))
    n_max = max(enc.n_candidates for enc, _ in batch)
    t_max = max(len(actions) for _, actions in batch)
    allowed = np.zeros((len(batch), t_max, n_max + 1), dtype=bool)
    allowed[..., n_max] = True
    weights = np.zeros((len(batch), t_max, n_max))
    picks = np.full((len(batch), t_max), n_max)
    for b, (enc, actions) in enumerate(batch):
        steps, available, history = oracle_layout(enc, actions)
        t, n = available.shape
        allowed[b, :t, :n] = available
        weights[b, :t, :n] = history
        picks[b, :t] = [n_max if a == STOP else a for a in steps]
    assert np.array_equal(fw.allowed, allowed)
    assert np.array_equal(fw.weights, weights)
    assert np.array_equal(fw.picks, picks)
    assert any(enc.n_candidates == 0 for enc, _ in batch)
    assert any(len(actions) == enc.n_candidates + 1 > 1 for enc, actions in batch)
    assert any(actions == (STOP,) and enc.n_candidates for enc, actions in batch)


def test_unavailable_action_rejected():
    enc = encoded((1,), [(2,), (3,)])
    params = random_params(0)
    for actions in ((0, 0, STOP), (2, STOP), (-2, STOP), (1, 0, 1)):
        with pytest.raises(ValueError, match="not available"):
            oracle_layout(enc, actions)
        with pytest.raises(ValueError, match="not available"):
            forward_of(params, [enc], policy.pad_actions([actions]))
    # a bad action in any row of a minibatch
    other = encoded((1,), [(2,)] * 4)
    with pytest.raises(ValueError, match="action 3 not available"):
        forward_of(params, [other, enc], policy.pad_actions([(3, STOP), (0, 3, STOP)]))


def test_actions_after_stop_ignored():
    params = random_params(1)
    enc = random_instance(np.random.default_rng(1), 4)
    full = policy.sft_loss_and_grad(params, [enc], policy.pad_actions([(1, STOP, 2, 3)]))
    short = policy.sft_loss_and_grad(params, [enc], policy.pad_actions([(1, STOP)]))
    assert full[0] == short[0]
    # nor are out-of-range or repeated ones
    bad = policy.sft_loss_and_grad(params, [enc], policy.pad_actions([(1, STOP, 9, 1)]))
    assert bad[0] == short[0]


def test_non_finite_scores_raise():
    params = random_params(2)
    params.score_q[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        policy.sft_loss_and_grad(params, *episodes_of(mixed_batch(2)))


def test_empty_batches_rejected():
    params = random_params(3)
    with pytest.raises(ConfigError):
        policy.sft_loss_and_grad(params, [], policy.pad_actions([]))
    empty = np.zeros((0, 1))
    with pytest.raises(ConfigError):
        policy.ppo_loss_and_grad(params, PpoBatch([], empty, empty, empty, empty), 0.2, 0.5, 0.01)


@pytest.mark.parametrize("target", [tasks.TARGET_COLUMNS, tasks.TARGET_ROWS])
def test_greedy_reduction_bit_identical(target):
    cfg = dataio.SynthConfig(n_instances=8, rows_range=(150, 170), seed=5, annotate=False)
    instances = dataio.generate_synthetic(cfg)
    context = frozenset({0, 1})
    texts = [inst.question for inst in instances]
    for inst in instances:
        texts += (inst.table.columns if target == tasks.TARGET_COLUMNS
                  else [oracle_row_pairs(inst.table, row, sorted(context)) for row in inst.table.rows])
    vocab = build_vocabulary(texts)
    params = policy.init_params(vocab, 16, seed=7)
    encs = tasks.encode(vocab, instances, target, [context] * len(instances))
    expected = [oracle_sample_episode(params, None, enc, mode="greedy")[-1] for enc in encs]
    assert policy.greedy_decode(params, encs).selected == expected


def tie_prone_instances(rng, count: int) -> list[EncodedInstance]:
    """Mixed sizes, from zero candidates to 160, rich in ties: some
    candidates are exact copies of another and some hold the same tokens in
    another order, which encode identically too (the count matrix does not
    see token order)."""
    tokens = lambda k: tuple(int(t) for t in rng.integers(0, VOCAB.size, size=k))
    sizes = rng.choice([0, 1, 2, 5, 12, 30, 160], p=[0.08, 0.1, 0.12, 0.3, 0.25, 0.13, 0.02],
                       size=count)
    instances = []
    for n in sizes:
        candidates = [tokens(int(rng.integers(0, 9))) for _ in range(n)]
        for _ in range(int(rng.integers(0, 6)) if n >= 2 else 0):
            a, b = rng.choice(n, 2, replace=False)
            copy = candidates[a] if rng.random() < 0.4 else rng.permutation(candidates[a])
            candidates[b] = tuple(int(t) for t in copy)
        instances.append(encoded(tokens(int(rng.integers(0, 7))), candidates))
    return instances


@pytest.mark.parametrize("dim", [1, 3, 8, 16, 64])
def test_greedy_decode_matches_per_step_walk(dim):
    rng = np.random.default_rng(dim)
    params = random_params(dim, dim)
    tie_steps: list[int] = []
    stop_first = 0
    for _ in range(5):
        encs = tie_prone_instances(rng, 80)
        decoded = policy.greedy_decode(params, encs)
        expected = [oracle_sample_episode(params, None, enc, mode="greedy", tie_steps=tie_steps)[-1]
                    for enc in encs]
        assert decoded.selected == expected
        assert decoded.steps == sum(len(sel) + 1 for sel in expected)
        stop_first += sum(1 for enc, sel in zip(encs, expected) if enc.n_candidates and not sel)
    # some picks had a bit-identical copy left, and some instances with
    # candidates stopped at once
    assert len(tie_steps) > 0
    assert stop_first > 0


def test_greedy_decode_non_finite_scores_raise():
    params = random_params(2)
    params.score_q[0, 0] = np.inf
    encs = [enc for enc, _ in mixed_batch(2)]
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        policy.greedy_decode(params, encs)


@pytest.mark.parametrize("seed", range(3))
def test_encodings_batch_independent(seed):
    """An instance's encoding depends only on it and the parameters: alone,
    inside a padded batch (``_embed_padded``) and inside ``forward`` it is
    bit-identical, and a shuffled batch decodes to the same selections."""
    rng = np.random.default_rng(seed)
    params = random_params(seed)
    encs = [enc for enc, _ in mixed_batch(seed)] + tie_prone_instances(rng, 80)
    batched_q, batched_v = policy._embed_padded(params, policy.count_matrices(encs))
    fw = forward_of(params, encs, policy.pad_actions([(STOP,)] * len(encs)))
    for k, enc in enumerate(encs):
        means = encodings(params, enc)
        alone_q, alone_v = means[0], means[1:]
        n = enc.n_candidates
        assert np.array_equal(batched_q[k], alone_q) and np.array_equal(batched_v[k, :n], alone_v)
        assert np.array_equal(fw.q[k], alone_q) and np.array_equal(fw.v[k, :n], alone_v)
        oracle = _Encoder(params, enc)
        assert relative_error(alone_q, oracle.q) <= ENCODING_TOLERANCE
        assert relative_error(alone_v, oracle.v) <= ENCODING_TOLERANCE
    decoded = policy.greedy_decode(params, encs).selected
    order = rng.permutation(len(encs))
    shuffled = policy.greedy_decode(params, [encs[i] for i in order]).selected
    assert shuffled == [decoded[i] for i in order]


# ---------------------------------------------------------------------------
# Sampling

def sampling_batch(seed: int) -> list[EncodedInstance]:
    """The mixed batch's edge cases and a tie-prone batch, in one list."""
    return [enc for enc, _ in mixed_batch(seed)] + tie_prone_instances(np.random.default_rng(seed), 40)


def block_of_uniforms(seed: int, encs) -> np.ndarray:
    width = 1 + max(enc.n_candidates for enc in encs)
    return np.random.default_rng([seed, 1]).random((len(encs), width))


def assert_close_per_step(actual, expected) -> None:
    actual, expected = np.array(actual), np.array(expected)
    assert actual.shape == expected.shape
    scale = np.maximum(1.0, np.abs(expected))
    assert np.all(np.abs(actual - expected) <= SAMPLING_TOLERANCE * scale)


@pytest.mark.parametrize("top_p", [1.0, 0.9])
@pytest.mark.parametrize("seed", range(3))
def test_sample_episodes_match_oracle(seed, top_p):
    params = random_params(seed)
    reference = random_params(seed + 50) if seed != 2 else None
    encs = sampling_batch(seed)
    uniforms = block_of_uniforms(seed, encs)
    ref = params if reference is None else reference
    sampled = traces(policy.sample_episodes(params, ref, policy.count_matrices(encs), uniforms, top_p))
    stopped_at_once = 0
    for k, (enc, trace) in enumerate(zip(encs, sampled)):
        actions, logp_pi, logp_ref, values, selected = oracle_sample_episode(
            params, reference, enc, top_p=top_p, uniforms=uniforms[k]
        )
        assert trace.actions == actions and trace.selected == selected
        assert_close_per_step(trace.logp_pi, logp_pi)
        assert_close_per_step(trace.logp_ref, logp_ref)
        assert_close_per_step(trace.values, values)
        stopped_at_once += enc.n_candidates > 0 and actions == (STOP,)
    assert stopped_at_once > 0
    assert max(len(t.actions) for t in sampled) > 3
    greedy = policy.greedy_decode(params, encs).selected
    assert greedy == [oracle_sample_episode(params, None, enc, mode="greedy")[-1] for enc in encs]


@pytest.mark.parametrize("seed", range(3))
def test_sample_episodes_independent_of_runs(seed, monkeypatch):
    """A trace depends on its encodings and its row of uniforms only: not
    on how the episodes are cut into runs, nor on their order."""
    params = random_params(seed)
    reference = random_params(seed + 50)
    encs = sampling_batch(seed)
    uniforms = block_of_uniforms(seed, encs)
    matrices = policy.count_matrices(encs)
    whole = traces(policy.sample_episodes(params, reference, matrices, uniforms, 0.9))
    width = uniforms.shape[1]
    for block in (width, 3 * width, 7 * width + 1):
        monkeypatch.setattr(policy, "_SEGMENT_BLOCK", block)
        assert traces(policy.sample_episodes(params, reference, matrices, uniforms, 0.9)) == whole
    monkeypatch.undo()
    order = np.random.default_rng(seed).permutation(len(encs))
    shuffled = traces(policy.sample_episodes(
        params, reference, [matrices[i] for i in order], uniforms[order], 0.9
    ))
    assert shuffled == [whole[i] for i in order]


def test_pick_is_generator_choice_arithmetic():
    rng = np.random.default_rng(4)
    for _ in range(2000):
        n = int(rng.integers(1, 12))
        behavior = rng.dirichlet(np.ones(n) * 0.5)
        behavior[rng.random(n) < 0.2] = 0.0
        if behavior.sum() == 0.0:
            behavior[0] = 1.0
        behavior /= behavior.sum()
        seed = int(rng.integers(1 << 30))
        cdf = np.cumsum(behavior)
        cdf /= cdf[-1]
        pick = np.searchsorted(cdf, np.random.default_rng(seed).random(), side="right")
        assert pick == np.random.default_rng(seed).choice(n, p=behavior)


def test_sample_episodes_non_finite_scores_raise():
    params = random_params(2)
    params.score_q[0, 0] = np.inf
    encs = sampling_batch(2)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        policy.sample_episodes(params, params, policy.count_matrices(encs), block_of_uniforms(2, encs), 0.9)


def test_sample_episodes_needs_a_uniform_per_step():
    params = random_params(0)
    encs = sampling_batch(0)
    uniforms = block_of_uniforms(0, encs)
    matrices = policy.count_matrices(encs)
    with pytest.raises(ValueError):
        policy.sample_episodes(params, params, matrices, uniforms[:, :-1])
    with pytest.raises(ValueError):
        policy.sample_episodes(params, params, matrices, uniforms[1:])


# ---------------------------------------------------------------------------
# Replay equals sampling

def replay_batches(seed: int):
    """The sampling batch and the mixed batch's instances (0, 1 and 160
    candidates among them)."""
    return [sampling_batch(seed), [enc for enc, _ in mixed_batch(seed)]]


@pytest.mark.parametrize("dim", [8, 64, 96])
@pytest.mark.parametrize("seed", range(3))
def test_forward_replays_sampling_bit_for_bit(seed, dim):
    """Unmasked, ``forward`` at the sampler's width gives the sampled
    episodes the log-probabilities and values the sampler recorded, and at
    every step the stepper's distribution, bit for bit."""
    params = random_params(seed, dim)
    for encs in replay_batches(seed):
        uniforms = block_of_uniforms(seed, encs)
        sampled = policy.sample_episodes(params, params, policy.count_matrices(encs), uniforms, 1.0)
        fw = forward_of(params, encs, sampled.actions)
        t_max = int(sampled.steps.max())
        assert fw.probs.shape == (len(encs), t_max, uniforms.shape[1])
        assert np.array_equal(fw.logps, sampled.logp_pi[:, :t_max])
        assert np.array_equal(fw.values, sampled.values[:, :t_max])
        stepper = policy._Stepper(params, policy.count_matrices(encs), uniforms.shape[1] - 1)
        for t in range(t_max):
            live = fw.valid[:, t]
            probs, _ = policy._log_softmax(stepper.scores(), stepper.allowed)
            assert np.array_equal(fw.probs[live, t], probs[live])
            go = live & (sampled.actions[:, t] != STOP)
            stepper.select(np.flatnonzero(go), sampled.actions[go, t])


@pytest.mark.parametrize("seed", range(3))
def test_top_p_one_replays_bit_for_bit(seed):
    """``top_p`` 1.0 is the unmasked path, with a reference too: ``forward``
    replays the sampled log-probabilities bit for bit, and the episodes are
    those of the default ``top_p``."""
    params, reference = random_params(seed, 32), random_params(seed + 50, 32)
    for encs in replay_batches(seed):
        uniforms = block_of_uniforms(seed, encs)
        matrices = policy.count_matrices(encs)
        sampled = policy.sample_episodes(params, reference, matrices, uniforms, 1.0)
        default = policy.sample_episodes(params, reference, matrices, uniforms)
        assert all(np.array_equal(getattr(sampled, name), getattr(default, name))
                   for name in ("actions", "logp_pi", "logp_ref", "values", "steps"))
        fw = forward_of(params, encs, sampled.actions)
        assert np.array_equal(fw.logps, sampled.logp_pi[:, :int(sampled.steps.max())])


@pytest.mark.parametrize("seed", range(3))
def test_greedy_picks_have_largest_replayed_probability(seed):
    """Replayed through ``forward``, every greedy pick, STOP included, has
    the largest probability of its step.  ``greedy_decode`` returns sets,
    so each step's pick is the lowest remaining selected candidate of that
    probability (bit-identical copies replay alike in either order)."""
    params = random_params(seed, 16)
    for encs in replay_batches(seed):
        selected = policy.greedy_decode(params, encs).selected
        matrices = policy.count_matrices(encs)
        taken: list[list[int]] = [[] for _ in encs]
        live = list(range(len(encs)))
        while live:
            fw = policy.forward(params, [matrices[b] for b in live],
                                policy.pad_actions([taken[b] + [STOP] for b in live]))
            picking = []
            for row, b in enumerate(live):
                probs = fw.probs[row, len(taken[b])]
                left = sorted(selected[b] - set(taken[b]))
                best = max([probs[k] for k in left], default=probs[-1])  # STOP once none is left
                assert best == probs.max()
                if left:
                    taken[b].append(next(k for k in left if probs[k] == best))
                    picking.append(b)
            live = picking
        assert [frozenset(p) for p in taken] == selected


# Digests of ``sample_episodes``' actions and steps (unmasked, the current
# parameters their own reference; top-p 0.9 with another reference) and of ``greedy_decode``'s selections, for
# (dim, seed).  ``forward`` follows the stepper's arithmetic, not the other
# way round, so a change to that arithmetic shows here as moved picks.
PINNED_PICKS = {
    (8, 0): ("b097e510f6282702", "91a968d98d8194aa", "55388118000a7c6c"),
    (8, 1): ("396b2d343973f7f1", "63d0bbe446d32e00", "d3805587ca38bfcd"),
    (8, 2): ("e480924c22f6d6a8", "2e4ffc9199e8f838", "bcb6c097b76d822d"),
    (64, 0): ("5d481b8324672b97", "940e1e2fdb0b8100", "0609c9924ba7d2ca"),
    (64, 1): ("5024f7f7e2d81385", "8fb5c558e5efa08e", "64dc2e68600f357b"),
    (64, 2): ("0627f6fa2876f9c7", "94a03df347df8ea3", "ce25488346716008"),
}


def int_digest(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("dim, seed", sorted(PINNED_PICKS))
def test_sampled_and_greedy_picks_pinned(dim, seed):
    params, reference = random_params(seed, dim), random_params(seed + 50, dim)
    encs = sampling_batch(seed)
    uniforms = block_of_uniforms(seed, encs)
    matrices = policy.count_matrices(encs)
    plain = policy.sample_episodes(params, params, matrices, uniforms, 1.0)
    masked = policy.sample_episodes(params, reference, matrices, uniforms, 0.9)
    greedy = policy.greedy_decode(params, encs).selected
    assert (
        int_digest([plain.actions, plain.steps]),
        int_digest([masked.actions, masked.steps]),
        int_digest([[len(sel), *sorted(sel)] for sel in greedy]),
    ) == PINNED_PICKS[dim, seed]


# Digests of the bits of ``sample_episodes``' ``logp_pi``, ``logp_ref`` and
# ``values`` for (dim, seed), at top-p 1.0 and 0.9, with another reference
# and with the current parameters as their own.  They pin the rounding of
# the sampler's encodings and step arithmetic, not just its picks, so a
# change to how the sampler encodes or steps cannot move a log-probability
# unseen.  Float bits follow the BLAS kernels, so another BLAS build may
# round them otherwise.
PINNED_SAMPLED_BITS = {
    (8, 0): ("5f0698cff783d9bc", "78721f9033ac6302", "b8ba0d6b65d37f3b", "a70c039c42edcb8c"),
    (8, 1): ("ca08b3d28b5d83cc", "02af72263e360beb", "3550b888fefc0e92", "19990ed7c2b4f74b"),
    (8, 2): ("74f0aac32bf9d11a", "d3ff71cdc4b7ea3b", "d1a24e9dacb7bc87", "9d49c2bc640e7d46"),
    (64, 0): ("bd99f86953095bde", "2838c9c3802bc7fc", "975fbab300efba3a", "31bde1ecd7c88a64"),
    (64, 1): ("e81d5ea9d0aed728", "fcdf41e0c0563bc2", "e4c7a42b644a4bb8", "b181018e1c8d8a0f"),
    (64, 2): ("359f3b264a4c7224", "7dfa727bd3516fee", "c0609431a1c1af5a", "d717f25d4e06a97e"),
}


def float_digest(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("dim, seed", sorted(PINNED_SAMPLED_BITS))
def test_sampled_float_bits_pinned(dim, seed):
    params, reference = random_params(seed, dim), random_params(seed + 50, dim)
    encs = sampling_batch(seed)
    uniforms = block_of_uniforms(seed, encs)
    matrices = policy.count_matrices(encs)
    digests = []
    for top_p in (1.0, 0.9):
        for ref in (reference, params):
            sampled = policy.sample_episodes(params, ref, matrices, uniforms, top_p)
            digests.append(float_digest([sampled.logp_pi, sampled.logp_ref, sampled.values]))
    assert tuple(digests) == PINNED_SAMPLED_BITS[dim, seed]


# ---------------------------------------------------------------------------
# Rollout arithmetic: the per-episode loops it replaced

def oracle_shaped_reward(task, logp_pi, logp_ref, beta) -> np.ndarray:
    rewards = -beta * (np.array(logp_pi) - np.array(logp_ref))
    rewards[-1] += task
    return rewards


def oracle_returns_to_go(rewards, discount) -> np.ndarray:
    g = np.zeros(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + discount * acc
        g[t] = acc
    return g


def oracle_advantages(step_rewards, values, discount):
    """Per episode, its returns-to-go and its normalized advantages."""
    returns = [oracle_returns_to_go(r, discount) for r in step_rewards]
    raw = [g - np.array(v) for g, v in zip(returns, values)]
    flat = np.concatenate(raw)
    mean = flat.mean()
    std = flat.std()
    return returns, [(adv - mean) / (std + 1e-8) for adv in raw]


def oracle_measured_kl(episodes: Sequence[Trace]) -> float:
    total = 0.0
    count = 0
    for trace in episodes:
        total += sum(trace.logp_pi) - sum(trace.logp_ref)
        count += len(trace.logp_pi)
    return total / count if count else 0.0


def assert_rows_equal(padded_rows: np.ndarray, rows, steps) -> None:
    """Row k of ``padded_rows`` is ``rows[k]`` bit for bit, then zeros."""
    for k, (row, n) in enumerate(zip(rows, steps.tolist())):
        assert np.array_equal(padded_rows[k, :n], row)
        assert (padded_rows[k, n:] == 0.0).all()


def test_returns_to_go_match_per_episode_loop():
    rng = np.random.default_rng(8)
    for discount in (1.0, 0.5, 0.99, 0.0):
        steps = rng.integers(1, 30, size=50)
        rows = [rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n) for n in steps]
        returns = training._returns_to_go(padded(rows), discount)
        assert_rows_equal(returns, [oracle_returns_to_go(r, discount) for r in rows], steps)


@pytest.mark.parametrize("discount", [1.0, 0.5])
@pytest.mark.parametrize("seed", range(3))
def test_rollout_arithmetic_matches_per_episode_loop(seed, discount):
    """Shaped rewards, returns, advantages and the measured KL of a sampled
    rollout equal, bit for bit, those of the per-episode loops."""
    rng = np.random.default_rng([seed, 9])
    params, reference = random_params(seed), random_params(seed + 50)
    encs = sampling_batch(seed)
    sampled = policy.sample_episodes(
        params, reference, policy.count_matrices(encs), block_of_uniforms(seed, encs), 0.9
    )
    task = rng.normal(scale=3.0, size=len(encs))
    beta = float(rng.uniform(0.01, 0.5))
    step_rewards = rewards.shaped_reward(task, sampled.logp_pi, sampled.logp_ref, sampled.steps, beta)
    rollout = training.Rollout(policy.count_matrices(encs), sampled, task, step_rewards)
    batch = training.compute_advantages(rollout, discount)

    episodes = traces(sampled)
    expected_rewards = [oracle_shaped_reward(r, t.logp_pi, t.logp_ref, beta)
                        for r, t in zip(task.tolist(), episodes)]
    returns, advantages = oracle_advantages(expected_rewards, [t.values for t in episodes], discount)
    assert_rows_equal(step_rewards, expected_rewards, sampled.steps)
    assert_rows_equal(batch.returns, returns, sampled.steps)
    assert_rows_equal(batch.advantages, advantages, sampled.steps)
    assert_rows_equal(batch.old_logps, [t.logp_pi for t in episodes], sampled.steps)
    assert np.array_equal(batch.actions, sampled.actions) and batch.matrices is rollout.matrices
    assert rollout.measured_kl == oracle_measured_kl(episodes) != 0.0
    assert max(sampled.steps) > 3


# ---------------------------------------------------------------------------
# Top-p mask

def tie_prone_distributions(rng, count: int) -> list[np.ndarray]:
    """Random distributions, many with repeated probabilities and zeros."""
    rows = []
    for _ in range(count):
        n = int(rng.integers(1, 20))
        if rng.random() < 0.5:
            probs = rng.dirichlet(np.ones(n) * rng.choice([0.2, 1.0, 5.0]))
        else:
            levels = rng.dirichlet(np.ones(3))
            probs = levels[rng.integers(0, 3, size=n)]
            probs[rng.random(n) < 0.2] = 0.0
            if probs.sum() == 0.0:
                probs[:] = 1.0
            probs = probs / probs.sum()
        rows.append(probs)
    return rows


def test_top_p_mask_matches_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    distributions = tie_prone_distributions(rng, 3000)
    for probs in distributions:
        for p in (float(rng.uniform(0.05, 1.0)), 0.9, 1.0):
            expected = oracle_top_p_mask(probs, p)
            assert np.array_equal(policy.apply_top_p_mask(probs, p), expected)
    # rows of one array, each masked as it would be alone
    for n in range(1, 20):
        rows = [probs for probs in distributions if probs.size == n][:50]
        if rows:
            batch = policy.apply_top_p_mask(np.stack(rows), 0.9)
            assert all(np.array_equal(got, oracle_top_p_mask(row, 0.9)) for got, row in zip(batch, rows))
