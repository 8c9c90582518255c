"""Differential test of the batched policy core against the per-step code it
replaced.

The oracle below is the earlier implementation: an ``_Encoder`` walked one
episode at a time, ``replay_episode`` recomputed each step's distribution,
``accumulate_episode_grads`` backpropagated step by step, and the two losses
looped over episodes.  Its encodings are per-segment means of token
embeddings; the policy's count-matrix products sum in another order, so
encodings must agree to 1e-13 relative (to the largest magnitude of each
array), and losses, gradients and per-step quantities to 1e-10.  An
instance's encoding must not depend on the batch around it: alone and in any
batch it is bit-identical.  Sampling and greedy decoding are checked against
the oracle's walks fed the policy's own one-instance encodings
(``policy.embed(params, [enc])``): given the same encodings, sampled traces
must be bit-identical, and the greedy stepper, which decodes many instances
together, must select exactly what the greedy walk selects, ties included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from tabreduce import dataio, policy, tasks
from tabreduce.errors import ConfigError, NumericalError
from tabreduce.policy import (
    STOP,
    EncodedInstance,
    PolicyParams,
    PpoExample,
    PpoStats,
    apply_top_p_mask,
    step_distribution,
    value_estimate,
    zero_grads,
)

TOLERANCE = 1e-10
ENCODING_TOLERANCE = 1e-13


# ---------------------------------------------------------------------------
# Oracle: the per-step implementation

def mean_embedding(emb: np.ndarray, ids: Sequence[int]) -> np.ndarray:
    if not ids:
        return np.zeros(emb.shape[1])
    return emb[list(ids)].mean(axis=0)


class _Encoder:
    """Per-episode cache of q, candidate encodings and the history mean.

    The encodings are per-segment means unless ``embedded`` gives them."""

    def __init__(self, params: PolicyParams, enc: EncodedInstance,
                 embedded: policy.Embedded | None = None):
        self.params = params
        if embedded is not None:
            self.q, self.v = embedded.q, embedded.v
        else:
            self.q = mean_embedding(params.emb, enc.question_ids)
            self.v = np.stack(
                [mean_embedding(params.emb, ids) for ids in enc.candidate_ids]
            ) if enc.n_candidates else np.zeros((0, params.dim))
        self._selected: list[int] = []
        self.h = np.zeros(params.dim)

    def select(self, candidate: int) -> None:
        self._selected.append(candidate)
        self.h = self.v[self._selected].mean(axis=0)

    def distribution(self, remaining: Sequence[int]) -> np.ndarray:
        return step_distribution(self.params, self.q, self.h, self.v[list(remaining)])


def oracle_sample_episode(params, reference_params, enc, mode="sample", top_p=None, rng=None):
    """The per-episode sampler over the policy's one-instance encodings;
    returns (actions, logp_pi, logp_ref, values, selected)."""
    ref = reference_params if reference_params is not None else params
    pi = _Encoder(params, enc, policy.embed(params, [enc])[0])
    theta = _Encoder(ref, enc, policy.embed(ref, [enc])[0])

    remaining = list(range(enc.n_candidates))
    actions: list[int] = []
    logp_pi: list[float] = []
    logp_ref: list[float] = []
    values: list[float] = []

    while True:
        probs = pi.distribution(remaining)
        if mode == "sample" and top_p is not None:
            behavior = apply_top_p_mask(probs, top_p)
        else:
            behavior = probs
        if mode == "greedy":
            pick = int(np.argmax(probs))
        else:
            pick = int(rng.choice(behavior.size, p=behavior))
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
    grads: dict[str, np.ndarray],
    logp_coef: np.ndarray,
    entropy_coef: np.ndarray,
    value_coef: np.ndarray,
) -> None:
    """Add d(sum_t logp_coef_t*logp_t + entropy_coef_t*H_t + value_coef_t*V_t)
    to ``grads``.  Backpropagates through scores, encodings, the shared
    history mean, and down to the token embeddings.
    """
    q = mean_embedding(params.emb, enc.question_ids)
    v = np.stack(
        [mean_embedding(params.emb, ids) for ids in enc.candidate_ids]
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
            grads["score_q"] += np.outer(q, gv)
            grads["score_h"] += np.outer(h, gv)
            dq += params.score_q @ gv
            dh += params.score_h @ gv
            shared = params.score_q.T @ q + params.score_h.T @ h
            dv[remaining] += np.outer(g_vec, shared)
        g_stop = dscores[-1]
        if g_stop != 0.0:
            grads["stop_q"] += g_stop * q
            grads["stop_h"] += g_stop * h
            grads["stop_b"][0] += g_stop
            dq += g_stop * params.stop_q
            dh += g_stop * params.stop_h

        if value_coef[t] != 0.0:
            gv_t = value_coef[t]
            grads["value_q"] += gv_t * q
            grads["value_h"] += gv_t * h
            grads["value_b"][0] += gv_t
            dq += gv_t * params.value_q
            dh += gv_t * params.value_h

        selected = replay.selected_before[t]
        if selected and dh.any():
            share = dh / len(selected)
            for cand in selected:
                dv[cand] += share

    if enc.question_ids and dq.any():
        per_token = dq / len(enc.question_ids)
        for tok in enc.question_ids:
            grads["emb"][tok] += per_token
    for cand, ids in enumerate(enc.candidate_ids):
        if ids and dv[cand].any():
            per_token = dv[cand] / len(ids)
            for tok in ids:
                grads["emb"][tok] += per_token


def oracle_sft_loss_and_grad(params, batch):
    grads = zero_grads(params)
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
    grads = zero_grads(params)
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
    params.value_q = rng.uniform(-0.5, 0.5, dim)
    params.value_h = rng.uniform(-0.5, 0.5, dim)
    params.value_b = rng.uniform(-0.5, 0.5, 1)
    return params


def random_instance(rng, n_candidates: int, question_len: int | None = None) -> EncodedInstance:
    if question_len is None:
        question_len = int(rng.integers(1, 7))
    tokens = lambda k: tuple(int(t) for t in rng.integers(0, VOCAB.size, size=k))
    return EncodedInstance(
        question_ids=tokens(question_len),
        candidate_ids=tuple(tokens(int(rng.integers(0, 5))) for _ in range(n_candidates)),
    )


def random_actions(rng, n_candidates: int, max_picks: int = 6) -> tuple[int, ...]:
    k = int(rng.integers(0, min(n_candidates, max_picks) + 1))
    return tuple(int(a) for a in rng.permutation(n_candidates)[:k]) + (STOP,)


def mixed_batch(seed: int) -> list[tuple[EncodedInstance, tuple[int, ...]]]:
    """Different T and N in one minibatch, with the edge cases: an empty
    question, zero candidates, a STOP-only episode on a full instance and a
    row-length candidate set."""
    rng = np.random.default_rng(seed)
    batch = [
        (random_instance(rng, 5, question_len=0), random_actions(rng, 5)),
        (random_instance(rng, 0), (STOP,)),
        (random_instance(rng, 7), (STOP,)),
        (random_instance(rng, 160), random_actions(rng, 160, max_picks=9)),
    ]
    for _ in range(6):
        n = int(rng.integers(1, 13))
        batch.append((random_instance(rng, n), random_actions(rng, n)))
    order = rng.permutation(len(batch))
    return [batch[i] for i in order]


def ppo_batch(params, seed: int, zero_advantages: bool = False) -> list[PpoExample]:
    rng = np.random.default_rng(seed + 100)
    examples = []
    for enc, actions in mixed_batch(seed):
        logps = replay_episode(params, enc, actions).logps
        steps = len(logps)
        examples.append(PpoExample(
            enc=enc,
            actions=actions,
            old_logps=logps - rng.uniform(-0.6, 0.6, steps),
            advantages=np.zeros(steps) if zero_advantages else rng.normal(size=steps),
            returns=rng.normal(size=steps),
        ))
    return examples


def relative_error(actual, expected) -> float:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    diff = float(np.abs(actual - expected).max(initial=0.0))
    scale = float(np.abs(expected).max(initial=0.0))
    return diff / scale if scale > 0 else diff


def assert_grads_agree(actual, expected) -> None:
    assert actual.keys() == expected.keys()
    for name in expected:
        err = relative_error(actual[name], expected[name])
        assert err <= TOLERANCE, f"{name}: relative error {err:.2e}"


# ---------------------------------------------------------------------------
# Tests

def test_segment_means_match_oracle():
    params = random_params(0)
    encs = [enc for enc, _ in mixed_batch(0)]
    for enc, embedded in zip(encs, policy.embed(params, encs)):
        oracle = _Encoder(params, enc)
        assert relative_error(embedded.q, oracle.q) <= ENCODING_TOLERANCE
        assert relative_error(embedded.v, oracle.v) <= ENCODING_TOLERANCE


@pytest.mark.parametrize("seed", range(4))
def test_forward_matches_replay(seed):
    params = random_params(seed)
    batch = mixed_batch(seed)
    fw = policy.forward(params, [policy.build_episode(enc, actions) for enc, actions in batch])
    for b, (enc, actions) in enumerate(batch):
        replay = replay_episode(params, enc, actions)
        walker = _Encoder(params, enc)
        steps = len(replay.logps)
        assert fw.steps[b] == steps and not fw.valid[b, steps:].any()
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
    loss, grads = policy.sft_loss_and_grad(params, batch)
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
    loss, grads, stats = policy.ppo_loss_and_grad(params, batch, 0.2, value_loss_coef, entropy_coef)
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


def test_unavailable_action_rejected():
    enc = EncodedInstance(question_ids=(1,), candidate_ids=((2,), (3,)))
    for actions in ((0, 0, STOP), (2, STOP), (-2, STOP)):
        with pytest.raises(ValueError):
            policy.build_episode(enc, actions)


def test_actions_after_stop_ignored():
    params = random_params(1)
    enc = random_instance(np.random.default_rng(1), 4)
    full = policy.sft_loss_and_grad(params, [(enc, (1, STOP, 2, 3))])
    short = policy.sft_loss_and_grad(params, [(enc, (1, STOP))])
    assert full[0] == short[0]


def test_non_finite_scores_raise():
    params = random_params(2)
    params.score_q[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        policy.sft_loss_and_grad(params, mixed_batch(2))


def test_step_count_mismatch_rejected():
    params = random_params(3)
    enc = random_instance(np.random.default_rng(3), 3)
    example = PpoExample(enc=enc, actions=(0, STOP), old_logps=np.zeros(3),
                         advantages=np.zeros(3), returns=np.zeros(3))
    with pytest.raises(ValueError):
        policy.ppo_loss_and_grad(params, [example], 0.2, 0.5, 0.01)
    with pytest.raises(ConfigError):
        policy.ppo_loss_and_grad(params, [], 0.2, 0.5, 0.01)


@pytest.mark.parametrize("seed", range(3))
def test_sample_episode_bit_identical(seed):
    params = random_params(seed)
    reference = random_params(seed + 50)
    encs = [enc for enc, _ in mixed_batch(seed)]
    current = policy.embed(params, encs)
    ref = policy.embed(reference, encs)
    for k, enc in enumerate(encs):
        for top_p in (None, 0.9):
            rng_new = np.random.default_rng([seed, k])
            rng_old = np.random.default_rng([seed, k])
            for _ in range(3):
                trace = policy.sample_episode(current[k], ref[k], top_p=top_p, rng=rng_new)
                got = (trace.actions, trace.logp_pi, trace.logp_ref, trace.values, trace.selected)
                assert got == oracle_sample_episode(params, reference, enc, top_p=top_p, rng=rng_old)
            # the generators made the same calls
            assert rng_new.random() == rng_old.random()
    greedy = policy.greedy_decode(params, encs).selected
    assert greedy == [oracle_sample_episode(params, None, enc, mode="greedy")[-1] for enc in encs]


@pytest.mark.parametrize("target", [tasks.TARGET_COLUMNS, tasks.TARGET_ROWS])
def test_greedy_reduction_bit_identical(target):
    cfg = dataio.SynthConfig(n_instances=8, rows_range=(150, 170), seed=5, annotate=False)
    instances = dataio.generate_synthetic(cfg)
    context = frozenset({0, 1})
    vocab = policy.build_vocabulary(
        [inst.question for inst in instances]
        + [t for inst in instances for t in tasks.candidate_texts(inst, target, context)]
    )
    params = policy.init_params(vocab, 16, seed=7)
    encs = [tasks.encode(vocab, inst, target, context) for inst in instances]
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
        instances.append(EncodedInstance(tokens(int(rng.integers(0, 7))), tuple(candidates)))
    return instances


@pytest.mark.parametrize("dim", [1, 3, 8, 16, 64])
def test_greedy_decode_matches_per_step_walk(dim):
    rng = np.random.default_rng(dim)
    params = random_params(dim, dim)
    exact_steps = stop_first = 0
    for _ in range(5):
        encs = tie_prone_instances(rng, 80)
        decoded = policy.greedy_decode(params, encs)
        expected = [oracle_sample_episode(params, None, enc, mode="greedy")[-1] for enc in encs]
        assert decoded.selected == expected
        assert decoded.steps == sum(len(sel) + 1 for sel in expected)
        exact_steps += decoded.exact_steps
        stop_first += sum(1 for enc, sel in zip(encs, expected) if enc.n_candidates and not sel)
    # the ties reached the per-instance arithmetic, and some instances with
    # candidates stopped at once
    assert exact_steps > 0
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
    inside a batch of ``embed`` and inside ``forward`` it is bit-identical,
    and a shuffled batch decodes to the same selections."""
    rng = np.random.default_rng(seed)
    params = random_params(seed)
    encs = [enc for enc, _ in mixed_batch(seed)] + tie_prone_instances(rng, 80)
    batched = policy.embed(params, encs)
    fw = policy.forward(params, [policy.build_episode(enc, (STOP,)) for enc in encs])
    for k, enc in enumerate(encs):
        alone = policy.embed(params, [enc])[0]
        n = enc.n_candidates
        assert np.array_equal(batched[k].q, alone.q) and np.array_equal(batched[k].v, alone.v)
        assert np.array_equal(fw.q[k], alone.q) and np.array_equal(fw.v[k, :n], alone.v)
        oracle = _Encoder(params, enc)
        assert relative_error(alone.q, oracle.q) <= ENCODING_TOLERANCE
        assert relative_error(alone.v, oracle.v) <= ENCODING_TOLERANCE
    decoded = policy.greedy_decode(params, encs).selected
    order = rng.permutation(len(encs))
    shuffled = policy.greedy_decode(params, [encs[i] for i in order]).selected
    assert shuffled == [decoded[i] for i in order]
