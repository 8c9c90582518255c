import json
import math

import numpy as np
import pytest

from tabreduce import policy
from tabreduce.errors import ConfigError, NumericalError
from tabreduce.policy import (
    STOP,
    EncodedInstance,
    PolicyParams,
    PpoExample,
    Vocabulary,
    apply_top_p_mask,
    build_episode,
    build_vocabulary,
    embed,
    encode_instance,
    finite_difference_error,
    forward,
    grad_check,
    init_params,
    load_params,
    ppo_loss_and_grad,
    sample_episode,
    save_params,
    sft_loss_and_grad,
    step_distribution,
    tokenize,
    value_estimate,
)


def tiny_vocab():
    return build_vocabulary(["alpha beta gamma delta", "what is alpha"])


def tiny_enc(n_candidates=2):
    vocab = tiny_vocab()
    texts = ["alpha", "beta", "gamma", "delta"][:n_candidates]
    return vocab, encode_instance(vocab, "what is alpha", texts)


def sample(params, enc, reference=None, **kwargs):
    ref = embed(reference, [enc])[0] if reference is not None else None
    return sample_episode(embed(params, [enc])[0], ref, **kwargs)


def forward_logps(params, enc, actions):
    """Unmasked per-step log-probabilities of ``actions`` from the batched forward."""
    episode = build_episode(enc, actions)
    return forward(params, [episode]).logps[0, : episode.steps]


def forward_logprob(params, enc, actions):
    return float(forward_logps(params, enc, actions).sum())


class TestVocabulary:
    def test_tokenize(self):
        assert tokenize("What is the Count, of X9?") == ["what", "is", "the", "count", "of", "x9"]

    def test_oov_maps_to_zero(self):
        vocab = tiny_vocab()
        assert 0 in vocab.encode("unknownword alpha")
        assert vocab.encode("alpha")[0] > 0

    def test_sorted_and_stable(self):
        vocab = build_vocabulary(["b a", "a c"])
        assert vocab.tokens == ("a", "b", "c")


class TestInit:
    def test_same_seed_identical(self):
        vocab = tiny_vocab()
        assert init_params(vocab, 8, seed=3).equals(init_params(vocab, 8, seed=3))

    def test_different_seed_differs(self):
        vocab = tiny_vocab()
        assert not init_params(vocab, 8, seed=3).equals(init_params(vocab, 8, seed=4))

    def test_value_head_zero_and_range(self):
        params = init_params(tiny_vocab(), 8, seed=0)
        assert np.all(params.value_q == 0) and np.all(params.value_h == 0)
        assert np.all(np.abs(params.emb) <= 0.1)

    def test_zeros_override(self):
        params = PolicyParams.zeros(tiny_vocab(), 4)
        assert np.all(params.emb == 0)


class TestStepDistribution:
    def test_zero_params_uniform(self):
        params = PolicyParams.zeros(tiny_vocab(), 4)
        dist = step_distribution(params, np.zeros(4), np.zeros(4), np.zeros((2, 4)))
        assert np.allclose(dist, [1 / 3] * 3)

    def test_no_candidates_all_stop(self):
        params = PolicyParams.zeros(tiny_vocab(), 4)
        dist = step_distribution(params, np.zeros(4), np.zeros(4), np.zeros((0, 4)))
        assert dist.tolist() == [1.0]

    def test_hand_computed_one_candidate(self):
        # d=2, one candidate: two scores computed by hand
        params = PolicyParams.zeros(tiny_vocab(), 2)
        params.score_q = np.array([[1.0, 0.0], [0.0, 2.0]])
        params.stop_q = np.array([0.5, -0.5])
        params.stop_b = np.array([0.25])
        q = np.array([1.0, 1.0])
        v = np.array([[2.0, 0.5]])
        s_cand = 1.0 * 1.0 * 2.0 + 1.0 * 2.0 * 0.5      # q . Mq . v = 3.0
        s_stop = 0.5 - 0.5 + 0.25                        # 0.25
        expected = np.exp([s_cand, s_stop]) / np.exp([s_cand, s_stop]).sum()
        dist = step_distribution(params, q, np.zeros(2), v)
        assert np.allclose(dist, expected)

    def test_valid_distribution_random(self):
        rng = np.random.default_rng(0)
        params = init_params(tiny_vocab(), 6, seed=1)
        for _ in range(50):
            n = int(rng.integers(0, 5))
            dist = step_distribution(
                params, rng.normal(size=6), rng.normal(size=6), rng.normal(size=(n, 6))
            )
            assert np.all(dist >= 0)
            assert abs(dist.sum() - 1.0) < 1e-9

    def test_non_finite_scores_raise(self):
        params = PolicyParams.zeros(tiny_vocab(), 2)
        with pytest.raises(NumericalError):
            step_distribution(params, np.array([np.nan, 0.0]), np.zeros(2), np.zeros((1, 2)))


class TestTopPMask:
    def test_spec_example(self):
        masked = apply_top_p_mask(np.array([0.5, 0.3, 0.15, 0.05]), 0.9)
        assert np.allclose(masked, np.array([0.5, 0.3, 0.15, 0.0]) / 0.95)

    def test_p_one_unchanged(self):
        probs = np.array([0.4, 0.35, 0.25])
        assert np.allclose(apply_top_p_mask(probs, 1.0), probs)

    def test_uniform_keeps_all(self):
        probs = np.array([0.25] * 4)
        assert np.allclose(apply_top_p_mask(probs, 0.9), probs)

    def test_ties_prefer_lower_index(self):
        masked = apply_top_p_mask(np.array([0.3, 0.4, 0.3]), 0.7)
        assert masked[2] == 0.0
        assert masked[0] > 0

    def test_minimal_prefix_property_random(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            probs = rng.dirichlet(np.ones(n))
            p = float(rng.uniform(0.05, 1.0))
            masked = apply_top_p_mask(probs, p)
            assert abs(masked.sum() - 1.0) < 1e-9
            assert np.argmax(masked) == np.argmax(probs)
            support = masked > 0
            kept_mass = probs[support].sum()
            assert kept_mass >= p - 1e-12 or support.all()
            # minimality: dropping the least probable kept action breaks the bound
            kept_idx = [i for i in range(n) if support[i]]
            weakest = min(kept_idx, key=lambda i: (probs[i], -i))
            assert kept_mass - probs[weakest] < p
            # prefix property: nothing outside the support beats anything inside
            excluded = [i for i in range(n) if not support[i]]
            if excluded and kept_idx:
                assert max(probs[i] for i in excluded) <= min(probs[i] for i in kept_idx) + 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            apply_top_p_mask(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            apply_top_p_mask(np.array([0.7, 0.7]), 0.9)


class TestEpisodes:
    def test_greedy_tie_break_takes_candidate_then_stop(self):
        vocab, enc = tiny_enc(1)
        params = PolicyParams.zeros(vocab, 4)
        trace = sample(params, enc, mode="greedy")
        assert trace.actions == (0, STOP)

    def test_seeded_sampling_reproducible(self):
        vocab, enc = tiny_enc(3)
        params = init_params(vocab, 8, seed=0)
        t1 = sample(params, enc, rng=np.random.default_rng(5), top_p=0.9)
        t2 = sample(params, enc, rng=np.random.default_rng(5), top_p=0.9)
        assert t1 == t2

    def test_no_repeats_and_length_bound(self):
        vocab, enc = tiny_enc(4)
        params = init_params(vocab, 8, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            trace = sample(params, enc, rng=rng, top_p=0.9)
            chosen = [a for a in trace.actions if a != STOP]
            assert len(chosen) == len(set(chosen))
            assert trace.actions[-1] == STOP
            assert len(trace.actions) <= enc.n_candidates + 1

    def test_trace_logp_matches_sequence_logprob_without_mask(self):
        vocab, enc = tiny_enc(3)
        params = init_params(vocab, 8, seed=1)
        trace = sample(params, enc, rng=np.random.default_rng(1), top_p=None)
        assert sum(trace.logp_pi) == pytest.approx(
            forward_logprob(params, enc, trace.actions)
        )

    def test_unmasked_trace_logp_matches_sequence_logprob_under_mask(self):
        vocab, enc = tiny_enc(4)
        params = init_params(vocab, 8, seed=6)
        trace = sample(params, enc, rng=np.random.default_rng(3), top_p=0.7)
        # without a separate reference, logp_ref is the unmasked policy's
        assert sum(trace.logp_ref) == pytest.approx(
            forward_logprob(params, enc, trace.actions)
        )

    def test_reference_logp_uses_reference_params(self):
        vocab, enc = tiny_enc(3)
        pi = init_params(vocab, 8, seed=1)
        theta = init_params(vocab, 8, seed=9)
        trace = sample(pi, enc, theta, rng=np.random.default_rng(1), top_p=0.9)
        assert sum(trace.logp_ref) == pytest.approx(
            forward_logprob(theta, enc, trace.actions)
        )

    def test_masked_behavior_logp_at_least_unmasked(self):
        vocab, enc = tiny_enc(4)
        params = init_params(vocab, 8, seed=3)
        rng = np.random.default_rng(2)
        for _ in range(20):
            trace = sample(params, enc, params, rng=rng, top_p=0.6)
            # same params: masked probability >= unmasked at every step
            assert sum(trace.logp_pi) >= sum(trace.logp_ref) - 1e-12

    def test_selection_is_order_insensitive_as_set(self):
        vocab, enc = tiny_enc(3)
        params = init_params(vocab, 8, seed=4)
        assert forward_logprob(params, enc, (0, 2, STOP)) != pytest.approx(
            forward_logprob(params, enc, (2, 0, STOP))
        )
        r1 = forward_logps(params, enc, (0, 2, STOP))
        r2 = forward_logps(params, enc, (2, 0, STOP))
        assert len(r1) == len(r2)


class TestSequenceLogprob:
    def test_uniform_fixture(self):
        vocab, enc = tiny_enc(2)
        params = PolicyParams.zeros(vocab, 4)
        assert forward_logprob(params, enc, (0, STOP)) == pytest.approx(math.log(1 / 6))

    def test_stop_only(self):
        vocab, enc = tiny_enc(2)
        params = PolicyParams.zeros(vocab, 4)
        assert forward_logprob(params, enc, (STOP,)) == pytest.approx(math.log(1 / 3))

    def test_hand_computed_d2(self):
        vocab = Vocabulary(("a", "b"))
        enc = EncodedInstance(question_ids=(1,), candidate_ids=((2,),))
        params = PolicyParams.zeros(vocab, 2)
        params.emb = np.array([[0.0, 0.0], [1.0, 2.0], [0.5, -1.0]])
        params.score_q = np.array([[1.0, 0.5], [0.0, 1.0]])
        params.stop_q = np.array([0.2, 0.1])
        params.stop_b = np.array([-0.3])
        q = params.emb[1]
        v = params.emb[2]
        s_cand = float(q @ params.score_q @ v)
        s_stop = float(q @ params.stop_q - 0.3)
        z = np.exp([s_cand, s_stop])
        expected = math.log(z[0] / z.sum())
        # after selecting, h = v; STOP competes with nothing
        assert forward_logprob(params, enc, (0, STOP)) == pytest.approx(expected)


class TestSftLoss:
    def test_uniform_loss_log6(self):
        vocab, enc = tiny_enc(2)
        params = PolicyParams.zeros(vocab, 4)
        loss, grads = sft_loss_and_grad(params, [(enc, (0, STOP))])
        assert loss == pytest.approx(math.log(6))

    def test_batch_mean_of_singles(self):
        vocab, enc = tiny_enc(3)
        params = init_params(vocab, 8, seed=0)
        l1, _ = sft_loss_and_grad(params, [(enc, (0, STOP))])
        l2, _ = sft_loss_and_grad(params, [(enc, (1, 2, STOP))])
        both, _ = sft_loss_and_grad(params, [(enc, (0, STOP)), (enc, (1, 2, STOP))])
        assert both == pytest.approx((l1 + l2) / 2)

    def test_training_single_example_to_near_zero(self):
        from tabreduce.training import Adam

        vocab, enc = tiny_enc(3)
        params = init_params(vocab, 8, seed=0).copy()
        adam = Adam(params, 0.05)
        batch = [(enc, (0, 2, STOP))]
        for _ in range(300):
            loss, grads = sft_loss_and_grad(params, batch)
            adam.step(params, grads)
        loss, grads = sft_loss_and_grad(params, batch)
        assert loss < 0.01
        grad_norm = max(float(np.max(np.abs(g))) for g in grads.values())
        assert grad_norm < 0.05

    def test_empty_batch_rejected(self):
        params = PolicyParams.zeros(tiny_vocab(), 4)
        with pytest.raises(ConfigError):
            sft_loss_and_grad(params, [])


class TestValueHead:
    def test_zero_params_zero(self):
        params = PolicyParams.zeros(tiny_vocab(), 4)
        assert value_estimate(params, np.ones(4), np.ones(4)) == 0.0

    def test_linear_and_hand_computed(self):
        params = PolicyParams.zeros(tiny_vocab(), 2)
        params.value_q = np.array([1.0, -2.0])
        params.value_h = np.array([0.5, 0.0])
        params.value_b = np.array([0.25])
        q = np.array([2.0, 1.0])
        h = np.array([4.0, -1.0])
        assert value_estimate(params, q, h) == pytest.approx(2 - 2 + 2 + 0.25)
        params.value_q = 2 * params.value_q
        assert value_estimate(params, q, np.zeros(2)) == pytest.approx(2 * (2 - 2) + 0.25)


class TestGradients:
    def test_sft_and_ppo_gradients_match_fd(self):
        vocab, enc = tiny_enc(3)
        params = init_params(vocab, 4, seed=11)
        err = grad_check(params, enc, (0, 2, STOP), epsilon=1e-5)
        assert err < 1e-4

    def test_corrupted_gradient_detected(self):
        vocab, enc = tiny_enc(3)
        params = init_params(vocab, 4, seed=11)

        def corrupted(p):
            loss, grads = sft_loss_and_grad(p, [(enc, (0, 2, STOP))])
            grads["score_q"] = grads["score_q"] * 1.5 + 0.01
            return loss, grads

        err = finite_difference_error(params, corrupted, epsilon=1e-5)
        assert err > 1e-2

    def test_zero_params_model_finite(self):
        vocab, enc = tiny_enc(2)
        params = PolicyParams.zeros(vocab, 4)
        err = grad_check(params, enc, (0, STOP), epsilon=1e-5)
        assert math.isfinite(err)
        assert err < 1e-4


class TestPpoLoss:
    def build(self, advantage, ratio_shift):
        vocab, enc = tiny_enc(2)
        params = init_params(vocab, 4, seed=5)
        example = PpoExample(
            enc=enc,
            actions=(0, STOP),
            old_logps=forward_logps(params, enc, (0, STOP)) - ratio_shift,
            advantages=np.full(2, advantage),
            returns=np.zeros(2),
        )
        return params, example

    def test_zero_advantages_zero_policy_loss(self):
        params, example = self.build(0.0, 0.0)
        loss, grads, stats = ppo_loss_and_grad(params, [example], 0.2, 0.5, 0.0)
        assert stats.policy_loss == pytest.approx(0.0)

    def test_clipping_applied(self):
        # ratio exp(0.405) ~ 1.5 with positive advantage clips to 1.2
        params, example = self.build(1.0, math.log(1.5))
        loss, grads, stats = ppo_loss_and_grad(params, [example], 0.2, 0.0, 0.0)
        assert stats.policy_loss == pytest.approx(-1.2)
        assert stats.clip_fraction == pytest.approx(1.0)

    def test_unclipped_ratio_passthrough(self):
        params, example = self.build(1.0, math.log(1.1))
        loss, _, stats = ppo_loss_and_grad(params, [example], 0.2, 0.0, 0.0)
        assert stats.policy_loss == pytest.approx(-1.1)
        assert stats.clip_fraction == 0.0


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(tiny_vocab(), 8, seed=123)
        path = tmp_path / "m.model.json"
        save_params(params, path, target="columns")
        loaded, target = load_params(path)
        assert target == "columns"
        assert loaded.equals(params)
        save_params(loaded, tmp_path / "m2.model.json", target="columns")
        assert (tmp_path / "m.model.json").read_bytes() == (tmp_path / "m2.model.json").read_bytes()

    def test_format_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ConfigError):
            load_params(path)


def test_mean_embedding_empty_is_zero():
    params = PolicyParams.zeros(tiny_vocab(), 4)
    params.emb = np.ones_like(params.emb)
    (encoded,) = embed(params, [EncodedInstance(question_ids=(), candidate_ids=((1,), ()))])
    assert np.all(encoded.q == 0)
    assert encoded.v.tolist() == [[1.0] * 4, [0.0] * 4]
