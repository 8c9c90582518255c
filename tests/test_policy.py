import base64
import io
import json
import math
import re
import struct

import numpy as np
import pytest

from tabreduce import policy
from tabreduce.errors import ConfigError, NumericalError
from tabreduce.policy import (
    STOP,
    PolicyParams,
    PpoBatch,
    Vocabulary,
    apply_top_p_mask,
    build_vocabulary,
    count_matrices,
    finite_difference_error,
    forward,
    grad_check,
    greedy_decode,
    init_params,
    load_params,
    ppo_loss_and_grad,
    pad_actions,
    sample_episodes,
    save_params,
    sft_loss_and_grad,
    tokenize,
)
from encoded_instances import encode_texts, encoded
from test_policy_batched import params_equal, traces


def tiny_vocab():
    return build_vocabulary(["alpha beta gamma delta", "what is alpha"])


def tiny_enc(n_candidates=2):
    vocab = tiny_vocab()
    texts = ["alpha", "beta", "gamma", "delta"][:n_candidates]
    return vocab, encode_texts(vocab, [("what is alpha", texts)])[0]


def sample(params, enc, reference=None, *, rng, top_p):
    """One episode of ``enc``, its uniforms drawn from ``rng``."""
    ref = reference if reference is not None else params
    uniforms = rng.random((1, enc.n_candidates + 1))
    return traces(sample_episodes(params, ref, count_matrices([enc]), uniforms, top_p))[0]


def forward_logps(params, enc, actions):
    """Unmasked per-step log-probabilities of ``actions`` from the batched forward."""
    return forward(params, count_matrices([enc]), pad_actions([actions])).logps[0]


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
        assert params_equal(init_params(vocab, 8, seed=3), init_params(vocab, 8, seed=3))

    def test_different_seed_differs(self):
        vocab = tiny_vocab()
        assert not params_equal(init_params(vocab, 8, seed=3), init_params(vocab, 8, seed=4))

    def test_value_head_zero_and_range(self):
        params = init_params(tiny_vocab(), 8, seed=0)
        assert np.all(params.value_q == 0) and np.all(params.value_h == 0)
        assert np.all(np.abs(params.emb) <= 0.1)

    @pytest.mark.parametrize("dim", [0, -1, 2.5, True, "8"])
    def test_bad_dim_rejected(self, dim):
        with pytest.raises(ConfigError, match=f"dim must be a positive integer, got {dim!r}"):
            init_params(tiny_vocab(), dim)

    def test_zeros_override(self):
        params = PolicyParams.zeros(tiny_vocab(), 4)
        assert np.all(params.emb == 0)


def encoded_as(params, q, v):
    """A copy of ``params`` whose token embeddings are ``q`` and then the
    rows of ``v``, and the count matrix of an instance that encodes under it
    to exactly ``q`` and ``v``: one token per segment."""
    params = params.copy()
    params.emb = np.vstack([q, v])
    return params, policy.CountMatrix(np.arange(1 + len(v)), np.eye(1 + len(v)))


def first_step(params, q, v, u):
    """Action and behavior log-probability of the first step of an episode
    over the encodings ``q`` and ``v``, sampled unmasked at uniform ``u``."""
    uniforms = np.full((1, v.shape[0] + 1), u)
    params, matrix = encoded_as(params, q, v)
    sampled = sample_episodes(params, params, [matrix], uniforms, 1.0)
    return sampled.actions[0, 0], sampled.logp_pi[0, 0]


class TestStepDistribution:
    def test_zero_params_uniform(self):
        params = PolicyParams.zeros(tiny_vocab(), 4)
        third = pytest.approx(math.log(1 / 3))
        for u, action in ((0.0, 0), (0.5, 1), (0.9, STOP)):
            assert first_step(params, np.zeros(4), np.zeros((2, 4)), u) == (action, third)

    def test_no_candidates_all_stop(self):
        params = PolicyParams.zeros(tiny_vocab(), 4)
        assert first_step(params, np.zeros(4), np.zeros((0, 4)), 0.5) == (STOP, 0.0)

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
        stepped, matrix = encoded_as(params, q, v)
        stepper = policy._Stepper(stepped, [matrix])
        assert stepper.scores().tolist() == [[s_cand, s_stop]]
        expected = np.exp([s_cand, s_stop]) / np.exp([s_cand, s_stop]).sum()
        assert first_step(params, q, v, 0.0) == (0, pytest.approx(math.log(expected[0])))
        assert first_step(params, q, v, 0.99) == (STOP, pytest.approx(math.log(expected[1])))

    def test_valid_distribution_random(self):
        rng = np.random.default_rng(0)
        params = init_params(tiny_vocab(), 6, seed=1)
        for _ in range(50):
            n = int(rng.integers(0, 5))
            e, matrix = encoded_as(params, rng.normal(size=6), rng.normal(size=(n, 6)))
            (trace,) = traces(sample_episodes(e, e, [matrix], rng.random((1, n + 1)), 1.0))
            assert trace.actions[-1] == STOP and len(trace.actions) <= n + 1
            assert all(-np.inf < lp <= 0.0 for lp in trace.logp_pi)
            if len(trace.actions) == n + 1:  # every candidate taken: STOP is certain
                assert trace.logp_pi[-1] == 0.0

    def test_non_finite_scores_raise(self):
        params = PolicyParams.zeros(tiny_vocab(), 2)
        with pytest.raises(NumericalError):
            first_step(params, np.array([np.nan, 0.0]), np.zeros((1, 2)), 0.5)


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
        decoded = greedy_decode(params, [enc])
        # candidate and STOP tie, so the candidate's lower slot wins; then
        # only STOP is left
        assert decoded.selected == [frozenset({0})]
        assert decoded.steps == 2

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
        trace = sample(params, enc, rng=np.random.default_rng(1), top_p=1.0)
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
        enc = encoded((1,), [(2,)])
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
        loss, grads = sft_loss_and_grad(params, [enc], pad_actions([(0, STOP)]))
        assert loss == pytest.approx(math.log(6))

    def test_batch_mean_of_singles(self):
        vocab, enc = tiny_enc(3)
        params = init_params(vocab, 8, seed=0)
        l1, _ = sft_loss_and_grad(params, [enc], pad_actions([(0, STOP)]))
        l2, _ = sft_loss_and_grad(params, [enc], pad_actions([(1, 2, STOP)]))
        both, _ = sft_loss_and_grad(params, [enc, enc], pad_actions([(0, STOP), (1, 2, STOP)]))
        assert both == pytest.approx((l1 + l2) / 2)

    def test_training_single_example_to_near_zero(self):
        from tabreduce.training import Adam

        vocab, enc = tiny_enc(3)
        params = init_params(vocab, 8, seed=0).copy()
        adam = Adam(params, 0.05)
        actions = pad_actions([(0, 2, STOP)])
        for _ in range(300):
            loss, grads = sft_loss_and_grad(params, [enc], actions)
            adam.step(params, grads)
        loss, grads = sft_loss_and_grad(params, [enc], actions)
        assert loss < 0.01
        grad_norm = max(float(np.max(np.abs(g))) for g in grads.values())
        assert grad_norm < 0.05

    def test_empty_batch_rejected(self):
        params = PolicyParams.zeros(tiny_vocab(), 4)
        with pytest.raises(ConfigError):
            sft_loss_and_grad(params, [], pad_actions([]))


class TestValueHead:
    def test_zero_params_zero(self):
        vocab, enc = tiny_enc(2)
        params = PolicyParams.zeros(vocab, 4)
        assert np.all(forward(params, count_matrices([enc]), pad_actions([(0, 1, STOP)])).values == 0.0)
        trace = sample(params, enc, rng=np.random.default_rng(0), top_p=1.0)
        assert all(value == 0.0 for value in trace.values)

    def test_linear_and_hand_computed(self):
        # q = emb[1] = (2, 1) and the one candidate's v = emb[2] = (4, -1)
        vocab = Vocabulary(("a", "b"))
        enc = encoded((1,), [(2,)])
        params = PolicyParams.zeros(vocab, 2)
        params.emb = np.array([[0.0, 0.0], [2.0, 1.0], [4.0, -1.0]])
        params.value_q = np.array([1.0, -2.0])
        params.value_h = np.array([0.5, 0.0])
        params.value_b = np.array([0.25])
        # h is zero before the candidate is taken and v after it
        expected = [2 - 2 + 0.25, 2 - 2 + 2 + 0.25]
        values = forward(params, count_matrices([enc]), pad_actions([(0, STOP)])).values[0]
        assert values.tolist() == pytest.approx(expected)
        # a zero uniform takes the candidate, then STOP is all that is left
        (trace,) = traces(sample_episodes(params, params, count_matrices([enc]), np.zeros((1, 2))))
        assert trace.actions == (0, STOP)
        assert list(trace.values) == pytest.approx(expected)


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
            loss, grads = sft_loss_and_grad(p, [enc], pad_actions([(0, 2, STOP)]))
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
        batch = PpoBatch(
            count_matrices([enc]),
            pad_actions([(0, STOP)]),
            old_logps=forward_logps(params, enc, (0, STOP))[None] - ratio_shift,
            advantages=np.full((1, 2), advantage),
            returns=np.zeros((1, 2)),
        )
        return params, batch

    def test_zero_advantages_zero_policy_loss(self):
        params, batch = self.build(0.0, 0.0)
        loss, grads, stats = ppo_loss_and_grad(params, batch, 0.2, 0.5, 0.0)
        assert stats.policy_loss == pytest.approx(0.0)

    def test_clipping_applied(self):
        # ratio exp(0.405) ~ 1.5 with positive advantage clips to 1.2
        params, batch = self.build(1.0, math.log(1.5))
        loss, grads, stats = ppo_loss_and_grad(params, batch, 0.2, 0.0, 0.0)
        assert stats.policy_loss == pytest.approx(-1.2)
        assert stats.clip_fraction == pytest.approx(1.0)

    def test_unclipped_ratio_passthrough(self):
        params, batch = self.build(1.0, math.log(1.1))
        loss, _, stats = ppo_loss_and_grad(params, batch, 0.2, 0.0, 0.0)
        assert stats.policy_loss == pytest.approx(-1.1)
        assert stats.clip_fraction == 0.0


def save_v1(params, path, target=None):
    """The format-1 writer that v2 replaced, kept as the oracle: each
    parameter a flat list of JSON numbers."""
    doc = {
        "format_version": 1,
        "dim": params.dim,
        "vocabulary": list(params.vocab.tokens),
        "params": {name: arr.reshape(-1).tolist() for name, arr in params.arrays().items()},
    }
    if target is not None:
        doc["target"] = target
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_v1_flat(path):
    """The format-1 reader's flat float arrays, by parameter name."""
    doc = json.loads(path.read_text())
    return {name: np.asarray(values, dtype=float) for name, values in doc["params"].items()}


def with_special_values(params, seed):
    """``params`` with random values over the whole float64 range, led in
    each array by infinities, NaNs with payloads and either sign,
    subnormals and both zeros."""
    rng = np.random.default_rng(seed)
    specials = np.array(
        [0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
         0x7FF0000000000001, 0xFFF4000000ABCDEF, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
         0x8000000000000000, 0x0000000000000000, 0x7FEFFFFFFFFFFFFF],
        dtype=np.uint64,
    ).view(np.float64)
    for name, arr in params.arrays().items():
        values = rng.standard_normal(arr.size) * 10.0 ** rng.integers(-320, 300, arr.size)
        values[: len(specials)] = specials[: arr.size]
        setattr(params, name, values.reshape(arr.shape))
    return params


def raise_on_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(tiny_vocab(), 8, seed=123)
        path = tmp_path / "m.model.json"
        save_params(params, path, target="columns")
        loaded, target = load_params(path)
        assert target == "columns"
        assert params_equal(loaded, params)
        save_params(loaded, tmp_path / "m2.model.json", target="columns")
        assert (tmp_path / "m.model.json").read_bytes() == (tmp_path / "m2.model.json").read_bytes()

    def test_bytes_match_python_encoder(self, tmp_path):
        params = with_special_values(init_params(tiny_vocab(), 8, seed=7), seed=5)
        path = tmp_path / "m.model.json"
        save_params(params, path, target="rows")
        doc = {
            "format_version": 2,
            "dim": params.dim,
            "vocabulary": list(params.vocab.tokens),
            "params": {
                name: base64.b64encode(struct.pack(f"<{arr.size}Q", *arr.reshape(-1).view(np.uint64).tolist()))
                .decode("ascii")
                for name, arr in params.arrays().items()
            },
            "target": "rows",
        }
        expected = io.StringIO()
        json.dump(doc, expected, sort_keys=True)  # the pure-Python encoder
        expected.write("\n")
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loads_the_v1_oracle_values_bit_for_bit(self, tmp_path, seed):
        params = with_special_values(init_params(tiny_vocab(), 5, seed=seed), seed=seed)
        save_params(params, tmp_path / "v2.json", target="rows")
        save_v1(params, tmp_path / "v1.json")
        loaded, _ = load_params(tmp_path / "v2.json")
        oracle = load_v1_flat(tmp_path / "v1.json")
        for name, arr in loaded.arrays().items():
            assert arr.dtype == np.float64 and arr.flags.writeable and arr.flags.c_contiguous
            assert arr.shape == getattr(params, name).shape
            bits = arr.reshape(-1).view(np.uint64)
            nan = np.isnan(arr.reshape(-1))
            # v1 wrote a bare NaN token and lost payload and sign; v2 keeps them
            assert np.array_equal(bits, getattr(params, name).reshape(-1).view(np.uint64))
            assert np.array_equal(bits[~nan], oracle[name].view(np.uint64)[~nan])
            assert np.isnan(oracle[name][nan]).all()
            arr[...] = 0.0  # training updates parameters in place

    def test_model_file_is_strict_json(self, tmp_path):
        path = tmp_path / "m.model.json"
        save_params(with_special_values(init_params(tiny_vocab(), 4, seed=0), seed=0), path, target="columns")
        doc = json.loads(path.read_text(), parse_constant=raise_on_constant)
        assert doc["format_version"] == policy.MODEL_FORMAT_VERSION == 2

    def test_format_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ConfigError):
            load_params(path)

    def test_v1_model_is_one_error_line(self, tmp_path, capsys):
        from tabreduce import cli, dataio

        data = tmp_path / "data.jsonl"
        dataio.save_dataset(dataio.generate_synthetic(dataio.SynthConfig(n_instances=3)), data)
        path = tmp_path / "m.model.json"
        save_v1(init_params(tiny_vocab(), 2, seed=0), path, target="columns")
        argv = ["eval-reduce", "--data", str(data), "--model", str(path), "--report", str(tmp_path / "r.json")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.strip().split("\n") == [f"error: {path}: unsupported model format: 1"]

    @pytest.mark.parametrize("drop", ["dim", "vocabulary", "params", "target", "emb"])
    def test_incomplete_model_rejected(self, tmp_path, drop):
        path = tmp_path / "m.model.json"
        save_params(init_params(tiny_vocab(), 4, seed=0), path, target="columns")
        doc = json.loads(path.read_text())
        del (doc if drop in doc else doc["params"])[drop]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=repr(drop)):
            load_params(path)

    @pytest.mark.parametrize("dim", [-2, 0, "x", 2.5, True, None])
    def test_bad_dim_rejected(self, tmp_path, dim):
        path = tmp_path / "m.model.json"
        save_params(init_params(tiny_vocab(), 4, seed=0), path, target="columns")
        path.write_text(json.dumps({**json.loads(path.read_text()), "dim": dim}))
        with pytest.raises(ConfigError, match=f"dim must be a positive integer, got {dim!r}"):
            load_params(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"vocabulary": 5}, "vocabulary is not a list of strings"),
            ({"vocabulary": ["a", 3]}, "vocabulary is not a list of strings"),
            ({"vocabulary": "alpha"}, "vocabulary is not a list of strings"),
            ({"vocabulary": ["alpha", "beta", "alpha"]}, "vocabulary tokens must be unique"),
            ({"target": 5}, "target must be one of ('columns', 'rows'), got 5"),
            ({"target": "banana"}, "target must be one of ('columns', 'rows'), got 'banana'"),
            ({"target": None}, "target must be one of ('columns', 'rows'), got None"),
            ({"params": [1.0]}, "params is not an object"),
            ({"emb": "0.5"}, "parameter 'emb' is not valid base64"),
            ({"emb": None}, "parameter 'emb' is not a base64 string"),
            ({"emb": 0.5}, "parameter 'emb' is not a base64 string"),
            ({"stop_q": [0.1, 0.2]}, "parameter 'stop_q' is not a base64 string"),
            ({"stop_b": [True]}, "parameter 'stop_b' is not a base64 string"),
            ({"stop_b": ["0.5"]}, "parameter 'stop_b' is not a base64 string"),
            ({"stop_q": [[0.1, 0.2]]}, "parameter 'stop_q' is not a base64 string"),
            ({"stop_q": [[0.1, 0.2], [0.3]]}, "parameter 'stop_q' is not a base64 string"),
            ({"stop_b": "AAAA*AAAAAA="}, "parameter 'stop_b' is not valid base64"),
            ({"stop_b": "AAAAAAAAAA\u00e9="}, "parameter 'stop_b' is not valid base64"),
            ({"stop_b": "AAAAAAAAAAA"}, "parameter 'stop_b' is not valid base64"),
            ({"stop_b": "AAAAAAAAAA=="}, "parameter 'stop_b' holds 7 bytes, not 8 x 1"),
            ({"stop_q": base64.b64encode(bytes(24)).decode()}, "parameter 'stop_q' holds 24 bytes, not 8 x 2"),
            ({"format_version": 2.0}, "unsupported model format: 2.0"),
            ({"format_version": True}, "unsupported model format: True"),
            ({"format_version": "2"}, "unsupported model format: '2'"),
        ],
        ids=["vocab-int", "vocab-mixed", "vocab-str", "vocab-dup", "target-int", "target-str",
             "target-null", "params-list", "param-str", "param-null", "param-number", "param-v1-list",
             "param-bool", "param-numeric-str", "param-nested", "param-ragged", "param-bad-char",
             "param-non-ascii", "param-no-padding", "param-7-bytes", "param-wrong-size",
             "version-float", "version-bool", "version-str"],
    )
    def test_malformed_model_is_one_error_line(self, tmp_path, capsys, edit, message):
        from tabreduce import cli, dataio

        data = tmp_path / "data.jsonl"
        dataio.save_dataset(dataio.generate_synthetic(dataio.SynthConfig(n_instances=3)), data)
        path = tmp_path / "m.model.json"
        save_params(init_params(tiny_vocab(), 2, seed=0), path, target="columns")
        doc = json.loads(path.read_text())
        for key, value in edit.items():
            (doc if key in doc else doc["params"])[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_params(path)
        report = tmp_path / "report.json"
        argv = ["eval-reduce", "--data", str(data), "--model", str(path), "--report", str(report)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"error: {path}: {message}"]
        assert not report.exists()

    @pytest.mark.parametrize("text", ['{"format_version": 1, "dim"', "[1]"])
    def test_non_model_json_rejected(self, tmp_path, text):
        path = tmp_path / "m.model.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_params(path)


def test_mean_embedding_empty_is_zero():
    params = PolicyParams.zeros(tiny_vocab(), 4)
    params.emb = np.ones_like(params.emb)
    (matrix,) = count_matrices([encoded((), [(1,), ()])])
    means = matrix.means(params.emb)
    assert np.all(means[0] == 0)
    assert means[1:].tolist() == [[1.0] * 4, [0.0] * 4]
