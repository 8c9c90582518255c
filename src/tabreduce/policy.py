"""Autoregressive pointer policy over candidate items plus a STOP action.

The policy scores each remaining candidate j against the question encoding
``q`` and the mean encoding ``h`` of already-selected items:

    score(j)    = q . Wq . v_j  +  h . Wh . v_j
    score(STOP) = q . sq  +  h . sh  +  sb

followed by a softmax over the remaining candidates (ascending index order)
with STOP in the final slot.  ``q`` and each candidate encoding ``v_j`` are
means of token embeddings; ``h`` is the zero vector before anything is
selected.  A linear value head ``q . vq + h . vh + vb`` shares the
embeddings.

Encodings are segment means: each instance gets a matrix of its segments'
token counts over its distinct tokens, divided by the segment lengths, and
its encodings are that matrix times the rows of those tokens in the
embedding table (``embed``); the gradient goes back through the transposed
product.  The matrices are built per instance, so an instance encodes the
same whatever it is batched with.  Sampling (``sample_episode``) walks one
episode step by step over precomputed encodings.  Greedy decoding
(``greedy_decode``) steps many instances together as padded score arrays,
and settles near-ties with the per-instance ``step_distribution`` so that
its selections are exactly those of a per-instance greedy walk over the
same encodings.  Training never walks episodes: a fixed action
sequence becomes an ``Episode`` (per step, the available candidates and the
history-mean weights ``W``, so ``h = W @ v``), built once per example, and
``forward`` replays a whole minibatch of them as padded ``(B, T, N + 1)``
score tensors.  ``backward`` runs the chain rule back through the same
tensors down to the token embeddings.

Log-probabilities are exact and every gradient here is written by hand;
``finite_difference_error`` checks them against central differences, which
the test suite runs for both the likelihood loss and the clipped-surrogate
loss.  All sampling goes through caller-supplied generators, so identical
seeds give identical episodes.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .atomicio import atomic_write
from .errors import ConfigError, NumericalError

STOP = -1

MODEL_FORMAT_VERSION = 1

_WORD_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercased, punctuation-split words."""
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index map; index 0 is reserved for out-of-vocabulary words."""

    tokens: tuple[str, ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        lookup = {tok: i + 1 for i, tok in enumerate(self.tokens)}
        if len(lookup) != len(self.tokens):
            raise ConfigError("vocabulary tokens must be unique")
        object.__setattr__(self, "_index", lookup)

    @property
    def size(self) -> int:
        return len(self.tokens) + 1

    def encode(self, text: str) -> tuple[int, ...]:
        return tuple(map(self._index.get, tokenize(text), itertools.repeat(0)))


def build_vocabulary(texts: Iterable[str]) -> Vocabulary:
    seen: set[str] = set()
    for text in texts:
        seen.update(tokenize(text))
    return Vocabulary(tuple(sorted(seen)))


@dataclass(frozen=True)
class EncodedInstance:
    """Tokenized question and candidate texts, ready for the policy.

    The policy reads them as ``segments``, from which each batch builds the
    instance's count matrix (``_count_matrices``); nothing of the batch
    enters it.
    """

    question_ids: tuple[int, ...]
    candidate_ids: tuple[tuple[int, ...], ...]

    @property
    def n_candidates(self) -> int:
        return len(self.candidate_ids)

    @cached_property
    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat token ids in segment order and each segment's length;
        segment 0 is the question and segment 1 + j candidate j."""
        parts = (self.question_ids, *self.candidate_ids)
        lengths = np.array([len(p) for p in parts], dtype=np.intp)
        ids = np.fromiter(itertools.chain.from_iterable(parts), dtype=np.intp, count=int(lengths.sum()))
        return ids, lengths


def encode_instance(vocab: Vocabulary, question: str, candidate_texts: Sequence[str]) -> EncodedInstance:
    return EncodedInstance(
        question_ids=vocab.encode(question),
        candidate_ids=tuple(vocab.encode(t) for t in candidate_texts),
    )


# ---------------------------------------------------------------------------
# Parameters

_PARAM_NAMES = (
    "emb", "score_q", "score_h", "stop_q", "stop_h", "stop_b",
    "value_q", "value_h", "value_b",
)


@dataclass
class PolicyParams:
    """All learnable arrays.  Scalars are shape-(1,) for uniform handling."""

    vocab: Vocabulary
    dim: int
    emb: np.ndarray       # (vocab.size, dim) token embeddings
    score_q: np.ndarray   # (dim, dim) question-candidate bilinear form
    score_h: np.ndarray   # (dim, dim) history-candidate bilinear form
    stop_q: np.ndarray    # (dim,)
    stop_h: np.ndarray    # (dim,)
    stop_b: np.ndarray    # (1,)
    value_q: np.ndarray   # (dim,)
    value_h: np.ndarray   # (dim,)
    value_b: np.ndarray   # (1,)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            vocab=self.vocab,
            dim=self.dim,
            **{name: getattr(self, name).copy() for name in _PARAM_NAMES},
        )

    def equals(self, other: "PolicyParams") -> bool:
        return self.vocab.tokens == other.vocab.tokens and all(
            np.array_equal(getattr(self, n), getattr(other, n)) for n in _PARAM_NAMES
        )

    @classmethod
    def zeros(cls, vocab: Vocabulary, dim: int) -> "PolicyParams":
        return cls(
            vocab=vocab,
            dim=dim,
            emb=np.zeros((vocab.size, dim)),
            score_q=np.zeros((dim, dim)),
            score_h=np.zeros((dim, dim)),
            stop_q=np.zeros(dim),
            stop_h=np.zeros(dim),
            stop_b=np.zeros(1),
            value_q=np.zeros(dim),
            value_h=np.zeros(dim),
            value_b=np.zeros(1),
        )


def init_params(vocab: Vocabulary, dim: int = 64, seed: int = 0) -> PolicyParams:
    """Uniform(-0.1, 0.1) init for scoring parameters; value head starts at zero.

    Draw order is fixed (embeddings, bilinear forms, STOP weights) so a seed
    pins the exact parameter values.
    """
    rng = np.random.default_rng(seed)
    u = lambda *shape: rng.uniform(-0.1, 0.1, size=shape)
    params = PolicyParams.zeros(vocab, dim)
    params.emb = u(vocab.size, dim)
    params.score_q = u(dim, dim)
    params.score_h = u(dim, dim)
    params.stop_q = u(dim)
    params.stop_h = u(dim)
    params.stop_b = u(1)
    return params


def zero_grads(params: PolicyParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.arrays().items()}


def save_params(params: PolicyParams, path, target: str | None = None) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "dim": params.dim,
        "vocabulary": list(params.vocab.tokens),
        "params": {name: arr.reshape(-1).tolist() for name, arr in params.arrays().items()},
    }
    if target is not None:
        doc["target"] = target
    # json.dumps encodes in C; json.dump(doc, fh) always takes the Python encoder.
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def load_params(path) -> tuple[PolicyParams, str | None]:
    """The parameters and stored target of a model file; ``ConfigError``
    when the file is not a complete model of the current format."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not a JSON model file: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported model format: {version!r}")
    for key in ("dim", "vocabulary", "params"):
        if key not in doc:
            raise ConfigError(f"{path}: model file lacks {key!r}")
    vocab = Vocabulary(tuple(doc["vocabulary"]))
    dim = int(doc["dim"])
    params = PolicyParams.zeros(vocab, dim)
    for name, arr in params.arrays().items():
        if name not in doc["params"]:
            raise ConfigError(f"{path}: model file lacks parameter {name!r}")
        flat = np.asarray(doc["params"][name], dtype=float)
        if flat.size != arr.size:
            raise ConfigError(f"{path}: parameter {name!r} has wrong size {flat.size}")
        setattr(params, name, flat.reshape(arr.shape))
    return params, doc.get("target")


# ---------------------------------------------------------------------------
# Encodings

# Segments per ``forward``, ``greedy_decode`` or ``embed`` chunk: they bound
# the padded (segments, dim) arrays and the chunk's count matrices, so a
# minibatch of long tables needs little more memory than one of short tables.
_SEGMENT_BLOCK = 1024


def _count_matrices(encs: Sequence[EncodedInstance]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per instance, its distinct token ids ``u`` (ascending) and the
    ``(1 + n_candidates, len(u))`` matrix ``C`` whose entry ``C[s, k]`` is
    the count of token ``u[k]`` in segment s divided by that segment's
    length.  The segment means are ``C @ emb[u]`` (an empty segment's is
    zero), and ``C.T @ d_means`` is their gradient with respect to
    ``emb[u]``.

    One sort and one count serve all of ``encs``, but each ``C`` comes from
    its own instance alone, so an instance encodes bit for bit the same in
    any batch: a ``u`` shared across the batch would change the products'
    inner dimension, and with it their rounding.  ``C`` is dense, so its
    size grows with the distinct tokens of the instance, which the
    vocabulary bounds (at most about 130 tokens for every model the
    benchmark builds).
    """
    if not encs:
        return []
    segments = [enc.segments for enc in encs]
    ids = np.concatenate([tok_ids for tok_ids, _ in segments])
    seg_lengths = np.concatenate([lengths for _, lengths in segments])
    n_segs = np.array([lengths.size for _, lengths in segments])
    inst_of = np.repeat(np.arange(len(encs)), [tok_ids.size for tok_ids, _ in segments])
    base = int(ids.max(initial=0)) + 1
    # distinct (instance, token id) pairs, instance-major; ``column`` places
    # each token among them
    keys, column = np.unique(inst_of * base + ids, return_inverse=True)
    owner, u = np.divmod(keys, base)
    n_u = np.bincount(owner, minlength=len(encs))
    u_start = np.cumsum(n_u) - n_u
    seg_start = np.cumsum(n_segs) - n_segs
    size = n_segs * n_u
    offset = np.cumsum(size) - size
    # instance b's counts fill ``counts[offset[b] : offset[b] + size[b]]`` row-major
    seg_of = np.repeat(np.arange(seg_lengths.size), seg_lengths) - seg_start[inst_of]
    counts = np.bincount(
        offset[inst_of] + seg_of * n_u[inst_of] + column - u_start[inst_of],
        minlength=int(size.sum()),
    )
    divisor = np.maximum(seg_lengths, 1)[:, None]
    return [
        (u[k0 : k0 + k], counts[o : o + s * k].reshape(s, k) / divisor[s0 : s0 + s])
        for k0, k, s0, s, o in zip(*(a.tolist() for a in (u_start, n_u, seg_start, n_segs, offset)))
    ]


@dataclass(frozen=True, eq=False)
class Embedded:
    """One instance's question and candidate encodings under one parameter set."""

    params: PolicyParams
    q: np.ndarray   # (dim,)
    v: np.ndarray   # (n_candidates, dim)


def _embed_padded(params: PolicyParams, encs: Sequence[EncodedInstance]):
    """Count matrices, (B, dim) question and (B, N, dim) candidate encodings
    of ``encs`` padded to the most candidates; padded candidates are zero."""
    matrices = _count_matrices(encs)
    encoded = np.zeros((len(encs), 1 + max(enc.n_candidates for enc in encs), params.dim))
    for b, (u, c) in enumerate(matrices):
        encoded[b, : c.shape[0]] = c @ params.emb[u]
    return matrices, encoded[:, 0], encoded[:, 1:]


def embed(params: PolicyParams, encs: Sequence[EncodedInstance]) -> list[Embedded]:
    """Encode many instances, one ``chunks`` run of count matrices at a time."""
    embedded = []
    for run in chunks(encs):
        for u, c in _count_matrices(encs[run]):
            means = c @ params.emb[u]
            embedded.append(Embedded(params, means[0], means[1:]))
    return embedded


# ---------------------------------------------------------------------------
# Step-level math

def _softmax(scores: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(scores)):
        raise NumericalError("non-finite scores in step distribution")
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def step_distribution(
    params: PolicyParams,
    question_enc: np.ndarray,
    history_enc: np.ndarray,
    candidate_encs: np.ndarray,
) -> np.ndarray:
    """Probabilities over remaining candidates (given order) then STOP."""
    n = candidate_encs.shape[0] if candidate_encs.size else 0
    scores = np.empty(n + 1)
    if n:
        scores[:n] = (question_enc @ params.score_q) @ candidate_encs.T
        scores[:n] += (history_enc @ params.score_h) @ candidate_encs.T
    scores[n] = (
        question_enc @ params.stop_q + history_enc @ params.stop_h + params.stop_b[0]
    )
    return _softmax(scores)


def value_estimate(params: PolicyParams, question_enc: np.ndarray, history_enc: np.ndarray) -> float:
    return float(
        question_enc @ params.value_q + history_enc @ params.value_h + params.value_b[0]
    )


def apply_top_p_mask(probs: np.ndarray, p: float) -> np.ndarray:
    """Keep the smallest probability-descending prefix with cumulative >= p.

    Ties break toward the lower action index; surviving probabilities are
    renormalized.  p = 1.0 keeps everything.
    """
    probs = np.asarray(probs, dtype=float)
    if not 0.0 < p <= 1.0:
        raise ConfigError(f"top-p must be in (0, 1], got {p}")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
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


# ---------------------------------------------------------------------------
# Sampling

@dataclass(frozen=True)
class EpisodeTrace:
    """One rollout: actions (candidate indices, then STOP), per-step
    behavior/reference log-probabilities, value estimates, and the terminal
    task reward filled in by the caller.

    ``logp_pi`` is the behavior log-probability (top-p masked when sampling
    was masked), which the KL penalty and its measurement use; ``logp_ref``
    is the unmasked reference log-probability of the same action.
    """

    actions: tuple[int, ...]
    logp_pi: tuple[float, ...]
    logp_ref: tuple[float, ...]
    values: tuple[float, ...]
    selected: frozenset[int]
    task_reward: float = 0.0

    def with_task_reward(self, reward: float) -> "EpisodeTrace":
        return replace(self, task_reward=reward)


def sample_episode(
    pi: Embedded,
    ref: Embedded | None = None,
    *,
    rng: np.random.Generator,
    top_p: float | None = None,
) -> EpisodeTrace:
    """Sample one episode; selected candidates leave the action set.

    ``pi`` and ``ref`` are the instance encoded under the current and the
    reference parameters (``ref`` None: the reference is the current
    policy).  The behavior distribution is the policy, top-p masked when
    ``top_p`` is given, and the recorded logp_pi is its (masked)
    log-probability; logp_ref scores the same actions under the reference
    without masking.  Greedy decoding is ``greedy_decode``.
    """
    remaining = list(range(pi.v.shape[0]))
    selected: list[int] = []
    h = h_ref = np.zeros(pi.params.dim)
    actions: list[int] = []
    logp_pi: list[float] = []
    logp_ref: list[float] = []
    values: list[float] = []

    while True:
        probs = step_distribution(pi.params, pi.q, h, pi.v[remaining])
        behavior = probs if top_p is None else apply_top_p_mask(probs, top_p)
        pick = int(rng.choice(behavior.size, p=behavior))
        if ref is None:
            ref_probs = probs
        else:
            ref_probs = step_distribution(ref.params, ref.q, h_ref, ref.v[remaining])

        values.append(value_estimate(pi.params, pi.q, h))
        logp_pi.append(float(np.log(behavior[pick])))
        logp_ref.append(float(np.log(ref_probs[pick])))

        if pick == len(remaining):  # STOP slot
            actions.append(STOP)
            break
        chosen = remaining.pop(pick)
        actions.append(chosen)
        selected.append(chosen)
        h = pi.v[selected].mean(axis=0)
        if ref is not None:
            h_ref = ref.v[selected].mean(axis=0)

    return EpisodeTrace(
        actions=tuple(actions),
        logp_pi=tuple(logp_pi),
        logp_ref=tuple(logp_ref),
        values=tuple(values),
        selected=frozenset(a for a in actions if a != STOP),
    )


# ---------------------------------------------------------------------------
# Greedy decoding

@dataclass(frozen=True)
class GreedyDecode:
    """Greedy selections, in input order, and how they were reached:
    ``steps`` decode steps over all instances (each STOP included), of which
    ``exact_steps`` were settled by the per-instance arithmetic."""

    selected: list[frozenset[int]]
    steps: int
    exact_steps: int


def _gamma(n: int) -> float:
    """The standard bound n·u / (1 - n·u), u = 2**-53, on the relative
    rounding error of an n-term dot product, in any summation order."""
    nu = n * 2.0**-53
    return nu / (1.0 - nu)


# The step distribution's exp and division can give two probabilities the
# same value when their scores differ by less than about 2**-50; a lead of
# more than this keeps the top slot the distribution's unique argmax.
_TIE_MARGIN = 2.0**-48


def _exact_pick(params: PolicyParams, q: np.ndarray, v: np.ndarray,
                allowed: np.ndarray, rank: np.ndarray) -> int:
    """The slot a per-instance walk picks: the argmax of ``step_distribution``
    over the remaining candidates in ascending order, with the history mean
    taken over the selected candidates in selection order."""
    n = v.shape[0]
    remaining = np.flatnonzero(allowed[:n])
    chosen = np.flatnonzero(rank >= 0)
    chosen = chosen[np.argsort(rank[chosen])]
    history = v[chosen].mean(axis=0) if chosen.size else np.zeros(params.dim)
    # q copied into its own array, as the walk's is, in case BLAS rounds by alignment
    pick = int(np.argmax(step_distribution(params, q.copy(), history, v[remaining])))
    return n if pick == remaining.size else int(remaining[pick])


def greedy_decode(params: PolicyParams, encs: Sequence[EncodedInstance]) -> GreedyDecode:
    """Greedy decode of many instances, stepped together.

    The result is what walking each instance on its own, over its ``embed``
    encodings, gives when every step takes the argmax of
    ``step_distribution`` (ties to the lowest action index) and STOP ends
    the episode.  Instances are sorted by candidate count and cut into
    ``chunks``; each chunk is embedded once and stepped as one masked
    ``(B, N + 1)`` score array with STOP in the last slot, and instances
    that stop leave the working arrays.

    The batched products round differently from that walk's (BLAS rounds a
    column differently depending on the shape of the call).  So the batched
    argmax stands only when it leads every other allowed slot by more than
    both paths' rounding error plus ``_TIE_MARGIN``.  The error of a score
    x . y is bounded by γₙ·|x|·|y|, here taken through ‖|x|‖·‖y‖ for the
    candidates, with the history mean's own rounding covered by the mean of
    the selected candidates' magnitudes.  Otherwise, as on a real tie, that
    instance's step is settled by ``step_distribution`` itself
    (``_exact_pick``), which also raises ``NumericalError`` for non-finite
    scores.
    """
    if not encs:
        return GreedyDecode([], 0, 0)
    order = sorted(range(len(encs)), key=lambda i: encs[i].n_candidates)
    ordered = [encs[i] for i in order]
    selected: list[frozenset[int]] = [frozenset()] * len(encs)
    steps = exact_steps = 0
    abs_score_h = np.abs(params.score_h)
    abs_stop_h = np.abs(params.stop_h)
    for run in chunks(ordered):
        q, v = _embed_padded(params, ordered[run])[1:]  # the count matrices are not kept
        batch, n, dim = v.shape
        live = np.arange(run.start, run.stop)  # positions in ``order``
        # both paths' error: 2·dim + 2 terms per score, n for the history
        # mean, and 2 for the norms and the comparison below
        slack = 2.0 * _gamma(2 * dim + 4 + n)
        allowed = np.zeros((batch, n + 1), dtype=bool)
        allowed[:, :n] = np.arange(n) < np.array([enc.n_candidates for enc in ordered[run]])[:, None]
        allowed[:, n] = True
        rank = np.full((batch, n), -1)  # selection order of each picked candidate
        picked = np.zeros(batch, dtype=np.intp)
        h_sum = np.zeros((batch, dim))
        h_abs = np.zeros((batch, dim))  # sum of the selected candidates' magnitudes
        v_norm = np.sqrt(np.einsum("bnd,bnd->bn", v, v))
        qw = q @ params.score_q
        qw_abs = np.abs(q) @ np.abs(params.score_q)
        q_stop = q @ params.stop_q
        q_stop_abs = np.abs(q) @ np.abs(params.stop_q) + abs(params.stop_b[0])
        while live.size:
            rows = np.arange(live.size)
            denom = np.maximum(picked, 1)[:, None]
            h, h_bound = h_sum / denom, h_abs / denom
            raw = np.empty((live.size, n + 1))
            raw[:, :n] = (v @ (qw + h @ params.score_h)[:, :, None])[..., 0]
            raw[:, n] = q_stop + h @ params.stop_h + params.stop_b[0]
            bound = np.empty((live.size, n + 1))
            bound[:, :n] = v_norm * np.linalg.norm(qw_abs + h_bound @ abs_score_h, axis=1)[:, None]
            bound[:, n] = q_stop_abs + h_bound @ abs_stop_h
            bound *= slack
            top = np.where(allowed, raw, -np.inf).argmax(axis=1)
            rivals = np.where(allowed, raw + bound, -np.inf)
            rivals[rows, top] = -np.inf
            clear = raw[rows, top] - bound[rows, top] - rivals.max(axis=1) > _TIE_MARGIN
            clear &= np.isfinite(raw).all(axis=1)  # else the exact step raises
            for i in np.flatnonzero(~clear):
                top[i] = _exact_pick(params, q[i], v[i], allowed[i], rank[i])
            steps += live.size
            exact_steps += live.size - int(clear.sum())

            go = top < n
            rows, cols = rows[go], top[go]
            allowed[rows, cols] = False
            rank[rows, cols] = picked[rows]
            picked[rows] += 1
            h_sum[rows] += v[rows, cols]
            h_abs[rows] += np.abs(v[rows, cols])
            if not go.all():
                for i in np.flatnonzero(~go):
                    selected[order[live[i]]] = frozenset(np.flatnonzero(rank[i] >= 0).tolist())
                (live, q, v, v_norm, qw, qw_abs, q_stop, q_stop_abs, allowed, rank, picked,
                 h_sum, h_abs) = (a[go] for a in (live, q, v, v_norm, qw, qw_abs, q_stop,
                                                  q_stop_abs, allowed, rank, picked, h_sum, h_abs))
    return GreedyDecode(selected, steps, exact_steps)


# ---------------------------------------------------------------------------
# Teacher-forced minibatches

@dataclass(frozen=True, eq=False)
class Episode:
    """A fixed action sequence over one instance, laid out for ``forward``.

    Actions end at the first STOP.  Row t describes the state before action
    t: which candidates are still available, and the weights (1/k on the k
    candidates already selected) whose product with the candidate encodings
    is the history mean.
    """

    enc: EncodedInstance
    picks: np.ndarray       # (T,) candidate index of each action; STOP is -1
    available: np.ndarray   # (T, n_candidates) bool
    history: np.ndarray     # (T, n_candidates)

    @property
    def steps(self) -> int:
        return self.picks.size


def build_episode(enc: EncodedInstance, actions: Sequence[int]) -> Episode:
    """Lay out ``actions``; raises ValueError for an unavailable action."""
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
    return Episode(enc, np.array(steps, dtype=np.intp), available, history)


@dataclass
class Forward:
    """Teacher-forced pass over B episodes padded to T steps and N candidates.

    Slot N of the last axis is STOP.  Padded steps allow only STOP, are
    False in ``valid`` and read 0 in ``logps``, ``entropies`` and
    ``values``.  Everything ``backward`` needs is kept.
    """

    matrices: list[tuple[np.ndarray, np.ndarray]]  # per episode, (u, C) of _count_matrices
    steps: np.ndarray       # (B,) real steps per episode
    valid: np.ndarray       # (B, T)
    picks: np.ndarray       # (B, T) slot of each taken action
    allowed: np.ndarray     # (B, T, N + 1)
    weights: np.ndarray     # (B, T, N) history-mean weights
    q: np.ndarray           # (B, dim)
    v: np.ndarray           # (B, N, dim)
    h: np.ndarray           # (B, T, dim) history means
    u: np.ndarray           # (B, T, dim) q . Wq + h . Wh
    probs: np.ndarray       # (B, T, N + 1), 0 outside allowed
    logprobs: np.ndarray    # (B, T, N + 1), 0 outside allowed
    logps: np.ndarray       # (B, T) log-probability of each taken action
    entropies: np.ndarray   # (B, T)
    values: np.ndarray      # (B, T)

    def pad(self, rows: Sequence[np.ndarray]) -> np.ndarray:
        """Per-episode step vectors as one zero-padded (B, T) array."""
        out = np.zeros(self.valid.shape)
        for b, row in enumerate(rows):
            if len(row) != self.steps[b]:
                raise ValueError(f"episode {b} has {self.steps[b]} steps, got {len(row)} values")
            out[b, : len(row)] = row
        return out


def forward(params: PolicyParams, episodes: Sequence[Episode]) -> Forward:
    """Unmasked step distributions, log-probs, entropies and values of a minibatch."""
    matrices, q, v = _embed_padded(params, [ep.enc for ep in episodes])
    n_max = v.shape[1]
    t_max = max(ep.steps for ep in episodes)
    batch = len(episodes)

    steps = np.array([ep.steps for ep in episodes])
    valid = np.arange(t_max) < steps[:, None]
    picks = np.full((batch, t_max), n_max)
    allowed = np.zeros((batch, t_max, n_max + 1), dtype=bool)
    allowed[..., n_max] = True
    weights = np.zeros((batch, t_max, n_max))
    for b, ep in enumerate(episodes):
        t, n = ep.available.shape
        picks[b, :t] = np.where(ep.picks == STOP, n_max, ep.picks)
        allowed[b, :t, :n] = ep.available
        weights[b, :t, :n] = ep.history

    h = weights @ v
    u = (q @ params.score_q)[:, None, :] + h @ params.score_h
    scores = np.empty((batch, t_max, n_max + 1))
    scores[..., :n_max] = u @ v.transpose(0, 2, 1)
    scores[..., n_max] = (q @ params.stop_q)[:, None] + h @ params.stop_h + params.stop_b[0]
    if not np.all(np.isfinite(scores[allowed])):
        raise NumericalError("non-finite scores in step distribution")
    scores[~allowed] = -np.inf
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=True)
    probs = exp / total
    logprobs = np.where(allowed, shifted - np.log(total), 0.0)
    logps = np.take_along_axis(logprobs, picks[..., None], axis=-1)[..., 0]
    entropies = -(probs * logprobs).sum(axis=-1)
    values = (q @ params.value_q)[:, None] + h @ params.value_h + params.value_b[0]

    return Forward(
        matrices=matrices, steps=steps, valid=valid, picks=picks, allowed=allowed,
        weights=weights, q=q, v=v, h=h, u=u, probs=probs, logprobs=logprobs,
        logps=np.where(valid, logps, 0.0),
        entropies=np.where(valid, entropies, 0.0),
        values=np.where(valid, values, 0.0),
    )


def backward(
    params: PolicyParams,
    fw: Forward,
    grads: dict[str, np.ndarray],
    logp_coef: np.ndarray,
    entropy_coef: np.ndarray | None = None,
    value_coef: np.ndarray | None = None,
) -> None:
    """Add the gradient of sum(logp_coef*logp + entropy_coef*H +
    value_coef*V) over the (B, T) steps of ``fw`` to ``grads``;
    coefficients must be 0 on padded steps.  Backpropagates through scores,
    the history means and the segment means down to the token embeddings.
    """
    batch, t_max, slots = fw.probs.shape
    n_max = slots - 1
    dim = params.dim

    dscores = -logp_coef[..., None] * fw.probs
    rows, cols = np.indices((batch, t_max))
    dscores[rows, cols, fw.picks] += logp_coef
    if entropy_coef is not None and entropy_coef.any():
        dscores -= entropy_coef[..., None] * fw.probs * (fw.logprobs + fw.entropies[..., None])
    d_cand = dscores[..., :n_max]
    d_stop = dscores[..., n_max]

    du = d_cand @ fw.v
    du_sum = du.sum(axis=1)
    grads["score_q"] += fw.q.T @ du_sum
    grads["score_h"] += fw.h.reshape(-1, dim).T @ du.reshape(-1, dim)
    dq = du_sum @ params.score_q.T
    dh = du @ params.score_h.T

    heads = [("stop", d_stop)]
    if value_coef is not None and value_coef.any():
        heads.append(("value", value_coef))
    for head, coef in heads:
        per_episode = coef.sum(axis=1)
        grads[f"{head}_q"] += per_episode @ fw.q
        grads[f"{head}_h"] += coef.reshape(-1) @ fw.h.reshape(-1, dim)
        grads[f"{head}_b"][0] += per_episode.sum()
        dq += per_episode[:, None] * getattr(params, f"{head}_q")
        dh += coef[..., None] * getattr(params, f"{head}_h")

    # candidate j's encoding reaches its scores through u and the history
    # means through the weights: dv = d_cand^T u + W^T dh, as one product
    d_means = np.empty((batch, 1 + n_max, dim))
    d_means[:, 0] = dq
    np.matmul(
        np.concatenate([d_cand, fw.weights], axis=1).transpose(0, 2, 1),
        np.concatenate([fw.u, dh], axis=1),
        out=d_means[:, 1:],
    )
    for b, (u, c) in enumerate(fw.matrices):
        grads["emb"][u] += c.T @ d_means[b, : c.shape[0]]


def chunks(encs: Sequence[EncodedInstance]) -> list[slice]:
    """Consecutive runs of instances to pass to ``forward`` (or to step in
    ``greedy_decode``, or to encode in ``embed``) one at a time.

    Each run pads to at most ``_SEGMENT_BLOCK`` encodings (or holds a single
    instance), which bounds the memory of ``forward``/``backward``, of the
    greedy stepper and of a run's count matrices whatever the table size; a
    minibatch of short tables is one run.
    """
    runs = []
    start = width = 0
    for i, enc in enumerate(encs):
        need = 1 + enc.n_candidates
        if i > start and (i + 1 - start) * max(width, need) > _SEGMENT_BLOCK:
            runs.append(slice(start, i))
            start, width = i, 0
        width = max(width, need)
    runs.append(slice(start, len(encs)))
    return runs


# ---------------------------------------------------------------------------
# Losses

def sft_loss_and_grad(
    params: PolicyParams,
    batch: Sequence[Episode | tuple[EncodedInstance, Sequence[int]]],
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean negative log-likelihood of gold action sequences, with gradients.

    Items are Episodes or (encoded instance, actions) pairs.
    """
    if not batch:
        raise ConfigError("empty SFT batch")
    episodes = [item if isinstance(item, Episode) else build_episode(*item) for item in batch]
    grads = zero_grads(params)
    total = 0.0
    for run in chunks([ep.enc for ep in episodes]):
        fw = forward(params, episodes[run])
        total += float(fw.logps.sum())
        backward(params, fw, grads, logp_coef=np.where(fw.valid, -1.0 / len(batch), 0.0))
    loss = -total / len(batch)
    if not np.isfinite(loss):
        raise NumericalError("non-finite SFT loss")
    return loss, grads


@dataclass(frozen=True)
class PpoExample:
    """One episode prepared for the clipped-surrogate update."""

    enc: EncodedInstance
    actions: tuple[int, ...]
    old_logps: np.ndarray     # behavior (masked) log-probs at collection time
    advantages: np.ndarray    # normalized, frozen
    returns: np.ndarray       # Monte-Carlo returns, frozen
    episode: Episode = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "episode", build_episode(self.enc, self.actions))


@dataclass
class PpoStats:
    policy_loss: float = 0.0
    value_loss: float = 0.0
    entropy: float = 0.0
    clip_fraction: float = 0.0
    mean_ratio: float = 1.0


def ppo_loss_and_grad(
    params: PolicyParams,
    batch: Sequence[PpoExample],
    clip_epsilon: float,
    value_loss_coef: float,
    entropy_coef: float,
) -> tuple[float, dict[str, np.ndarray], PpoStats]:
    """Clipped-surrogate PPO loss over every step in the batch.

        loss = -mean(min(ratio*A, clip(ratio)*A))
               + value_loss_coef * mean((V - return)^2)
               - entropy_coef * mean(H)

    New log-probs are the unmasked policy; ratios divide by the stored
    behavior log-probs.  Steps where the clipped branch is strictly active
    contribute no policy gradient.
    """
    if not batch:
        raise ConfigError("empty PPO batch")
    grads = zero_grads(params)
    n_steps = sum(ex.episode.steps for ex in batch)
    pol_sum = val_sum = ent_sum = ratio_sum = 0.0
    clipped = 0

    for run in chunks([ex.enc for ex in batch]):
        part = batch[run]
        fw = forward(params, [ex.episode for ex in part])
        old_logps = fw.pad([ex.old_logps for ex in part])
        advantages = fw.pad([ex.advantages for ex in part])
        returns = fw.pad([ex.returns for ex in part])

        # padded steps: ratio exp(0 - 0) = 1 with zero advantage and error
        ratios = np.exp(fw.logps - old_logps)
        if not np.all(np.isfinite(ratios)):
            raise NumericalError("non-finite PPO ratio")
        surr1 = ratios * advantages
        surr2 = np.clip(ratios, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * advantages
        take_unclipped = surr1 <= surr2
        errors = fw.values - returns
        pol_sum -= float(np.minimum(surr1, surr2).sum())
        val_sum += float((errors**2).sum())
        ent_sum += float(fw.entropies.sum())
        clipped += int((~take_unclipped).sum())
        ratio_sum += float(ratios[fw.valid].sum())

        backward(
            params, fw, grads,
            logp_coef=np.where(take_unclipped, -ratios * advantages / n_steps, 0.0),
            entropy_coef=np.where(fw.valid, -entropy_coef / n_steps, 0.0),
            value_coef=value_loss_coef * 2.0 * errors / n_steps,
        )

    policy_loss = pol_sum / n_steps
    value_loss = val_sum / n_steps
    entropy = ent_sum / n_steps
    loss = policy_loss + value_loss_coef * value_loss - entropy_coef * entropy
    if not np.isfinite(loss):
        raise NumericalError("non-finite PPO loss")
    stats = PpoStats(
        policy_loss=policy_loss,
        value_loss=value_loss,
        entropy=entropy,
        clip_fraction=clipped / n_steps,
        mean_ratio=ratio_sum / n_steps,
    )
    return loss, grads, stats


# ---------------------------------------------------------------------------
# Gradient verification

def finite_difference_error(
    params: PolicyParams,
    value_and_grad: Callable[[PolicyParams], tuple[float, dict[str, np.ndarray]]],
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients."""
    _, grads = value_and_grad(params)
    work = params.copy()
    worst = 0.0
    for name, arr in work.arrays().items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up, _ = value_and_grad(work)
            flat[i] = orig - epsilon
            down, _ = value_and_grad(work)
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(1e-6, abs(gflat[i]), abs(numeric))
            worst = max(worst, abs(gflat[i] - numeric) / denom)
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
    gold = tuple(gold_actions)
    episode = build_episode(enc, gold)

    def sft_fn(p: PolicyParams) -> tuple[float, dict[str, np.ndarray]]:
        return sft_loss_and_grad(p, [episode])

    base_logps = forward(params, [episode]).logps[0]
    steps = episode.steps
    offsets = np.where(np.arange(steps) % 2 == 0, 0.1, 0.4)
    signs = np.where(np.arange(steps) % 3 == 0, -1.0, 1.0)
    example = PpoExample(
        enc=enc,
        actions=gold,
        old_logps=base_logps - offsets,
        advantages=signs * (1.0 + 0.25 * np.arange(steps)),
        returns=np.linspace(-1.0, 1.0, steps),
    )

    def ppo_fn(p: PolicyParams) -> tuple[float, dict[str, np.ndarray]]:
        loss, grads, _ = ppo_loss_and_grad(
            p, [example], clip_epsilon=clip_epsilon, value_loss_coef=0.5, entropy_coef=0.01
        )
        return loss, grads

    return max(
        finite_difference_error(params, sft_fn, epsilon),
        finite_difference_error(params, ppo_fn, epsilon),
    )
