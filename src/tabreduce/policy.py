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
token counts over its distinct tokens, divided by the segment lengths
(``CountMatrix``), and its encodings are that matrix times the rows of those
tokens in the embedding table; the gradient goes back through the
transposed product.  The matrices are built per instance, so an instance
encodes the same whatever it is batched with.  ``forward`` reads count
matrices, not encodings: SFT and greedy decoding build them per chunk and
drop them, while a PPO rollout builds them once for its distinct instances
(``count_matrices``) and keeps them for every minibatch of its update.

Sampling (``sample_episodes``) and greedy decoding (``greedy_decode``) step
many instances together as masked ``(B, N + 1)`` score arrays, STOP in the
last slot, through one stepper (``_Stepper``).  Sampling draws each
episode's picks from its own row of a caller-supplied block of uniforms.
Greedy decoding takes each row's argmax, ties to the lowest slot; a row
scores the same in any batch, so an instance decodes the same whatever it
is decoded with.

Training never walks episodes.  An episode is its instance (its count
matrix, in a PPO update) and its actions, one row of a ``(B, T)`` array
that reads STOP after the episode ends: sampling returns its episodes so
(``SampledEpisodes``), gold sequences are padded so (``pad_actions``) and
the update keeps them so (``PpoBatch``).  ``forward`` derives each step's
available candidates and history-mean weights ``W`` (``h = W @ v``) from a
minibatch's actions at once and replays it as padded ``(B, T, N + 1)``
score tensors.  ``backward`` runs the chain rule back through the same
tensors down to the token embeddings.

Gradients come in ``FlatArrays``: per-parameter views of one flat buffer,
so an optimizer can update them in one elementwise pass (``zero_grads``).
Log-probabilities are exact and every gradient here is written by hand;
``finite_difference_error`` checks them against central differences, which
the test suite runs for both the likelihood loss and the clipped-surrogate
loss.  Sampling reads only the uniforms it is given, so identical uniforms
give identical episodes.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import numbers
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .atomicio import atomic_write
from .errors import ConfigError, NumericalError

STOP = -1

MODEL_FORMAT_VERSION = 2

TARGET_COLUMNS = "columns"
TARGET_ROWS = "rows"
TARGETS = (TARGET_COLUMNS, TARGET_ROWS)

_WORD_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercased, punctuation-split words."""
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index map; index 0 is reserved for out-of-vocabulary words.

    ``cell_ids`` is this vocabulary's memo of token ids per table cell key
    (``tables.row_tokens``), and ``text_ids`` its memo of token ids per
    candidate text (``encode_instance``, which column candidates go
    through).  Both live as long as the vocabulary, which a stage builds or
    loads for itself, and never serve another vocabulary.
    """

    tokens: tuple[str, ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    cell_ids: dict = field(default_factory=dict, repr=False, compare=False)
    text_ids: dict = field(default_factory=dict, repr=False, compare=False)

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

    The policy reads them as ``segments``, from which the instance's count
    matrix is built (``_count_matrices``); nothing of the batch it is built
    in enters it.
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
    """The question and candidate texts as token ids; each distinct candidate
    text is tokenized once per vocabulary (``Vocabulary.text_ids``)."""
    memo = vocab.text_ids
    candidate_ids = []
    for text in candidate_texts:
        ids = memo.get(text)
        if ids is None:
            ids = memo[text] = vocab.encode(text)
        candidate_ids.append(ids)
    return EncodedInstance(question_ids=vocab.encode(question), candidate_ids=tuple(candidate_ids))


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


def _dimension(dim, source: str = "") -> int:
    """``dim`` if it is a positive integer (a bool is not), else ConfigError;
    ``source`` prefixes the message."""
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ConfigError(f"{source}dim must be a positive integer, got {dim!r}")
    return int(dim)


def init_params(vocab: Vocabulary, dim: int = 64, seed: int = 0) -> PolicyParams:
    """Uniform(-0.1, 0.1) init for scoring parameters; value head starts at zero.

    Draw order is fixed (embeddings, bilinear forms, STOP weights) so a seed
    pins the exact parameter values.  ConfigError unless ``dim`` is a
    positive integer.
    """
    dim = _dimension(dim)
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


class FlatArrays(dict):
    """Arrays named and shaped like a parameter set's (``PolicyParams.arrays``),
    each a view of ``flat``, one float64 buffer that holds them in that
    order.  Writing into a view writes ``flat``; binding a new array to a
    name does not, so callers update the views in place."""

    def __init__(self, flat: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        super().__init__()
        self.flat = flat
        start = 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            self[name] = flat[start:stop].reshape(shape)
            start = stop

    def like(self, flat: np.ndarray) -> "FlatArrays":
        """The same names and shapes over another buffer of the same size."""
        return FlatArrays(flat, {name: arr.shape for name, arr in self.items()})


def zero_grads(params: PolicyParams) -> FlatArrays:
    """Zeros named and shaped like ``params``' arrays, views of one flat buffer."""
    shapes = {name: arr.shape for name, arr in params.arrays().items()}
    return FlatArrays(np.zeros(sum(math.prod(shape) for shape in shapes.values())), shapes)


def save_params(params: PolicyParams, path, target: str) -> None:
    """Write ``params``, trained for ``target``, as a model file.

    The file is one JSON object with sorted keys and a trailing newline,
    written atomically: ``format_version`` (``MODEL_FORMAT_VERSION``),
    ``dim``, ``vocabulary``, ``target`` and ``params``, which
    maps each parameter name to the standard base64 (with padding) of its
    C-order little-endian float64 bytes.  The bytes are the values
    themselves, so NaN payloads and signed zeros survive and the file is
    strict JSON.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "dim": params.dim,
        "vocabulary": list(params.vocab.tokens),
        "params": {
            name: base64.b64encode(arr.astype("<f8", copy=False).tobytes()).decode("ascii")
            for name, arr in params.arrays().items()
        },
        "target": target,
    }
    # json.dumps encodes in C; json.dump(doc, fh) always takes the Python encoder.
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def load_params(path) -> tuple[PolicyParams, str]:
    """The parameters and target of a model file written by
    ``save_params``.  Each parameter is decoded from base64 and copied into
    a writable float64 array, since training updates parameters in place.
    ``ConfigError``, naming ``path``, when the file is not a complete model
    of the current format: among others a ``format_version`` other than the
    integer ``MODEL_FORMAT_VERSION`` (not ``2.0``), a parameter that
    is not a base64 string or whose byte count is not 8 times its size, or a
    target that is missing or not one of ``TARGETS``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not a JSON model file: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported model format: {version!r}")
    for key in ("dim", "vocabulary", "params", "target"):
        if key not in doc:
            raise ConfigError(f"{path}: model file lacks {key!r}")
    tokens = doc["vocabulary"]
    if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
        raise ConfigError(f"{path}: vocabulary is not a list of strings")
    try:
        vocab = Vocabulary(tuple(tokens))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    target = doc["target"]
    if target not in TARGETS:
        raise ConfigError(f"{path}: target must be one of {TARGETS}, got {target!r}")
    params = PolicyParams.zeros(vocab, _dimension(doc["dim"], f"{path}: "))
    if not isinstance(doc["params"], dict):
        raise ConfigError(f"{path}: params is not an object")
    for name, arr in params.arrays().items():
        if name not in doc["params"]:
            raise ConfigError(f"{path}: model file lacks parameter {name!r}")
        text = doc["params"][name]
        if not isinstance(text, str):
            raise ConfigError(f"{path}: parameter {name!r} is not a base64 string")
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError:  # binascii.Error, or a non-ASCII string
            raise ConfigError(f"{path}: parameter {name!r} is not valid base64") from None
        if len(raw) != 8 * arr.size:
            raise ConfigError(f"{path}: parameter {name!r} holds {len(raw)} bytes, not 8 x {arr.size}")
        # frombuffer gives a read-only view of ``raw``; astype copies it
        setattr(params, name, np.frombuffer(raw, dtype="<f8").astype(float).reshape(arr.shape))
    return params, target


# ---------------------------------------------------------------------------
# Encodings

# Segments per ``forward``, ``greedy_decode`` or ``embed`` chunk, and padded
# slots per ``sample_episodes`` run: they bound the padded (segments, dim)
# arrays and the count matrices a chunk builds, so a minibatch of long
# tables needs little more memory than one of short tables.
_SEGMENT_BLOCK = 1024


class CountMatrix(NamedTuple):
    """One instance's distinct token ids ``u`` (ascending) and the
    ``(1 + n_candidates, len(u))`` matrix ``c`` whose entry ``c[s, k]`` is
    the count of token ``u[k]`` in segment s divided by that segment's
    length (``_count_matrices``)."""

    u: np.ndarray
    c: np.ndarray

    @property
    def n_candidates(self) -> int:
        return self.c.shape[0] - 1

    def means(self, emb: np.ndarray) -> np.ndarray:
        """The ``(1 + n_candidates, dim)`` segment means under token
        embeddings ``emb``: the question's, then each candidate's (an empty
        segment's is zero)."""
        return self.c @ emb[self.u]


def _count_matrices(encs: Sequence[EncodedInstance]) -> list[CountMatrix]:
    """Each instance's ``CountMatrix``.  ``c @ emb[u]`` are its segment
    means and ``c.T @ d_means`` their gradient with respect to ``emb[u]``.

    One sort and one count serve all of ``encs``, but each ``c`` comes from
    its own instance alone, so an instance encodes bit for bit the same in
    any batch: a ``u`` shared across the batch would change the products'
    inner dimension, and with it their rounding.  ``c`` is dense, so its
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
        CountMatrix(u[k0 : k0 + k], counts[o : o + s * k].reshape(s, k) / divisor[s0 : s0 + s])
        for k0, k, s0, s, o in zip(*(a.tolist() for a in (u_start, n_u, seg_start, n_segs, offset)))
    ]


def count_matrices(encs: Sequence[EncodedInstance]) -> list[CountMatrix]:
    """The ``CountMatrix`` of each of ``encs``, built one ``chunks`` run at
    a time, for a caller that keeps them (a rollout: ``training``)."""
    return [m for run in chunks(encs) for m in _count_matrices(encs[run])]


@dataclass(frozen=True, eq=False)
class Embedded:
    """One instance's question and candidate encodings under one parameter set."""

    params: PolicyParams
    q: np.ndarray   # (dim,)
    v: np.ndarray   # (n_candidates, dim)

    @classmethod
    def of(cls, params: PolicyParams, matrix: CountMatrix) -> "Embedded":
        """The instance of count matrix ``matrix`` encoded under ``params``."""
        means = matrix.means(params.emb)
        return cls(params, means[0], means[1:])


def _embed_padded(params: PolicyParams, matrices: Sequence[CountMatrix]):
    """(B, dim) question and (B, N, dim) candidate encodings of the
    instances of ``matrices``, padded to the most candidates; padded
    candidates are zero."""
    encoded = np.zeros((len(matrices), 1 + max(m.n_candidates for m in matrices), params.dim))
    for b, m in enumerate(matrices):
        encoded[b, : m.c.shape[0]] = m.means(params.emb)
    return encoded[:, 0], encoded[:, 1:]


def embed(params: PolicyParams, encs: Sequence[EncodedInstance]) -> list[Embedded]:
    """Encode many instances, one ``chunks`` run of count matrices at a
    time; the matrices are not kept."""
    return [Embedded.of(params, m) for run in chunks(encs) for m in _count_matrices(encs[run])]


# ---------------------------------------------------------------------------
# Step-level math

def apply_top_p_mask(probs: np.ndarray, p: float) -> np.ndarray:
    """Keep, in each distribution along the last axis, the smallest
    probability-descending prefix with cumulative >= p.

    A slot is kept while the mass ranked before it is below p.  Ties break
    toward the lower index; surviving probabilities are renormalized.
    p = 1.0 keeps everything.
    """
    probs = np.asarray(probs, dtype=float)
    if not 0.0 < p <= 1.0:
        raise ConfigError(f"top-p must be in (0, 1], got {p}")
    if np.any(np.abs(probs.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("probabilities must sum to 1")
    order = np.argsort(-probs, axis=-1, kind="stable")
    ranked = np.take_along_axis(probs, order, axis=-1)
    before = np.zeros(probs.shape)
    np.cumsum(ranked[..., :-1], axis=-1, out=before[..., 1:])
    keep = np.empty(probs.shape, dtype=bool)
    np.put_along_axis(keep, order, before < p, axis=-1)
    masked = np.where(keep, probs, 0.0)
    return masked / masked.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Stepping many instances together

def _rows_times(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Each row of ``x`` times ``matrix``, one vector-matrix product per row,
    so a row's result does not depend on how many rows there are (a
    one-row matrix product takes another BLAS path than a many-row one)."""
    return np.matmul(x[:, None, :], matrix)[:, 0]


class _Stepper:
    """Instances stepped together under one parameter set.

    Rows are instances, padded to N candidates with STOP in slot N.  The
    stepper holds what does not change between steps (the encodings and the
    question's share of every score), the slots each row may still take, and
    the sum of the encodings each row has selected.  Every quantity of a row
    comes from that row alone, by products whose rounding depends on neither
    the number of rows nor N (a vector-matrix product per row and ``einsum``
    dot products), so a row steps bit for bit the same in any batch of the
    same width.
    """

    def __init__(self, params: PolicyParams, q: np.ndarray, v: np.ndarray,
                 n_candidates: np.ndarray):
        self.params = params
        self.q = q                      # (B, dim)
        self.v = v                      # (B, N, dim), zero past each row's candidates
        n = v.shape[1]
        self.allowed = np.zeros((q.shape[0], n + 1), dtype=bool)
        self.allowed[:, :n] = np.arange(n) < n_candidates[:, None]
        self.allowed[:, n] = True
        self.picked = np.zeros(q.shape[0], dtype=np.intp)
        self.h_sum = np.zeros(q.shape)
        self.q_scores = np.einsum("bnd,bd->bn", v, _rows_times(q, params.score_q))
        self.q_stop = np.einsum("bd,d->b", q, params.stop_q)

    @classmethod
    def of(cls, embedded: Sequence[Embedded], n: int) -> "_Stepper":
        """A stepper over ``embedded`` (all under one parameter set), padded
        to ``n`` candidates."""
        params = embedded[0].params
        v = np.zeros((len(embedded), n, params.dim))
        for b, e in enumerate(embedded):
            v[b, : e.v.shape[0]] = e.v
        counts = np.array([e.v.shape[0] for e in embedded])
        return cls(params, np.stack([e.q for e in embedded]), v, counts)

    def history(self) -> np.ndarray:
        """(B, dim) mean encoding of each row's selected candidates."""
        return self.h_sum / np.maximum(self.picked, 1)[:, None]

    def scores(self) -> np.ndarray:
        """(B, N + 1) step scores, -inf outside the allowed slots;
        ``NumericalError`` when an allowed score is not finite."""
        params = self.params
        scores = np.empty(self.allowed.shape)
        scores[:, :-1] = self.q_scores
        scores[:, -1] = self.q_stop
        if self.picked.any():  # else every history is zero and adds nothing
            h = self.history()
            scores[:, :-1] += np.einsum("bnd,bd->bn", self.v, _rows_times(h, params.score_h))
            scores[:, -1] += np.einsum("bd,d->b", h, params.stop_h)
        scores[:, -1] += params.stop_b[0]
        if not np.isfinite(scores[self.allowed]).all():
            raise NumericalError("non-finite scores in step distribution")
        scores[~self.allowed] = -np.inf
        return scores

    def select(self, rows: np.ndarray, slots: np.ndarray) -> None:
        """Row ``rows[i]`` takes candidate ``slots[i]``."""
        self.allowed[rows, slots] = False
        self.h_sum[rows] += self.v[rows, slots]
        self.picked[rows] += 1

    def keep(self, mask: np.ndarray, *extra: np.ndarray) -> list[np.ndarray]:
        """Drop the rows outside ``mask``, here and in ``extra`` (arrays
        the caller keeps per row), which are returned filtered."""
        for name in ("q", "v", "allowed", "picked", "h_sum", "q_scores", "q_stop"):
            setattr(self, name, getattr(self, name)[mask])
        return [a[mask] for a in extra]


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of masked (-inf) scores."""
    exp = np.exp(scores - scores.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Sampling

@dataclass(frozen=True, eq=False)
class SampledEpisodes:
    """Episodes sampled together, as ``(n, W)`` arrays: row k is episode k
    and column t its step t.  Episode k's ``steps[k]`` actions end at its
    STOP; after them ``actions`` reads STOP and the other arrays 0.

    ``logp_pi`` is the behavior log-probability (top-p masked when sampling
    was masked), which the KL penalty and its measurement use; ``logp_ref``
    is the unmasked reference log-probability of the same action.
    """

    actions: np.ndarray   # (n, W) candidate index of each step; STOP is -1
    logp_pi: np.ndarray   # (n, W)
    logp_ref: np.ndarray  # (n, W)
    values: np.ndarray    # (n, W) value estimates
    steps: np.ndarray     # (n,) steps of each episode, its STOP included

    @property
    def valid(self) -> np.ndarray:
        """(n, W) True on each episode's steps."""
        return np.arange(self.actions.shape[1]) < self.steps[:, None]


def sample_episodes(
    current: Sequence[Embedded],
    reference: Sequence[Embedded] | None,
    uniforms: np.ndarray,
    top_p: float | None = None,
) -> SampledEpisodes:
    """Sample one episode per row of ``uniforms``, stepping them together;
    selected candidates leave the action set.

    Episode k walks ``current[k]``, an instance encoded under the current
    parameters; ``reference[k]`` is the same instance under the reference
    parameters (``reference`` None: the reference is the current policy).
    At step t the behavior distribution b is the policy over the remaining
    candidates and STOP, top-p masked when ``top_p`` is given, and the pick
    is ``searchsorted(cumsum(b) / cumsum(b)[-1], uniforms[k, t],
    side="right")``, the arithmetic of ``Generator.choice``.  The recorded
    logp_pi is log b of the pick; logp_ref scores the same action under the
    reference without masking.  Greedy decoding is ``greedy_decode``.

    ``uniforms`` needs a column for every step an episode can take, so
    ``1 + n_candidates`` of them, and the returned arrays are as wide as
    ``uniforms``.  Episodes are padded to ``uniforms.shape[1] - 1``
    candidates, cut into runs of at most ``_SEGMENT_BLOCK`` slots and each
    run stepped as one masked array (``_Stepper``); episodes that stop leave
    it.  As every run has the same width, an episode does not depend on the
    episodes it is run with.  Non-finite scores raise ``NumericalError``.
    """
    uniforms = np.asarray(uniforms, dtype=float)
    if uniforms.ndim != 2 or uniforms.shape[0] != len(current):
        raise ValueError("uniforms need one row per episode")
    if reference is not None and len(reference) != len(current):
        raise ValueError("reference needs one encoding per episode")
    if any(e.v.shape[0] >= uniforms.shape[1] for e in current):
        raise ValueError("uniforms need 1 + n_candidates columns for every episode")
    shape = uniforms.shape
    out = SampledEpisodes(
        actions=np.full(shape, STOP), logp_pi=np.zeros(shape), logp_ref=np.zeros(shape),
        values=np.zeros(shape), steps=np.zeros(shape[0], dtype=np.intp),
    )
    per_run = max(1, _SEGMENT_BLOCK // shape[1])
    for start in range(0, shape[0], per_run):
        run = slice(start, start + per_run)
        _sample_run(
            current[run], None if reference is None else reference[run], uniforms[run], top_p,
            out.actions[run], out.logp_pi[run], out.logp_ref[run], out.values[run], out.steps[run],
        )
    return out


def _sample_run(current, reference, uniforms, top_p, actions, logp_pi, logp_ref, values, steps):
    """``sample_episodes`` over one run of episodes, written into the run's
    rows of its arrays."""
    batch, width = uniforms.shape
    n = width - 1
    pi = _Stepper.of(current, n)
    ref = None if reference is None else _Stepper.of(reference, n)
    params = pi.params
    q_value = np.einsum("bd,d->b", pi.q, params.value_q)
    live = np.arange(batch)
    for t in range(width):
        rows = np.arange(live.size)
        probs = _softmax_rows(pi.scores())
        behavior = probs if top_p is None else apply_top_p_mask(probs, top_p)
        cdf = np.cumsum(behavior, axis=1)
        cdf /= cdf[:, -1:]
        pick = (cdf <= uniforms[live, t][:, None]).sum(axis=1)
        ref_probs = probs if ref is None else _softmax_rows(ref.scores())
        values[live, t] = q_value + np.einsum("bd,d->b", pi.history(), params.value_h) + params.value_b[0]
        logp_pi[live, t] = np.log(behavior[rows, pick])
        logp_ref[live, t] = np.log(ref_probs[rows, pick])

        go = pick < n
        actions[live[go], t] = pick[go]
        steps[live[~go]] = t + 1
        pi.select(rows[go], pick[go])
        if ref is not None:
            ref.select(rows[go], pick[go])
        if not go.all():
            live, q_value = pi.keep(go, live, q_value)
            if ref is not None:
                ref.keep(go)
            if not live.size:
                break


# ---------------------------------------------------------------------------
# Greedy decoding

@dataclass(frozen=True)
class GreedyDecode:
    """Greedy selections, in input order, and ``steps``, the decode steps
    over all instances (each STOP included)."""

    selected: list[frozenset[int]]
    steps: int


def greedy_decode(params: PolicyParams, encs: Sequence[EncodedInstance]) -> GreedyDecode:
    """Greedy decode of many instances, stepped together.

    Every step takes the argmax of the stepper's scores over the remaining
    candidates and STOP, ties to the lowest slot, and STOP ends the episode.
    Instances are sorted by candidate count and cut into ``chunks``; each
    chunk is embedded once and stepped as one masked ``(B, N + 1)`` score
    array with STOP in the last slot (``_Stepper``), and instances that stop
    leave the working arrays.  A row's scores depend on neither the batch
    nor its width, so an instance decodes the same in any batch, and
    candidates with bit-identical encodings score exactly alike, so the
    lowest of them wins.  Non-finite scores raise ``NumericalError``.
    """
    if not encs:
        return GreedyDecode([], 0)
    order = sorted(range(len(encs)), key=lambda i: encs[i].n_candidates)
    ordered = [encs[i] for i in order]
    selected: list[frozenset[int]] = [frozenset()] * len(encs)
    steps = 0
    for run in chunks(ordered):
        q, v = _embed_padded(params, _count_matrices(ordered[run]))  # the matrices are not kept
        n = v.shape[1]
        st = _Stepper(params, q, v, np.array([enc.n_candidates for enc in ordered[run]]))
        live = np.arange(run.start, run.stop)  # positions in ``order``
        while live.size:
            top = st.scores().argmax(axis=1)
            steps += live.size
            go = top < n
            st.select(np.flatnonzero(go), top[go])
            if not go.all():
                for i in np.flatnonzero(~go):
                    k = live[i]
                    taken = ~st.allowed[i, : ordered[k].n_candidates]
                    selected[order[k]] = frozenset(np.flatnonzero(taken).tolist())
                (live,) = st.keep(go, live)
    return GreedyDecode(selected, steps)


# ---------------------------------------------------------------------------
# Teacher-forced minibatches

def pad_actions(sequences: Sequence[Sequence[int]]) -> np.ndarray:
    """Action sequences as one ``(n, T)`` array, T the longest, each row
    filled with STOP after its sequence."""
    out = np.full((len(sequences), max(map(len, sequences), default=0)), STOP)
    for row, actions in zip(out, sequences):
        row[: len(actions)] = actions
    return out


def _episode_steps(actions: np.ndarray) -> np.ndarray:
    """Steps of each row's episode: through its first STOP, else the whole row."""
    stop = actions == STOP
    return np.where(stop.any(axis=1), stop.argmax(axis=1) + 1, actions.shape[1])


@dataclass
class Forward:
    """Teacher-forced pass over B episodes padded to T steps and N candidates.

    Slot N of the last axis is STOP.  Padded steps allow only STOP, are
    False in ``valid`` and read 0 in ``logps``, ``entropies`` and
    ``values``.  Everything ``backward`` needs is kept, the episodes' count
    matrices (the caller's, not copies) among it.
    """

    matrices: Sequence[CountMatrix]  # per episode
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


def forward(params: PolicyParams, matrices: Sequence[CountMatrix], actions: np.ndarray) -> Forward:
    """Unmasked step distributions, log-probs, entropies and values of a
    minibatch: episode b takes ``actions[b]`` on the instance of count
    matrix ``matrices[b]`` through its first STOP (the whole row if it has
    none), and T is the longest episode.  The candidates of each instance
    are the rows of its matrix after the question's.

    Before step t an episode has selected its first t actions, so the
    candidates still allowed are those not among them, and the history-mean
    weights are 1/t on each of them (an exclusive cumulative sum of the
    picks' one-hot rows, times 1/t).  ValueError for an action that is out
    of range or already taken.
    """
    q, v = _embed_padded(params, matrices)
    batch, n_max = v.shape[:2]
    steps = _episode_steps(actions)
    t_max = int(steps.max())
    actions = actions[:, :t_max]
    valid = np.arange(t_max) < steps[:, None]
    n_candidates = np.array([m.n_candidates for m in matrices])
    bad = valid & ((actions < STOP) | (actions >= n_candidates[:, None]))
    picks = np.where(valid & (actions != STOP), actions, n_max)
    one_hot = picks[..., None] == np.arange(n_max)
    before = np.cumsum(one_hot, axis=1) - one_hot
    bad |= (one_hot & (before > 0)).any(axis=-1)
    if bad.any():
        raise ValueError(f"action {actions[bad][0]} not available")
    allowed = np.ones((batch, t_max, n_max + 1), dtype=bool)
    allowed[..., :n_max] = (
        valid[..., None] & (before == 0) & (np.arange(n_max) < n_candidates[:, None, None])
    )
    inverse_t = 1.0 / np.maximum(np.arange(t_max), 1)
    weights = np.where(valid[..., None], before * inverse_t[:, None], 0.0)

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
        matrices=matrices, valid=valid, picks=picks, allowed=allowed,
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


def chunks(items: Sequence[EncodedInstance | CountMatrix]) -> list[slice]:
    """Consecutive runs of instances (their encodings or their count
    matrices) to pass to ``forward`` (or to step in ``greedy_decode``, or
    to count and encode in ``embed`` and ``count_matrices``) one at a time.

    Each run pads to at most ``_SEGMENT_BLOCK`` encodings (or holds a single
    instance), which bounds the memory of ``forward``/``backward`` and of
    the greedy stepper whatever the table size; a minibatch of short tables
    is one run.  It bounds the count matrices of a run that builds them
    (SFT, greedy decoding, ``embed``) too.  Count matrices that a caller
    keeps are outside that bound: a rollout (``training.collect_rollouts``)
    holds one per distinct drawn instance, each ``(1 + n_candidates) x
    distinct tokens`` floats, until its update ends.
    """
    runs = []
    start = width = 0
    for i, item in enumerate(items):
        need = 1 + item.n_candidates
        if i > start and (i + 1 - start) * max(width, need) > _SEGMENT_BLOCK:
            runs.append(slice(start, i))
            start, width = i, 0
        width = max(width, need)
    runs.append(slice(start, len(items)))
    return runs


# ---------------------------------------------------------------------------
# Losses

def sft_loss_and_grad(
    params: PolicyParams,
    encs: Sequence[EncodedInstance],
    actions: np.ndarray,
) -> tuple[float, FlatArrays]:
    """Mean negative log-likelihood of gold action sequences, ``actions[b]``
    on ``encs[b]`` as ``forward`` reads them, with gradients."""
    if not encs:
        raise ConfigError("empty SFT batch")
    grads = zero_grads(params)
    total = 0.0
    for run in chunks(encs):
        fw = forward(params, _count_matrices(encs[run]), actions[run])
        total += float(fw.logps.sum())
        backward(params, fw, grads, logp_coef=np.where(fw.valid, -1.0 / len(encs), 0.0))
    loss = -total / len(encs)
    if not np.isfinite(loss):
        raise NumericalError("non-finite SFT loss")
    return loss, grads


@dataclass(frozen=True, eq=False)
class PpoBatch:
    """Episodes prepared for the clipped-surrogate update.

    Row b of each ``(B, W)`` array is episode b, on the instance of count
    matrix ``matrices[b]``; its ``actions`` are read as ``forward`` reads
    them, and the other arrays hold one value per step and 0 after its last
    step.  Episodes on the same instance share its matrix, so a batch holds
    one per distinct instance.
    """

    matrices: Sequence[CountMatrix]
    actions: np.ndarray      # STOP after each episode's end
    old_logps: np.ndarray    # behavior (masked) log-probs at collection time
    advantages: np.ndarray   # normalized, frozen
    returns: np.ndarray      # Monte-Carlo returns, frozen

    def rows(self, index: np.ndarray) -> "PpoBatch":
        """The episodes at ``index``, in that order."""
        return PpoBatch(
            [self.matrices[i] for i in index], self.actions[index], self.old_logps[index],
            self.advantages[index], self.returns[index],
        )


@dataclass
class PpoStats:
    policy_loss: float = 0.0
    value_loss: float = 0.0
    entropy: float = 0.0
    clip_fraction: float = 0.0
    mean_ratio: float = 1.0


def ppo_loss_and_grad(
    params: PolicyParams,
    batch: PpoBatch,
    clip_epsilon: float,
    value_loss_coef: float,
    entropy_coef: float,
) -> tuple[float, FlatArrays, PpoStats]:
    """Clipped-surrogate PPO loss over every step in the batch.

        loss = -mean(min(ratio*A, clip(ratio)*A))
               + value_loss_coef * mean((V - return)^2)
               - entropy_coef * mean(H)

    New log-probs are the unmasked policy; ratios divide by the stored
    behavior log-probs.  Steps where the clipped branch is strictly active
    contribute no policy gradient.  Each ``chunks`` run of episodes is one
    ``forward`` pass over the run's rows, cut to its longest episode, on
    the batch's own count matrices.
    """
    if not batch.matrices:
        raise ConfigError("empty PPO batch")
    grads = zero_grads(params)
    n_steps = int(_episode_steps(batch.actions).sum())
    pol_sum = val_sum = ent_sum = ratio_sum = 0.0
    clipped = 0

    for run in chunks(batch.matrices):
        fw = forward(params, batch.matrices[run], batch.actions[run])
        t_max = fw.valid.shape[1]
        old_logps = batch.old_logps[run, :t_max]
        advantages = batch.advantages[run, :t_max]
        returns = batch.returns[run, :t_max]

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
    actions = pad_actions([gold_actions])
    matrices = _count_matrices([enc])

    def sft_fn(p: PolicyParams) -> tuple[float, dict[str, np.ndarray]]:
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

    def ppo_fn(p: PolicyParams) -> tuple[float, dict[str, np.ndarray]]:
        loss, grads, _ = ppo_loss_and_grad(
            p, batch, clip_epsilon=clip_epsilon, value_loss_coef=0.5, entropy_coef=0.01
        )
        return loss, grads

    return max(
        finite_difference_error(params, sft_fn, epsilon),
        finite_difference_error(params, ppo_fn, epsilon),
    )
