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

Encodings are segment means: an instance's matrix of its segments' token
counts over its distinct tokens, divided by the segment lengths
(``CountMatrix``), times those tokens' rows of the embedding table; the
gradient goes back through the transposed product.  An instance comes in
as two flat arrays, each token's id and segment (``EncodedInstance``,
which ``tasks.encode`` builds for many instances at once), so the order of
a segment's tokens is immaterial.  The matrices are built per instance, so
an instance encodes the same in any batch.  Count matrices are all the
policy encodes from, in one place (``_embed_padded``, which encodes each
distinct matrix once per parameter set and call): SFT and greedy decoding
build them per chunk, and ``train-rl`` once per run for its training
instances (``count_matrices``), which every rollout, sampled under the
current and the reference parameters, and every minibatch of its update
reuse.

The step distribution is written once (``_step``, ``_values``,
``_log_softmax``), by per-row products rounded alike in any batch.
Sampling (``sample_episodes``, one row of caller-supplied uniforms per
episode) and greedy decoding (``greedy_decode``, each row's argmax, ties
to the lowest slot) evaluate it a step at a time for many instances
together (``_Stepper``), as masked ``(B, N + 1)`` arrays, STOP last.

Training never walks episodes.  An episode is its instance (its count
matrix, in a PPO update) and its actions, one row of a ``(B, T)`` array
that reads STOP after the episode ends (``SampledEpisodes``,
``pad_actions``, ``PpoBatch``).  ``forward`` derives every step's
available candidates and history from a minibatch's actions at once and
evaluates the step distribution at all of them, as padded ``(B, T, N +
1)`` tensors, so a sampled episode replays with the log-probabilities and
values it was sampled with; ``backward`` runs the chain rule back through
them down to the token embeddings.

Parameters are named views of one flat buffer (``PolicyParams``), laid
out by one table (``_layout``), and a gradient is a zero parameter set of
the same layout, so an optimizer updates every parameter in one
elementwise pass over the buffers; parameters are therefore written in
place, never rebound.  Log-probabilities are exact and every gradient
here is written by hand; the test suite checks them against central
differences (``tests/gradcheck.py``) for both the likelihood loss and the
clipped-surrogate loss.  Sampling reads only the uniforms it is given, so
identical uniforms give identical episodes.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .atomicio import atomic_write
from .errors import ConfigError, NumericalError

STOP = -1

MODEL_FORMAT_VERSION = 2

TARGET_COLUMNS = "columns"
TARGET_ROWS = "rows"
TARGETS = (TARGET_COLUMNS, TARGET_ROWS)

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

    def ids(self, tokens: Iterable[str]) -> Iterator[int]:
        """Each token's index, 0 for a token out of the vocabulary."""
        return map(self._index.get, tokens, itertools.repeat(0))


@dataclass(frozen=True, eq=False)
class EncodedInstance:
    """An instance's question and candidates as token ids, ready for the
    policy: ``ids[i]`` is a token of segment ``segment[i]``, 0 for the
    question and 1 + j for candidate j.  Token order within a segment is
    immaterial, since the policy reads the instance only through its count
    matrix (``_count_matrices``); nothing of the batch it is built in
    enters that."""

    ids: np.ndarray      # (tokens,) intp token ids
    segment: np.ndarray  # (tokens,) intp segment of each token
    n_candidates: int


# ---------------------------------------------------------------------------
# Parameters

def _layout(size: int, dim: int) -> dict[str, tuple[int, ...]]:
    """Each parameter's name and shape, for a vocabulary of ``size`` tokens,
    in the order ``PolicyParams.flat`` holds them: the one list of the
    parameters."""
    return {
        "emb": (size, dim),     # token embeddings
        "score_q": (dim, dim),  # question-candidate bilinear form
        "score_h": (dim, dim),  # history-candidate bilinear form
        "stop_q": (dim,),
        "stop_h": (dim,),
        "stop_b": (1,),
        "value_q": (dim,),
        "value_h": (dim,),
        "value_b": (1,),
    }


class PolicyParams:
    """All learnable arrays, each a view of ``flat``, one float64 buffer
    that holds them in ``_layout``'s order (scalars are shape (1,)); zeros
    unless ``flat`` is given.  A zero set is a gradient (``backward`` adds
    into its views), and ``copy`` and ``training.Adam`` read and write
    ``flat`` alone, so parameters are written in place: ``p.emb[...] = x``
    and ``p.emb *= 2.0`` write ``flat``, while binding a new object to any
    attribute raises AttributeError."""

    def __init__(self, vocab: Vocabulary, dim: int, flat: np.ndarray | None = None):
        shapes = _layout(vocab.size, dim)
        size = sum(map(math.prod, shapes.values()))
        if flat is None:
            flat = np.zeros(size)
        elif flat.shape != (size,):
            raise ValueError(f"flat has shape {flat.shape}; the layout needs ({size},)")
        views = {"vocab": vocab, "dim": dim, "flat": flat}
        start = 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            views[name] = flat[start:stop].reshape(shape)
            start = stop
        self.__dict__.update(views)

    def __setattr__(self, name: str, value) -> None:
        # ``p.emb *= 2.0`` rebinds ``emb`` to the array it names, and passes
        if name not in self.__dict__ or self.__dict__[name] is not value:
            raise AttributeError(f"PolicyParams.{name} is written in place, not rebound")

    def __reduce__(self):  # copy.deepcopy and pickle rebuild the views over one buffer
        return PolicyParams, (self.vocab, self.dim, self.flat)

    def arrays(self) -> dict[str, np.ndarray]:
        """The parameter views by name, in ``flat``'s order."""
        return {name: getattr(self, name) for name in _layout(self.vocab.size, self.dim)}

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.vocab, self.dim, self.flat.copy())


def check_dim(dim, source: str = "") -> int:
    """``dim`` if it is a positive integer (a bool is not), else ConfigError;
    ``source`` prefixes the message."""
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ConfigError(f"{source}dim must be a positive integer, got {dim!r}")
    return int(dim)


def init_params(vocab: Vocabulary, dim: int = 64, seed: int = 0) -> PolicyParams:
    """Uniform(-0.1, 0.1) init for scoring parameters; value head starts at zero.

    Every parameter but the value head's is drawn, in ``_layout``'s order
    (embeddings, bilinear forms, STOP weights), so a seed pins the exact
    parameter values; a new parameter that must start at zero without a
    draw needs its own exception here.  ConfigError unless ``dim`` is a
    positive integer.
    """
    dim = check_dim(dim)
    rng = np.random.default_rng(seed)
    params = PolicyParams(vocab, dim)
    for name, arr in params.arrays().items():
        if not name.startswith("value_"):
            arr[...] = rng.uniform(-0.1, 0.1, size=arr.shape)
    return params


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
    ``save_params``.  Each parameter is decoded from base64 and its byte
    count checked against ``_layout`` before the parameters' ``flat`` buffer
    is built from them, so no size the file states is allocated unchecked.
    ``ConfigError``, naming ``path``, when the file is not a complete model
    of the current format: among others a ``format_version`` other than the
    integer ``MODEL_FORMAT_VERSION`` (not ``2.0``), a parameter that
    is not a base64 string or whose byte count is not 8 times its size, or a
    target that is missing or not one of ``TARGETS``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
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
    dim = check_dim(doc["dim"], f"{path}: ")
    if not isinstance(doc["params"], dict):
        raise ConfigError(f"{path}: params is not an object")
    raws = []
    for name, shape in _layout(vocab.size, dim).items():
        if name not in doc["params"]:
            raise ConfigError(f"{path}: model file lacks parameter {name!r}")
        text = doc["params"][name]
        if not isinstance(text, str):
            raise ConfigError(f"{path}: parameter {name!r} is not a base64 string")
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError:  # binascii.Error, or a non-ASCII string
            raise ConfigError(f"{path}: parameter {name!r} is not valid base64") from None
        size = math.prod(shape)
        if len(raw) != 8 * size:
            raise ConfigError(f"{path}: parameter {name!r} holds {len(raw)} bytes, not 8 x {size}")
        raws.append(raw)
    return PolicyParams(vocab, dim, np.frombuffer(b"".join(raws), dtype="<f8").astype(float)), target


# ---------------------------------------------------------------------------
# Encodings

# Segments per ``forward``, ``greedy_decode`` or ``count_matrices`` chunk,
# and padded slots per ``sample_episodes`` run: they bound the padded
# (segments, dim) arrays and the count matrices a chunk builds, so a
# minibatch of long tables needs little more memory than one of short
# tables.
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

    One sort of the tokens of all of ``encs`` finds the distinct (instance,
    token id) pairs and one count places every token, but each ``c`` comes
    from its own instance alone, so an instance encodes bit for bit the same
    in any batch: a ``u`` shared across the batch would change the products'
    inner dimension, and with it their rounding.  ``c`` is dense, so its
    size grows with the distinct tokens of the instance, which the
    vocabulary bounds (at most about 130 tokens for every model the
    benchmark builds).
    """
    if not encs:
        return []
    ids = np.concatenate([enc.ids for enc in encs])
    segment = np.concatenate([enc.segment for enc in encs])
    n_segs = np.array([1 + enc.n_candidates for enc in encs])
    inst_of = np.repeat(np.arange(len(encs)), [enc.ids.size for enc in encs])
    seg_of = (np.cumsum(n_segs) - n_segs)[inst_of] + segment  # each token's segment in the batch
    base = int(ids.max(initial=0)) + 1
    pair = inst_of * base + ids
    # the distinct (instance, token id) pairs, instance-major, and each
    # token's place among them
    keys, column = np.unique(pair, return_inverse=True)
    owner, u = np.divmod(keys, base)
    n_u = np.bincount(owner, minlength=len(encs))
    u_start = np.cumsum(n_u) - n_u
    size = n_segs * n_u
    offset = np.cumsum(size) - size
    # instance b's matrix fills ``c[offset[b] : offset[b] + size[b]]`` row-major;
    # a token's entry is its count over its segment's length, and the rest are 0
    at = offset[inst_of] + segment * n_u[inst_of] + column - u_start[inst_of]
    c = np.zeros(int(size.sum()))
    c[at] = np.bincount(at)[at] / np.bincount(seg_of)[seg_of]
    return [
        CountMatrix(u[k0 : k0 + k], c[o : o + s * k].reshape(s, k))
        for k0, k, s, o in zip(*(a.tolist() for a in (u_start, n_u, n_segs, offset)))
    ]


def count_matrices(encs: Sequence[EncodedInstance]) -> list[CountMatrix]:
    """The ``CountMatrix`` of each of ``encs``, built one ``chunks`` run at
    a time, for a caller that keeps them (``training.train_rl``)."""
    return [m for run in chunks(encs) for m in _count_matrices(encs[run])]


def _embed_padded(params: PolicyParams, matrices: Sequence[CountMatrix], n: int | None = None,
                  memo: dict | None = None):
    """(B, dim) question and (B, n, dim) candidate encodings under
    ``params`` of the instances of ``matrices``, views of one ``(B, 1 + n,
    dim)`` buffer padded with zeros to ``n`` candidates (by default the
    most among them).  Each distinct matrix object is encoded once, however
    many rows share it: ``memo`` maps ``id(matrix)`` to its segment means,
    so a caller that encodes the same matrices run by run passes one memo
    to every run."""
    if n is None:
        n = max(m.n_candidates for m in matrices)
    memo = {} if memo is None else memo
    encoded = np.zeros((len(matrices), 1 + n, params.dim))
    for b, m in enumerate(matrices):
        means = memo.get(id(m))
        if means is None:
            means = memo[id(m)] = m.means(params.emb)
        encoded[b, : means.shape[0]] = means
    return encoded[:, 0], encoded[:, 1:]


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
    """Each vector along the last axis of ``x`` times ``matrix``, one
    vector-matrix product each, so a vector's result does not depend on how
    many there are (a many-row matrix product takes another BLAS path)."""
    return np.matmul(x[..., None, :], matrix)[..., 0, :]


def _question_terms(params: PolicyParams, q: np.ndarray, v: np.ndarray):
    """What the question adds at every step of each row: ``(B, N)``
    candidate scores, ``(B,)`` STOP scores and ``(B,)`` values."""
    q_scores = np.einsum("bnd,bd->bn", v, _rows_times(q, params.score_q))
    return q_scores, np.einsum("bd,d->b", q, params.stop_q), np.einsum("bd,d->b", q, params.value_q)


def _history(h_sum: np.ndarray, picked: np.ndarray) -> np.ndarray:
    """History means from the running sums of the picked encodings and
    their number; zero before the first pick."""
    return h_sum / np.maximum(picked, 1)[..., None]


def _step(params: PolicyParams, v: np.ndarray, question, h: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Scores, -inf outside ``allowed``, of row b's step at history mean
    ``h[b]`` (its T steps for ``(B, T, dim)`` ``h``, the ``question`` terms
    given a step axis), by products per row rounded alike whatever the
    rows, steps or N.  ``NumericalError`` for a non-finite allowed score."""
    scores = np.empty(allowed.shape)
    scores[..., :-1] = question[0]
    scores[..., -1] = question[1]
    if h.any():  # else every history is zero and adds nothing
        scores[..., :-1] += np.einsum("bnd,b...d->b...n", v, _rows_times(h, params.score_h))
        scores[..., -1] += np.einsum("b...d,d->b...", h, params.stop_h)
    scores[..., -1] += params.stop_b[0]
    if not np.isfinite(scores[allowed]).all():
        raise NumericalError("non-finite scores in step distribution")
    scores[~allowed] = -np.inf
    return scores


def _values(params: PolicyParams, question, h: np.ndarray) -> np.ndarray:
    """The value head at history means ``h``, as ``_step`` takes them."""
    return question[2] + np.einsum("b...d,d->b...", h, params.value_h) + params.value_b[0]


def _log_softmax(scores: np.ndarray, allowed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and log-probabilities (0 outside ``allowed``) of masked
    scores along the last axis; a log-probability is the shifted score less
    the log of the total, finite where its probability is 0."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=True)
    return exp / total, np.where(allowed, shifted - np.log(total), 0.0)


class _Stepper:
    """Instances (rows, padded to N candidates, STOP in slot N) stepped
    together under one parameter set, one ``_step`` at a time: their
    encodings (``_embed_padded``), ``_question_terms``, open slots, and the
    sum and number of the encodings each has taken."""

    def __init__(self, params: PolicyParams, matrices: Sequence[CountMatrix], n: int | None = None,
                 memo: dict | None = None):
        self.params = params
        q, self.v = _embed_padded(params, matrices, n, memo)  # v is zero past each row's candidates
        n = self.v.shape[1]
        n_candidates = np.array([m.n_candidates for m in matrices])
        self.allowed = np.zeros((len(matrices), n + 1), dtype=bool)
        self.allowed[:, :n] = np.arange(n) < n_candidates[:, None]
        self.allowed[:, n] = True
        self.picked = np.zeros(len(matrices), dtype=np.intp)
        self.h_sum = np.zeros(q.shape)
        self.question = _question_terms(params, q, self.v)

    def scores(self) -> np.ndarray:
        """(B, N + 1) scores of this step, -inf outside the allowed slots."""
        return _step(self.params, self.v, self.question, _history(self.h_sum, self.picked), self.allowed)

    def values(self) -> np.ndarray:
        """(B,) values of this step."""
        return _values(self.params, self.question, _history(self.h_sum, self.picked))

    def select(self, rows: np.ndarray, slots: np.ndarray) -> None:
        """Row ``rows[i]`` takes candidate ``slots[i]``."""
        self.allowed[rows, slots] = False
        self.h_sum[rows] += self.v[rows, slots]
        self.picked[rows] += 1

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows outside ``mask``."""
        for name in ("v", "allowed", "picked", "h_sum"):
            setattr(self, name, getattr(self, name)[mask])
        self.question = tuple(terms[mask] for terms in self.question)


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
    params: PolicyParams,
    reference: PolicyParams,
    matrices: Sequence[CountMatrix],
    uniforms: np.ndarray,
    top_p: float = 1.0,
) -> SampledEpisodes:
    """Sample one episode per row of ``uniforms``, stepping them together;
    selected candidates leave the action set.

    Episode k walks the instance of count matrix ``matrices[k]`` under the
    current parameters ``params`` and the reference ones ``reference``
    (``params`` again for the current policy's own log-probabilities).  At
    step t the behavior distribution b is the policy over the remaining
    candidates and STOP, top-p masked when ``top_p`` is below 1.0, and the
    pick is ``searchsorted(cumsum(b) / cumsum(b)[-1], uniforms[k, t],
    side="right")``, the arithmetic of ``Generator.choice``.  logp_pi is
    the pick's log-probability (``_log_softmax``), or log b when masked;
    logp_ref is the unmasked one under the reference.  ``forward`` at this
    width replays unmasked episodes (``top_p`` 1.0) with these
    log-probabilities and values bit for bit.

    ``uniforms`` needs ``1 + n_candidates`` columns, one per step an episode
    can take, and the returned arrays are as wide.  Episodes are padded to
    ``uniforms.shape[1] - 1`` candidates and cut into runs of at most
    ``_SEGMENT_BLOCK`` slots, each stepped as one ``_Stepper`` per parameter
    set, so an episode does not depend on those it is run with.  Episodes
    on one instance share its matrix, which each parameter set encodes once
    per call.  Non-finite scores raise ``NumericalError``.
    """
    uniforms = np.asarray(uniforms, dtype=float)
    if uniforms.ndim != 2 or uniforms.shape[0] != len(matrices):
        raise ValueError("uniforms need one row per episode")
    if any(m.n_candidates >= uniforms.shape[1] for m in matrices):
        raise ValueError("uniforms need 1 + n_candidates columns for every episode")
    shape = uniforms.shape
    out = SampledEpisodes(
        actions=np.full(shape, STOP), logp_pi=np.zeros(shape), logp_ref=np.zeros(shape),
        values=np.zeros(shape), steps=np.zeros(shape[0], dtype=np.intp),
    )
    per_run = max(1, _SEGMENT_BLOCK // shape[1])
    memo, ref_memo = {}, {}
    for start in range(0, shape[0], per_run):
        run = slice(start, start + per_run)
        _sample_run(
            _Stepper(params, matrices[run], shape[1] - 1, memo),
            _Stepper(reference, matrices[run], shape[1] - 1, ref_memo),
            uniforms[run], top_p,
            out.actions[run], out.logp_pi[run], out.logp_ref[run], out.values[run], out.steps[run],
        )
    return out


def _sample_run(pi, ref, uniforms, top_p, actions, logp_pi, logp_ref, values, steps):
    """``sample_episodes`` over one run of episodes, stepped by ``pi``
    under the current parameters and ``ref`` under the reference ones,
    written into the run's rows of its arrays."""
    width = uniforms.shape[1]
    n = width - 1
    masked = top_p < 1.0
    live = np.arange(uniforms.shape[0])
    for t in range(width):
        rows = np.arange(live.size)
        probs, logprobs = _log_softmax(pi.scores(), pi.allowed)
        behavior = apply_top_p_mask(probs, top_p) if masked else probs
        cdf = np.cumsum(behavior, axis=1)
        cdf /= cdf[:, -1:]
        pick = (cdf <= uniforms[live, t][:, None]).sum(axis=1)
        logp_pi[live, t] = np.log(behavior[rows, pick]) if masked else logprobs[rows, pick]
        logp_ref[live, t] = _log_softmax(ref.scores(), ref.allowed)[1][rows, pick]
        values[live, t] = pi.values()

        go = pick < n
        actions[live[go], t] = pick[go]
        steps[live[~go]] = t + 1
        for stepper in (pi, ref):
            stepper.select(rows[go], pick[go])
            if not go.all():
                stepper.keep(go)
        live = live[go]
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

    Every step takes the argmax of the scores over the remaining candidates
    and STOP, ties to the lowest slot, and STOP ends the episode.  Instances
    are sorted by candidate count and cut into ``chunks``, each counted
    and encoded once and stepped as one ``_Stepper``; instances that stop
    leave it.  A row's scores depend on neither the batch nor its width, so
    an instance decodes the same in any batch, and of candidates with
    bit-identical encodings the lowest wins.  Non-finite scores raise ``NumericalError``.
    """
    if not encs:
        return GreedyDecode([], 0)
    order = sorted(range(len(encs)), key=lambda i: encs[i].n_candidates)
    ordered = [encs[i] for i in order]
    selected: list[frozenset[int]] = [frozenset()] * len(encs)
    steps = 0
    for run in chunks(ordered):
        st = _Stepper(params, _count_matrices(ordered[run]))  # the matrices are not kept
        n = st.v.shape[1]
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
                st.keep(go)
                live = live[go]
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
    """Teacher-forced pass over B episodes padded to T steps and N
    candidates, STOP in slot N.  Padded steps allow only STOP, are False in
    ``valid`` and read 0 in ``logps``, ``entropies`` and ``values``.  It
    keeps what ``backward`` needs, the caller's count matrices among it."""

    matrices: Sequence[CountMatrix]  # per episode
    valid: np.ndarray       # (B, T)
    picks: np.ndarray       # (B, T) slot of each taken action
    allowed: np.ndarray     # (B, T, N + 1)
    weights: np.ndarray     # (B, T, N) history-mean weights
    q: np.ndarray           # (B, dim)
    v: np.ndarray           # (B, N, dim)
    h: np.ndarray           # (B, T, dim) history means (past the end: of all picks)
    probs: np.ndarray       # (B, T, N + 1), 0 outside allowed
    logprobs: np.ndarray    # (B, T, N + 1), 0 outside allowed
    logps: np.ndarray       # (B, T) log-probability of each taken action
    entropies: np.ndarray   # (B, T)
    values: np.ndarray      # (B, T)


def forward(params: PolicyParams, matrices: Sequence[CountMatrix], actions: np.ndarray) -> Forward:
    """Unmasked step distributions, log-probs, entropies and values of a
    minibatch: episode b takes ``actions[b]`` on the instance of count
    matrix ``matrices[b]`` (whose rows after the question's are its
    candidates) through its first STOP, else the whole row; T is the
    longest episode.  Before step t an episode has taken its first t
    actions, which are no longer allowed, and its history is their running
    sum over t; every step is scored by ``_step``, so at the sampler's width
    a sampled episode replays bit for bit.  The ``weights``, 1/t on each
    candidate taken before step t, carry the history's gradient.
    ValueError for an action that is out of range or already taken.
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
    chosen = one_hot @ v  # each step's pick (exact: one term per sum), zero for STOP
    # before step t: the candidates taken and their running sum, added in
    # the stepper's order (a loop, as cumsum along a middle axis is slow)
    before = np.zeros(one_hot.shape, dtype=bool)
    h_sum = np.zeros(chosen.shape)
    for t in range(1, t_max):
        np.logical_or(before[:, t - 1], one_hot[:, t - 1], out=before[:, t])
        np.add(h_sum[:, t - 1], chosen[:, t - 1], out=h_sum[:, t])
    bad |= (one_hot & before).any(axis=-1)
    if bad.any():
        raise ValueError(f"action {actions[bad][0]} not available")
    allowed = np.ones((batch, t_max, n_max + 1), dtype=bool)
    allowed[..., :n_max] = valid[..., None] & ~before & (np.arange(n_max) < n_candidates[:, None, None])
    weights = np.where(valid[..., None] & before, 1.0 / np.maximum(np.arange(t_max), 1)[:, None], 0.0)
    h = _history(h_sum, np.arange(t_max))
    question = [terms[:, None] for terms in _question_terms(params, q, v)]
    probs, logprobs = _log_softmax(_step(params, v, question, h, allowed), allowed)
    logps = np.take_along_axis(logprobs, picks[..., None], axis=-1)[..., 0]
    entropies = -(probs * logprobs).sum(axis=-1)

    return Forward(
        matrices=matrices, valid=valid, picks=picks, allowed=allowed,
        weights=weights, q=q, v=v, h=h, probs=probs, logprobs=logprobs,
        logps=np.where(valid, logps, 0.0),
        entropies=np.where(valid, entropies, 0.0),
        values=np.where(valid, _values(params, question, h), 0.0),
    )


def backward(
    params: PolicyParams,
    fw: Forward,
    grads: PolicyParams,
    logp_coef: np.ndarray,
    entropy_coef: np.ndarray | None = None,
    value_coef: np.ndarray | None = None,
) -> None:
    """Add the gradient of sum(logp_coef*logp + entropy_coef*H +
    value_coef*V) over the (B, T) steps of ``fw`` to ``grads``, a parameter
    set laid out like ``params``, in place; coefficients must be 0 on padded
    steps.  Backpropagates through scores, the history means and the
    segment means down to the token embeddings.
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

    u = (fw.q @ params.score_q)[:, None, :] + fw.h @ params.score_h  # q . Wq + h . Wh
    du = d_cand @ fw.v
    du_sum = du.sum(axis=1)
    grads.score_q += fw.q.T @ du_sum
    grads.score_h += fw.h.reshape(-1, dim).T @ du.reshape(-1, dim)
    dq = du_sum @ params.score_q.T
    dh = du @ params.score_h.T

    heads = [("stop", d_stop)]
    if value_coef is not None and value_coef.any():
        heads.append(("value", value_coef))
    for head, coef in heads:
        per_episode = coef.sum(axis=1)
        getattr(grads, f"{head}_q")[...] += per_episode @ fw.q
        getattr(grads, f"{head}_h")[...] += coef.reshape(-1) @ fw.h.reshape(-1, dim)
        getattr(grads, f"{head}_b")[0] += per_episode.sum()
        dq += per_episode[:, None] * getattr(params, f"{head}_q")
        dh += coef[..., None] * getattr(params, f"{head}_h")

    # candidate j's encoding reaches its scores through u and the history
    # means through the weights: dv = d_cand^T u + W^T dh, as one product
    d_means = np.empty((batch, 1 + n_max, dim))
    d_means[:, 0] = dq
    np.matmul(
        np.concatenate([d_cand, fw.weights], axis=1).transpose(0, 2, 1),
        np.concatenate([u, dh], axis=1),
        out=d_means[:, 1:],
    )
    for b, (ids, c) in enumerate(fw.matrices):
        grads.emb[ids] += c.T @ d_means[b, : c.shape[0]]


def chunks(items: Sequence[EncodedInstance | CountMatrix]) -> list[slice]:
    """Consecutive runs of instances (their encodings or count matrices)
    to pass to ``forward``, step in ``greedy_decode`` or count in
    ``count_matrices`` one at a time.

    Each run pads to at most ``_SEGMENT_BLOCK`` encodings (or holds a single
    instance), which bounds the memory of ``forward``/``backward``, of the
    greedy stepper and of the count matrices a run builds, whatever the
    table size; a minibatch of short tables is one run.  Count matrices a
    caller keeps are outside that bound: ``training.train_rl`` holds one
    per training instance, ``(1 + n_candidates) x distinct tokens`` floats
    each, for the whole run.
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
) -> tuple[float, PolicyParams]:
    """Mean negative log-likelihood of gold action sequences, ``actions[b]``
    on ``encs[b]`` as ``forward`` reads them, and its gradient, a
    ``PolicyParams`` laid out like ``params``."""
    if not encs:
        raise ConfigError("empty SFT batch")
    grads = PolicyParams(params.vocab, params.dim)
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
) -> tuple[float, PolicyParams, PpoStats]:
    """Clipped-surrogate PPO loss over every step in the batch.

        loss = -mean(min(ratio*A, clip(ratio)*A))
               + value_loss_coef * mean((V - return)^2)
               - entropy_coef * mean(H)

    The gradient comes as a ``PolicyParams`` laid out like ``params``.  New
    log-probs are the unmasked policy; ratios divide by the stored behavior
    log-probs.  Steps where the clipped branch is strictly active
    contribute no policy gradient.  Each ``chunks`` run of episodes is one
    ``forward`` pass over the run's rows, cut to its longest episode, on
    the batch's own count matrices.
    """
    if not batch.matrices:
        raise ConfigError("empty PPO batch")
    grads = PolicyParams(params.vocab, params.dim)
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
