"""Binding between table instances and policy episodes.

The column policy points at headers; the row policy points at rows rendered
over an already-reduced column set (gold columns by default, predicted ones
when chaining stages).  One builder (``_segments``) lays out an instance's
segments, its question and its candidates, for both, as pieces of token
texts: ``build_vocab`` takes the set of their tokens, so a vocabulary holds
exactly the tokens its encodings look up, and ``encode`` maps them to ids
once, while flattening (``_flatten``).  Rows are never rendered for the
policy: their tokens come from each header and distinct cell
(``tables.column_tokens``) and equal those of the rendered rows.  Each
distinct header and cell is tokenized once per call, in one memo per batch
call (see ``tables._walk``).  ``encode`` encodes a whole stage, or a group
of it, in one call: the candidates of all its instances are flattened
together, by a fixed number of numpy calls.  Only this module knows the
layout of the pieces; ``policy`` sees ``policy.EncodedInstance`` alone.
Greedy reductions go through ``policy.greedy_decode``, which steps many
encoded instances together; recall is ``greedy_recall`` over instances
encoded once (``labeled_encodings``), as training does at every
evaluation.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from . import metrics, policy
from .errors import ConfigError
from .policy import TARGET_COLUMNS, TARGET_ROWS, TARGETS
from .tables import Instance, _tokenize, column_tokens


def check_target(target: str) -> str:
    if target not in TARGETS:
        raise ConfigError(f"target must be one of {TARGETS}, got {target!r}")
    return target


def _row_context(instance: Instance, context_columns: frozenset[int] | None) -> frozenset[int]:
    """The columns rows are rendered over: ``context_columns``, else the gold ones."""
    columns = context_columns if context_columns is not None else instance.relevant_columns
    if not columns:
        raise ConfigError("row candidates need a non-empty column context")
    return columns


def gold_items(instance: Instance, target: str) -> frozenset[int] | None:
    check_target(target)
    return instance.relevant_columns if target == TARGET_COLUMNS else instance.relevant_rows


def gold_actions(gold: Iterable[int]) -> tuple[int, ...]:
    """Deterministic supervision target: table order, then STOP."""
    return tuple(sorted(gold)) + (policy.STOP,)


def trainable(instances: Sequence[Instance], target: str) -> list[Instance]:
    """Instances with an ok annotation and gold labels for the target."""
    check_target(target)
    kept = []
    for inst in instances:
        if inst.annotation_status not in (None, "ok"):
            continue
        if gold_items(inst, target) is None:
            continue
        if target == TARGET_ROWS and not inst.relevant_columns:
            continue
        kept.append(inst)
    return kept


def _segments(
    instances: Sequence[Instance],
    target: str,
    contexts: Sequence[frozenset[int] | None] | None,
) -> tuple[list[tuple[str, ...]], list[tuple], list[tuple[int, int]]]:
    """The parts of the instances' segments, as ``_flatten`` takes them:
    ``(pieces, runs, shapes)``, each piece the tokens of a text, with each
    distinct header and cell tokenized once per call (see
    ``tables._walk``).

    Segment 0 is the question.  Candidate j is header j, in the question's
    run; or row j over ``contexts[i]`` (by default, or where it is None, the
    gold columns), gathered column by column (``tables.column_tokens``):
    row r's segment holds one part with all the headers and, per column,
    the piece of its cell's distinct text, shared by every row that has it.
    A table without rows has its question only."""
    pieces: list[tuple[str, ...]] = []  # each a part of one segment or more
    runs: list[tuple] = []  # per run of parts: its first piece, each part's piece from there, its first segment
    shapes = []
    tokens: dict = {}  # the call's one memo of header and cell tokens
    by_columns = check_target(target) == TARGET_COLUMNS
    for inst, context in zip(instances, [None] * len(instances) if contexts is None else contexts, strict=True):
        question = len(pieces)
        pieces.append(_tokenize(inst.question))
        if by_columns:
            for header in inst.table.columns:
                head = tokens.get(header)
                if head is None:
                    head = tokens[header] = _tokenize(header)
                pieces.append(head)
            runs.append((question, range(1 + inst.table.n_columns), 0))
            shapes.append((1, inst.table.n_columns))
            continue
        columns = column_tokens(inst.table, _row_context(inst, context), tokens)
        n_rows = inst.table.n_rows
        runs.append((question, (0,), 0))
        if not n_rows:
            shapes.append((1, 0))
            continue
        runs.append((len(pieces), (0,) * n_rows, 1))  # the headers of each row
        pieces.append(tuple(chain.from_iterable(head for head, _, _ in columns)))
        for _, distinct, rows in columns:  # each row's cell
            runs.append((len(pieces), rows, 1))
            pieces += distinct
        shapes.append((2 + len(columns), n_rows))
    return pieces, runs, shapes


def _flatten(
    vocab: policy.Vocabulary,
    pieces: Sequence[tuple[str, ...]],
    runs: Sequence[tuple[int, Sequence[int], int]],
    shapes: Sequence[tuple[int, int]],
) -> list[policy.EncodedInstance]:
    """Instances made of parts, each a token tuple of ``pieces``, laid out
    in runs ``(first, local, first_segment)``: part k of a run is
    ``pieces[first + local[k]]`` and lies in segment ``first_segment + k``
    of its instance, which may span several runs in any order.  ``shapes``
    gives each instance's number of runs, which follow those of the instance
    before it, and of candidates.  A fixed number of numpy calls flattens
    all the instances, whose arrays are views of two arrays over them all;
    only the pieces' tokens, mapped to ids here (``Vocabulary.ids``), and
    the runs' local indices are read one by one."""
    first, length, first_segment = np.array(
        [(start, len(local), segment) for start, local, segment in runs], dtype=np.intp
    ).reshape(-1, 3).T
    run_start = np.cumsum(length) - length
    n_parts = int(length.sum())
    local = np.fromiter(chain.from_iterable(local for _, local, _ in runs), dtype=np.intp, count=n_parts)
    piece_of = local + np.repeat(first, length)
    segment_of = np.arange(n_parts) - np.repeat(run_start - first_segment, length)
    piece_len = np.fromiter(map(len, pieces), dtype=np.intp, count=len(pieces))
    piece_start = np.cumsum(piece_len) - piece_len
    tokens = np.fromiter(vocab.ids(chain.from_iterable(pieces)), dtype=np.intp, count=int(piece_len.sum()))
    part_len = piece_len[piece_of]
    ends = np.zeros(n_parts + 1, dtype=np.intp)  # token offset of each part, then the total
    np.cumsum(part_len, out=ends[1:])
    ids = tokens[np.repeat(piece_start[piece_of] - ends[:-1], part_len) + np.arange(ends[-1])]
    segment = np.repeat(segment_of, part_len)
    run_bounds = list(accumulate((n for n, _ in shapes), initial=0))
    bounds = ends[np.append(run_start, n_parts)[run_bounds]].tolist()
    return [
        policy.EncodedInstance(ids[start:stop], segment[start:stop], n_candidates)
        for start, stop, (_, n_candidates) in zip(bounds, bounds[1:], shapes)
    ]


def build_vocab(instances: Sequence[Instance], target: str) -> policy.Vocabulary:
    """Vocabulary of the tokens of the instances' segments (``_segments``),
    so that it holds exactly the tokens that ``encode`` looks up."""
    pieces, _, _ = _segments(instances, target, None)
    return policy.Vocabulary(tuple(sorted(set(chain.from_iterable(pieces)))))


def encode(
    vocab: policy.Vocabulary,
    instances: Sequence[Instance],
    target: str,
    contexts: Sequence[frozenset[int] | None] | None = None,
) -> list[policy.EncodedInstance]:
    """The instances as the policy sees them (``_segments``), the parts of
    all of them flattened together (``_flatten``)."""
    return _flatten(vocab, *_segments(instances, target, contexts))


def labeled_encodings(
    vocab: policy.Vocabulary,
    instances: Sequence[Instance],
    target: str,
) -> tuple[list[policy.EncodedInstance], list[frozenset[int]]]:
    """Encodings and gold items (``gold_items``) of instances that are
    trainable for the target (``trainable``), in their order."""
    return encode(vocab, instances, target), [gold_items(inst, target) for inst in instances]


def greedy_recall(
    params: policy.PolicyParams,
    encs: Sequence[policy.EncodedInstance],
    golds: Sequence[frozenset[int]],
) -> float:
    """Macro-averaged recall of the greedy reductions of encoded instances."""
    predicted = policy.greedy_decode(params, encs).selected
    recalls = [metrics.item_recall(pred, gold)[0] for pred, gold in zip(predicted, golds)]
    # np.mean, not the sum/n of metrics' reports: the two can differ in the
    # last bit, and this value is recorded in metrics.jsonl
    return float(np.mean(recalls)) if recalls else 0.0

