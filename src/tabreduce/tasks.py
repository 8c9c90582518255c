"""Binding between table instances and policy episodes.

The column policy points at headers; the row policy points at rows rendered
over an already-reduced column set (gold columns by default, predicted ones
when chaining stages).  One builder (``_segments``) lays out an instance's
segments, its question and its candidates, for both: ``encode`` fills it
with token ids and ``build_vocab`` with texts, so a vocabulary holds
exactly the tokens its encodings look up.  Rows are never rendered for the
policy: their token ids come from each header and distinct cell
(``tables.column_token_ids``) and equal those of the rendered rows.  Each
distinct header and cell is tokenized once per vocabulary
(``Vocabulary.cell_ids``) and its text taken once per ``build_vocab`` (see
``tables._walk``).  ``encode`` encodes a whole stage, or a group of it, in
one call: the candidates of all its instances are flattened together, by a
fixed number of numpy calls.
Greedy reductions go through ``policy.greedy_decode``, which steps many
encoded instances together; recall is ``greedy_recall`` over instances
encoded once (``labeled_encodings``), as training does at every
evaluation.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from . import metrics, policy
from .errors import ConfigError
from .policy import TARGET_COLUMNS, TARGET_ROWS, TARGETS
from .tables import Instance, column_token_ids


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
    encode: Callable[[str], tuple],
    memo: dict,
) -> tuple[list[tuple], list[tuple], list[tuple[int, int]]]:
    """The parts of the instances' segments, as ``policy.encode_parts``
    takes them: ``(pieces, runs, shapes)``, each piece ``encode`` of a text,
    with ``memo`` the memo of ``encode`` per header and cell key.

    Segment 0 is the question.  Candidate j is header j, in the question's
    run; or row j over ``contexts[i]`` (by default, or where it is None, the
    gold columns), gathered column by column (``tables.column_token_ids``):
    row r's segment holds one part with all the headers and, per column,
    the piece of its cell's distinct text, shared by every row that has it.
    A table without rows has its question only."""
    pieces: list[tuple] = []  # each a part of one segment or more
    runs: list[tuple] = []  # per run of parts: its first piece, each part's piece from there, its first segment
    shapes = []
    by_columns = check_target(target) == TARGET_COLUMNS
    for inst, context in zip(instances, [None] * len(instances) if contexts is None else contexts, strict=True):
        question = len(pieces)
        pieces.append(encode(inst.question))
        if by_columns:
            for header in inst.table.columns:
                ids = memo.get(header)
                if ids is None:
                    ids = memo[header] = encode(header)
                pieces.append(ids)
            runs.append((question, range(1 + inst.table.n_columns), 0))
            shapes.append((1, inst.table.n_columns))
            continue
        columns = column_token_ids(inst.table, _row_context(inst, context), encode, memo)
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


def build_vocab(instances: Sequence[Instance], target: str) -> policy.Vocabulary:
    """Vocabulary of the texts of the instances' segments (``_segments``),
    so that it holds exactly the tokens that ``encode`` looks up."""
    pieces, _, _ = _segments(instances, target, None, lambda text: (text,), {})
    return policy.build_vocabulary(set(chain.from_iterable(pieces)))


def encode(
    vocab: policy.Vocabulary,
    instances: Sequence[Instance],
    target: str,
    contexts: Sequence[frozenset[int] | None] | None = None,
) -> list[policy.EncodedInstance]:
    """The instances as the policy sees them (``_segments``), with each
    header and distinct cell tokenized once per vocabulary
    (``Vocabulary.cell_ids``) and the parts of all the instances flattened
    together (``policy.encode_parts``)."""
    return policy.encode_parts(*_segments(instances, target, contexts, vocab.encode, vocab.cell_ids))


def labeled_encodings(
    vocab: policy.Vocabulary,
    instances: Sequence[Instance],
    target: str,
) -> tuple[list[policy.EncodedInstance], list[frozenset[int]]]:
    """Encodings and gold items of the instances with gold labels for the target."""
    labeled = [(inst, gold) for inst in instances if (gold := gold_items(inst, target)) is not None]
    return encode(vocab, [inst for inst, _ in labeled], target), [gold for _, gold in labeled]


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

