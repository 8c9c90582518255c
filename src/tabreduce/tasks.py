"""Binding between table instances and policy episodes.

The column policy points at headers; the row policy points at rows rendered
over an already-reduced column set (gold columns by default, predicted ones
when chaining stages).  Rows are never rendered for the policy: their token
ids and the row vocabulary come from each header and distinct cell
(``tables.column_token_ids``, ``tables.row_vocabulary_texts``) and equal
those of the rendered rows.  Each distinct cell is tokenized once per
vocabulary (``Vocabulary.cell_ids``) and its text taken once per
``build_vocab`` (see ``tables._walk``).  ``encode`` encodes a whole stage,
or a group of it, in one call: the row candidates of all its instances are
flattened together, by a fixed number of numpy calls.
Greedy reductions go through ``policy.greedy_decode``, which steps many
encoded instances together; recall is ``greedy_recall`` over instances
encoded once (``labeled_encodings``), as training does at every
evaluation.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import metrics, policy
from .errors import ConfigError
from .policy import TARGET_COLUMNS, TARGET_ROWS, TARGETS
from .tables import Instance, column_token_ids, row_vocabulary_texts


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


def build_vocab(instances: Sequence[Instance], target: str) -> policy.Vocabulary:
    """Vocabulary of the questions and of the candidates' texts."""
    check_target(target)
    texts = [inst.question for inst in instances]
    if target == TARGET_COLUMNS:
        texts += [header for inst in instances for header in inst.table.columns]
    else:
        texts += row_vocabulary_texts([(inst.table, _row_context(inst, None)) for inst in instances])
    return policy.build_vocabulary(texts)


def encode(
    vocab: policy.Vocabulary,
    instances: Sequence[Instance],
    target: str,
    contexts: Sequence[frozenset[int] | None] | None = None,
) -> list[policy.EncodedInstance]:
    """The instances as the policy sees them: each one's question and its
    candidates, the headers (``policy.encode_texts``) or the rows over
    ``contexts[i]`` (by default, or where it is None, the gold columns).

    Rows are gathered column by column (``tables.column_token_ids``): the
    segment of row r holds one part with the ids of all the headers and,
    per column, the ids of its cell's distinct text, each a piece shared by
    every row that has it.  The parts of all the instances are flattened
    together (``policy.encode_parts``)."""
    if check_target(target) == TARGET_COLUMNS:
        return policy.encode_texts(vocab, [(inst.question, inst.table.columns) for inst in instances])
    pieces: list[tuple] = []  # token-id tuples, each a part of one row or more
    runs: list[tuple] = []  # per run of parts: its first piece, each part's piece from there, its first segment
    shapes = []
    for inst, context in zip(instances, [None] * len(instances) if contexts is None else contexts, strict=True):
        columns = column_token_ids(inst.table, _row_context(inst, context), vocab.encode, vocab.cell_ids)
        n_rows = inst.table.n_rows
        runs += [(len(pieces), (0,), 0), (len(pieces) + 1, (0,) * n_rows, 1)]  # the question; the headers of each row
        pieces += [vocab.encode(inst.question), tuple(chain.from_iterable(head for head, _, _ in columns))]
        for _, distinct, rows in columns:  # each row's cell
            runs.append((len(pieces), rows, 1))
            pieces += distinct
        shapes.append((2 + len(columns), n_rows))
    return policy.encode_parts(pieces, runs, shapes)


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

