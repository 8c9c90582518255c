"""Binding between table instances and policy episodes.

The column policy points at headers; the row policy points at rows rendered
over an already-reduced column set (gold columns by default, predicted ones
when chaining stages).  Rows are never rendered for the policy: their token
ids and the row vocabulary come from each header and distinct cell
(``tables.row_tokens``, ``tables.row_vocabulary_texts``) and equal those of
the rendered rows.  Each distinct cell is tokenized once per vocabulary
(``Vocabulary.cell_ids``) and its text taken once per ``build_vocab``
(see ``tables._walk``).
Greedy reductions go through ``policy.greedy_decode``, which steps many
encoded instances together; recall is ``greedy_recall`` over instances
encoded once (``labeled_encodings``), as training does at every
evaluation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import metrics, policy
from .errors import ConfigError
from .policy import TARGET_COLUMNS, TARGET_ROWS, TARGETS
from .tables import Instance, row_tokens, row_vocabulary_texts


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
    instance: Instance,
    target: str,
    context_columns: frozenset[int] | None = None,
) -> policy.EncodedInstance:
    """The instance as the policy sees it: its question and its candidates
    (headers, or rows over ``context_columns``, else the gold columns)."""
    if check_target(target) == TARGET_COLUMNS:
        return policy.encode_instance(vocab, instance.question, instance.table.columns)
    rows = row_tokens(instance.table, _row_context(instance, context_columns), vocab.encode, vocab.cell_ids)
    return policy.EncodedInstance(vocab.encode(instance.question), tuple(rows))


def labeled_encodings(
    vocab: policy.Vocabulary,
    instances: Sequence[Instance],
    target: str,
) -> tuple[list[policy.EncodedInstance], list[frozenset[int]]]:
    """Encodings and gold items of the instances with gold labels for the target."""
    encs: list[policy.EncodedInstance] = []
    golds: list[frozenset[int]] = []
    for inst in instances:
        gold = gold_items(inst, target)
        if gold is not None:
            encs.append(encode(vocab, inst, target))
            golds.append(gold)
    return encs, golds


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

