"""Binding between table instances and policy episodes.

The column policy points at headers; the row policy points at rows rendered
over an already-reduced column set (gold columns by default, predicted ones
when chaining stages).  Greedy reductions and recall go through
``policy.greedy_decode``, which steps many encoded instances together;
training encodes its validation instances once (``labeled_encodings``) and
scores them with ``greedy_recall`` at every evaluation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import metrics, policy
from .errors import ConfigError
from .tables import Instance, row_candidate_texts

TARGET_COLUMNS = "columns"
TARGET_ROWS = "rows"
TARGETS = (TARGET_COLUMNS, TARGET_ROWS)


def check_target(target: str) -> str:
    if target not in TARGETS:
        raise ConfigError(f"target must be one of {TARGETS}, got {target!r}")
    return target


def candidate_texts(
    instance: Instance,
    target: str,
    context_columns: frozenset[int] | None = None,
) -> list[str]:
    check_target(target)
    if target == TARGET_COLUMNS:
        return list(instance.table.columns)
    columns = context_columns if context_columns is not None else instance.relevant_columns
    if not columns:
        raise ConfigError("row candidates need a non-empty column context")
    return row_candidate_texts(instance.table, columns)


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
    texts: list[str] = []
    for inst in instances:
        texts.append(inst.question)
        texts.extend(candidate_texts(inst, target))
    return policy.build_vocabulary(texts)


def encode(
    vocab: policy.Vocabulary,
    instance: Instance,
    target: str,
    context_columns: frozenset[int] | None = None,
) -> policy.EncodedInstance:
    return policy.encode_instance(
        vocab, instance.question, candidate_texts(instance, target, context_columns)
    )


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


def greedy_reduction(
    params: policy.PolicyParams,
    instance: Instance,
    target: str,
    context_columns: frozenset[int] | None = None,
) -> frozenset[int]:
    """Deterministic reduction: greedy decode of the policy."""
    enc = encode(params.vocab, instance, target, context_columns)
    return policy.greedy_decode(params, [enc]).selected[0]


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


def evaluate_recall(
    params: policy.PolicyParams,
    instances: Sequence[Instance],
    target: str,
) -> float:
    """Macro-averaged recall of greedy reductions against gold labels."""
    return greedy_recall(params, *labeled_encodings(params.vocab, instances, target))
