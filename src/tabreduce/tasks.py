"""Binding between table instances and policy episodes.

The column policy points at headers; the row policy points at rows rendered
over an already-reduced column set (gold columns by default, predicted ones
when chaining stages).
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


def greedy_reduction(
    params: policy.PolicyParams,
    instance: Instance,
    target: str,
    context_columns: frozenset[int] | None = None,
) -> frozenset[int]:
    """Deterministic reduction: greedy decode of the policy."""
    enc = encode(params.vocab, instance, target, context_columns)
    trace = policy.sample_episode(policy.embed(params, [enc])[0], mode="greedy")
    return trace.selected


def evaluate_recall(
    params: policy.PolicyParams,
    instances: Sequence[Instance],
    target: str,
) -> float:
    """Macro-averaged recall of greedy reductions against gold labels."""
    recalls = []
    for inst in instances:
        gold = gold_items(inst, target)
        if gold is None:
            continue
        recalls.append(metrics.item_recall(greedy_reduction(params, inst, target), gold)[0])
    # np.mean, not the sum/n of metrics' reports: the two can differ in the
    # last bit, and this value is recorded in metrics.jsonl
    return float(np.mean(recalls)) if recalls else 0.0
