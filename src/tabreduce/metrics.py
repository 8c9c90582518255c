"""Reduction quality metrics, length bucketing and length-bucketed reports.

An instance's length is the whitespace token count of its whole table
linearized: the sum of its ``tables.row_token_counts``, which count from
the table's headers and distinct cells without rendering the text, the
count that ``qa`` writes as ``context_tokens``.  Only a bucketed report
counts it, each distinct cell once over all of its instances.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import ConfigError
from .tables import Instance, row_token_counts

REPORT_FORMAT_VERSION = 1


def item_recall(predicted: frozenset[int] | set[int], gold: frozenset[int] | set[int]) -> tuple[float, float, float]:
    """(recall, precision, f1); empty gold gives recall 1, empty pred gives
    precision 1, and f1 is 0 when both components are 0."""
    hit = len(set(predicted) & set(gold))
    recall = 1.0 if not gold else hit / len(gold)
    precision = 1.0 if not predicted else hit / len(predicted)
    f1 = 0.0 if (precision + recall) == 0 else 2 * precision * recall / (precision + recall)
    return recall, precision, f1


@dataclass(frozen=True)
class EvalEntry:
    """One instance's evaluation inputs for a recall report; the instance
    gives its length bucket."""

    predicted: frozenset[int]
    gold: frozenset[int]
    kept_fraction: float     # kept cells / total cells
    instance: Instance


def _macro(entries: Sequence[EvalEntry]) -> tuple[float, float, float]:
    if not entries:
        return 0.0, 0.0, 0.0
    triples = [item_recall(e.predicted, e.gold) for e in entries]
    n = len(triples)
    return (
        sum(t[0] for t in triples) / n,
        sum(t[1] for t in triples) / n,
        sum(t[2] for t in triples) / n,
    )


def build_recall_report(
    entries: Sequence[EvalEntry],
    bucket_boundaries: Sequence[int] | None = None,
    include_micro: bool = False,
) -> dict:
    """The ``eval-reduce`` report document, less its ``target``: the count
    and the macro-averaged recall, precision, f1 and kept fraction, the
    same per length bucket given ``bucket_boundaries``, and micro (pooled
    counts) recall and precision on request."""
    recall, precision, f1 = _macro(entries)
    doc = {
        "format_version": REPORT_FORMAT_VERSION,
        "count": len(entries),
        "recall": recall,
        "precision": precision,
        "f1": f1,
        "mean_reduction_ratio": sum(e.kept_fraction for e in entries) / len(entries) if entries else 0.0,
    }
    if bucket_boundaries is not None:
        doc["per_bucket"] = list(_per_bucket(
            entries,
            bucket_by_length([e.instance for e in entries], bucket_boundaries),
            bucket_boundaries,
            lambda members: dict(zip(("recall", "precision", "f1"), _macro(members))),
        ))
    if include_micro:
        hits = sum(len(e.predicted & e.gold) for e in entries)
        gold_total = sum(len(e.gold) for e in entries)
        pred_total = sum(len(e.predicted) for e in entries)
        doc["micro_recall"] = 1.0 if gold_total == 0 else hits / gold_total
        doc["micro_precision"] = 1.0 if pred_total == 0 else hits / pred_total
    return doc


# ---------------------------------------------------------------------------
# Length buckets and downstream accuracy

def check_boundaries(boundaries: Sequence[int]) -> list[int]:
    """The bucket boundaries as a list, refused unless they are non-empty
    and strictly ascending."""
    bounds = list(boundaries)
    if not bounds:
        raise ConfigError("bucket boundaries must be non-empty")
    if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
        raise ConfigError("bucket boundaries must be strictly ascending")
    return bounds


def assign_buckets(token_counts: Sequence[int], boundaries: Sequence[int]) -> list[int]:
    """Bucket k holds counts in [boundaries[k], boundaries[k+1]); the last
    bucket is open-ended.  Counts below the first boundary are an error so
    the assignment is always a partition."""
    bounds = check_boundaries(boundaries)
    out = []
    for tokens in token_counts:
        if tokens < bounds[0]:
            raise ConfigError(f"token count {tokens} below first boundary {bounds[0]}")
        out.append(bisect_right(bounds, tokens) - 1)
    return out


def bucket_by_length(instances: Sequence[Instance], boundaries: Sequence[int]) -> list[int]:
    """Each instance's bucket by the token count of its whole table."""
    counts = row_token_counts([inst.table for inst in instances])
    return assign_buckets(list(map(sum, counts)), boundaries)


def _per_bucket(
    items: Sequence,
    assignments: Sequence[int],
    boundaries: Sequence[int],
    summarize: Callable[[list], dict],
) -> tuple[dict, ...]:
    """One record per bucket: its index, lower bound, size and the
    ``summarize`` fields of its members (empty buckets included)."""
    buckets = []
    for k in range(len(boundaries)):
        members = [item for item, a in zip(items, assignments) if a == k]
        buckets.append(
            {"bucket": k, "min_tokens": int(boundaries[k]), "count": len(members), **summarize(members)}
        )
    return tuple(buckets)


def parse_answer_text(text: str) -> list[str]:
    """Inverse of the ', '-joined answer rendering; empty text is no answer."""
    text = text.strip()
    if not text:
        return []
    return [part for part in text.split(", ")]


def answer_hits(model_answers: Sequence[str], gold_answers: Sequence[Sequence[str]]) -> list[bool]:
    """Whether each model answer matches its gold answers exactly, under
    answer normalization (``sql.answers_match``, imported here: the model
    commands load ``metrics`` through ``tasks`` and never run ``sql``)."""
    from .sql import answers_match

    if len(model_answers) != len(gold_answers):
        raise ConfigError("answer lists must align")
    return [answers_match(parse_answer_text(text), list(gold)) for text, gold in zip(model_answers, gold_answers)]


def build_accuracy_report(
    instances: Sequence[Instance],
    answers: Mapping[str, str],
    boundaries: Sequence[int],
) -> dict:
    """Downstream accuracy overall and per length bucket, over the instances
    that have an answer (keyed by instance id; ``report`` refuses answers
    whose id names no instance).  Each answer is judged once, and every
    accuracy is its hits over its count (0.0 for none)."""
    scored = [inst for inst in instances if inst.id in answers]
    hits = answer_hits([answers[inst.id] for inst in scored], [inst.answers for inst in scored])

    def accuracy(members: Sequence[bool]) -> float:
        return sum(members) / len(members) if members else 0.0

    per_bucket = _per_bucket(
        hits, bucket_by_length(scored, boundaries), boundaries,
        lambda members: {"accuracy": accuracy(members)},
    )
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "count": len(scored),
        "overall_accuracy": accuracy(hits),
        "per_bucket": list(per_bucket),
    }
