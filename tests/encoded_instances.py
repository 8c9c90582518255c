"""Test helpers for ``policy.EncodedInstance``: build one from each
segment's token ids or texts, read the segments back, and compare what the
policy reads of instances, their count matrices.

An instance's arrays may hold a segment's tokens in any order, so
comparisons go through ``segments`` (each segment's ids, sorted) or the
count matrices, never the arrays themselves.
"""

import numpy as np

from tabreduce import policy


def encoded(question_ids, candidate_ids=()) -> policy.EncodedInstance:
    """The instance whose question has ``question_ids`` and whose candidate
    j has ``candidate_ids[j]``, in that order."""
    parts = [tuple(question_ids), *map(tuple, candidate_ids)]
    ids = np.array([tok for part in parts for tok in part], dtype=np.intp)
    segment = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
    return policy.EncodedInstance(ids, segment, len(parts) - 1)


def encode_texts(vocab: policy.Vocabulary, instances) -> list[policy.EncodedInstance]:
    """Each ``(question, candidate texts)`` pair as the instance whose
    question and candidates are those texts, each tokenized on its own by
    ``vocab``: the encoding of rendered rows, or of headers."""
    return [encoded(vocab.encode(question), [vocab.encode(text) for text in texts]) for question, texts in instances]


def segment_ids(enc: policy.EncodedInstance) -> list[tuple[int, ...]]:
    """Each segment's token ids in array order: the question's, then each
    candidate's."""
    return [tuple(enc.ids[enc.segment == s].tolist()) for s in range(1 + enc.n_candidates)]


def segments(enc: policy.EncodedInstance) -> list[tuple[int, ...]]:
    """Each segment's token ids, sorted: what the instance is, token order
    aside."""
    return [tuple(sorted(ids)) for ids in segment_ids(enc)]


def assert_same_matrices(actual, expected) -> None:
    """The encodings have the same count matrices, ``u`` equal and ``c``
    byte for byte, each matrix built alone."""
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        (ma,), (mb,) = policy._count_matrices([a]), policy._count_matrices([b])
        assert np.array_equal(ma.u, mb.u)
        assert ma.c.shape == mb.c.shape and ma.c.tobytes() == mb.c.tobytes()
