"""Test helpers for ``policy.EncodedInstance``: build one from each
segment's token ids or texts, read the segments back, and compare what the
policy reads of instances, their count matrices.  ``tokenize``, ``encode``
and ``build_vocabulary`` are oracles of a text's tokens, its token ids and
the vocabulary of texts, written apart from the package's own code.

An instance's arrays may hold a segment's tokens in any order, so
comparisons go through ``segments`` (each segment's ids, sorted) or the
count matrices, never the arrays themselves.
"""

import re

import numpy as np

from tabreduce import policy


def tokenize(text: str) -> list[str]:
    """Lowercased words split at every character outside ``[a-z0-9]``."""
    return re.findall(r"[a-z0-9]+", text.lower())


def encode(vocab: policy.Vocabulary, text: str) -> tuple[int, ...]:
    """The text's token ids in ``vocab``, 0 for a token it lacks."""
    index = {token: i + 1 for i, token in enumerate(vocab.tokens)}
    return tuple(index.get(token, 0) for token in tokenize(text))


def build_vocabulary(texts) -> policy.Vocabulary:
    """The vocabulary of the texts' tokens, sorted."""
    return policy.Vocabulary(tuple(sorted({token for text in texts for token in tokenize(text)})))


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
    return [encoded(encode(vocab, question), [encode(vocab, text) for text in texts]) for question, texts in instances]


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
