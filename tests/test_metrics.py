import pytest

from tabreduce import metrics
from tabreduce.errors import ConfigError
from tabreduce.metrics import (
    EvalEntry,
    assign_buckets,
    bucket_by_length,
    build_accuracy_report,
    build_recall_report,
    downstream_accuracy,
    item_recall,
    parse_answer_text,
)
from tabreduce.tables import Instance, make_table


def inst(n_cols, n_rows, qid="x"):
    return Instance(
        id=qid,
        question="q",
        table=make_table(
            [f"c{i}" for i in range(n_cols)],
            [[1] * n_cols for _ in range(n_rows)],
        ),
        answers=("1",),
    )


class TestItemRecall:
    def test_partial(self):
        r, p, f = item_recall({1, 2}, {1, 2, 3})
        assert r == pytest.approx(2 / 3)
        assert p == 1.0

    def test_exact(self):
        assert item_recall({1}, {1}) == (1.0, 1.0, 1.0)

    def test_empty_pred(self):
        r, p, f = item_recall(set(), {1})
        assert (r, p, f) == (0.0, 1.0, 0.0)

    def test_empty_gold(self):
        r, p, f = item_recall({1}, set())
        assert r == 1.0 and p == 0.0

    def test_boundary_iff_properties(self):
        import random

        rng = random.Random(3)
        for _ in range(200):
            pred = set(rng.sample(range(8), rng.randint(0, 8)))
            gold = set(rng.sample(range(8), rng.randint(0, 8)))
            r, p, _ = item_recall(pred, gold)
            assert (r == 1.0) == gold.issubset(pred)
            assert (p == 1.0) == pred.issubset(gold)
            assert 0.0 <= r <= 1.0 and 0.0 <= p <= 1.0


class TestRecallReport:
    def entries(self):
        return [
            # one column: each row "Row{i}: (c0,1)" is 2 tokens, so 100 and 1500 in all
            EvalEntry(frozenset({0, 1}), frozenset({0, 1}), 0.5, inst(1, 50)),
            EvalEntry(frozenset({0}), frozenset({0, 1}), 0.25, inst(1, 750)),
        ]

    def test_macro_average(self):
        report = build_recall_report(self.entries())
        assert report["recall"] == pytest.approx((1.0 + 0.5) / 2)
        assert report["count"] == 2
        assert report["mean_reduction_ratio"] == pytest.approx(0.375)
        assert min(1.0, 0.5) <= report["recall"] <= 1.0

    def test_micro_behind_flag(self):
        report = build_recall_report(self.entries(), include_micro=True)
        assert report["micro_recall"] == pytest.approx(3 / 4)
        assert "micro_recall" not in build_recall_report(self.entries())

    def test_buckets(self):
        report = build_recall_report(self.entries(), bucket_boundaries=[0, 1000])
        assert report["per_bucket"][0]["count"] == 1
        assert report["per_bucket"][1]["count"] == 1
        assert report["per_bucket"][1]["recall"] == pytest.approx(0.5)

    def test_to_dict_versioned(self):
        doc = build_recall_report(self.entries())
        assert doc["format_version"] == metrics.REPORT_FORMAT_VERSION
        assert set(doc) >= {"recall", "precision", "f1", "count", "mean_reduction_ratio"}

    def test_empty(self):
        report = build_recall_report([])
        assert report["count"] == 0

    def test_empty_bucket_reported_as_zero(self):
        report = build_recall_report(self.entries(), bucket_boundaries=[0, 1000, 5000])
        assert report["per_bucket"][2] == {
            "bucket": 2, "min_tokens": 5000, "count": 0, "recall": 0.0, "precision": 0.0, "f1": 0.0,
        }


class TestFullContextTokens:
    def test_single_table_hand_counted(self):
        instance = Instance(
            id="a",
            question="q",
            table=make_table(["x", "y"], [[1, "u"], [2, "v"]]),
            answers=("1",),
        )
        # "Row0: (x,1), (y,u) Row1: (x,2), (y,v)" -> 6 words, the one count in [6, 7)
        assert bucket_by_length([instance], [0, 6, 7]) == [1]


class TestBuckets:
    def test_assignment(self):
        assert assign_buckets([500, 1500], [0, 1000, 2000]) == [0, 1]

    def test_open_ended_last(self):
        assert assign_buckets([99999], [0, 10]) == [1]

    def test_empty_boundaries_error(self):
        with pytest.raises(ConfigError):
            assign_buckets([1], [])

    def test_below_first_boundary_error(self):
        with pytest.raises(ConfigError):
            assign_buckets([5], [10, 20])

    def test_partition_property(self):
        import random

        rng = random.Random(0)
        counts = [rng.randint(0, 5000) for _ in range(200)]
        boundaries = [0, 100, 1000, 2500]
        buckets = assign_buckets(counts, boundaries)
        assert len(buckets) == len(counts)
        assert all(0 <= b < len(boundaries) for b in buckets)
        populations = [buckets.count(k) for k in range(len(boundaries))]
        assert sum(populations) == len(counts)

    def test_bucket_by_length_uses_full_context(self):
        instances = [inst(2, 1), inst(2, 50)]
        assert bucket_by_length(instances, [0, 20]) == [0, 1]


class TestDownstreamAccuracy:
    def test_all_correct(self):
        assert downstream_accuracy(["Beijing"], [["beijing"]]) == 1.0

    def test_none_correct(self):
        assert downstream_accuracy(["unknown"], [["beijing"]]) == 0.0

    def test_mixed_hand_counted(self):
        acc = downstream_accuracy(
            ["2", "a, b", "nope"],
            [["2.0"], ["b", "a"], ["yes"]],
        )
        assert acc == pytest.approx(2 / 3)

    def test_parse_answer_text(self):
        assert parse_answer_text("") == []
        assert parse_answer_text("a, b") == ["a", "b"]
        assert parse_answer_text("2,008") == ["2,008"]

    def test_misaligned_rejected(self):
        with pytest.raises(ConfigError):
            downstream_accuracy(["a"], [])


class TestAccuracyReport:
    def test_hand_counted(self):
        # inst(2, 1) has 3 context tokens and inst(2, 50) 150; "c" has no answer
        instances = [inst(2, 1, "a"), inst(2, 50, "b"), inst(2, 1, "c"), inst(2, 50, "d")]
        answers = {"a": "1", "b": "2", "d": "1.0"}
        doc = build_accuracy_report(instances, answers, [0, 20, 1000])
        assert doc == {
            "format_version": metrics.REPORT_FORMAT_VERSION,
            "count": 3,
            "overall_accuracy": pytest.approx(2 / 3),
            "per_bucket": [
                {"bucket": 0, "min_tokens": 0, "count": 1, "accuracy": 1.0},
                {"bucket": 1, "min_tokens": 20, "count": 2, "accuracy": 0.5},
                {"bucket": 2, "min_tokens": 1000, "count": 0, "accuracy": 0.0},
            ],
        }

    def test_no_answers(self):
        doc = build_accuracy_report([inst(2, 1)], {}, [0])
        assert doc["count"] == 0 and doc["overall_accuracy"] == 0.0
        assert doc["per_bucket"] == [{"bucket": 0, "min_tokens": 0, "count": 0, "accuracy": 0.0}]
