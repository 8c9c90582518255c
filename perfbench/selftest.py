"""Fast checks of the benchmark harness itself (not part of the repo's test suite).

    python3 perfbench/selftest.py

Covers the self-time arithmetic on hand-built spans, wrapper install and
removal, the report for renamed or removed functions, agreement of
BENCHMARK.json with run.py, and a smoke run of every workload at tiny size.
"""

from __future__ import annotations

import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_union_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(spans.union_length([(1, 3), (2, 4), (6, 7)], 0, 10), 4.0)
        self.assertAlmostEqual(spans.union_length([(-1, 2), (9, 12)], 0, 10), 3.0)
        self.assertAlmostEqual(spans.union_length([], 0, 10), 0.0)
        self.assertAlmostEqual(spans.union_length([(3, 3), (5, 4)], 0, 10), 0.0)

    def test_nested_spans(self):
        # 0: [0, 10] root
        #   1: [1, 4]      2: [3, 6] (overlaps 1)     4: [8, 9]
        #     3: [2, 3]
        start = [0.0, 1.0, 3.0, 2.0, 8.0]
        end = [10.0, 4.0, 6.0, 3.0, 9.0]
        parent = [-1, 0, 0, 1, 0]
        got = spans.self_times(start, end, parent)
        # root: 10 - |[1,6] u [8,9]| = 10 - 6; span 1: 3 - 1; leaves keep all
        for value, expected in zip(got, [4.0, 2.0, 3.0, 1.0, 1.0]):
            self.assertAlmostEqual(value, expected)

    def test_summary_attributes_self_time_to_names_and_roots(self):
        tracer = spans.Tracer()
        for name, s, e, p in (("cli.stage", 0.0, 10.0, -1), ("policy.f", 1.0, 5.0, 0),
                              ("sql.g", 2.0, 3.0, 1), ("cli.main", 6.0, 7.0, 0)):
            tracer.name.append(tracer.name_id(name))
            tracer.start.append(s)
            tracer.end.append(e)
            tracer.parent.append(p)
        summary = spans.summarize(tracer)
        self.assertAlmostEqual(summary["spans"]["policy.f"]["self_s"], 3.0)
        self.assertAlmostEqual(summary["spans"]["cli.stage"]["self_s"], 5.0)
        (root,) = summary["roots"]
        self.assertAlmostEqual(root["layer_self_s"], 4.0)  # cli.* spans are not layers


class Wrappers(unittest.TestCase):
    def test_install_wraps_caller_bindings_and_uninstall_restores(self):
        from tabreduce import annotate, cli, tables

        before = (annotate.project, tables.project, cli.project)
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            self.assertIsNot(annotate.project, before[0])
            self.assertIsNot(tables.project, before[1])
            self.assertIn("tables.project@annotate", tracer.names)
            self.assertIn("tables.project", tracer.names)
            self.assertIn("training.Adam.step", tracer.names)
        finally:
            spans.uninstall(undo)
        self.assertEqual((annotate.project, tables.project, cli.project), before)

    def test_missing_function_is_reported_absent(self):
        summary = {"spans": {"cli.train-rl": {"calls": 1, "self_s": 1.0, "roots": {}}},
                   "counts": {}, "roots": [{"name": "cli.train-rl", "dur_s": 1.0,
                                            "layer_self_s": 0.0}]}
        rep = {"pipeline_s": 1.0}
        values, absent = run.layer_metrics([summary], [rep], [rep])
        self.assertIn("policy.replay_episode", absent)
        self.assertEqual(values["policy.replay_episode.calls"], 0)
        self.assertEqual({name for name, _ in run.per_layer_names()}, set(values))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         run.per_layer_names())


class Smoke(unittest.TestCase):
    def test_every_workload_at_tiny_size(self):
        e2e = {name for name, _, _ in run.END_TO_END}
        layers = {name for name, _ in run.per_layer_names()}
        for workload in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    result = run.run(workload, seed=3, seconds=0, trace=trace, small=True,
                                     out=io.StringIO())
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), layers if trace else e2e)


if __name__ == "__main__":
    unittest.main(verbosity=2)
