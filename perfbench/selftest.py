"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that inputs follow the seed (same seed, same digest; another seed,
another digest), that self time is computed correctly on a synthetic span
tree, that removing the shims puts every original object back, that a
traced run ranks exactly as an untraced one, and that ``BENCHMARK.json``
lists exactly the metrics ``run.py`` reports.
"""

from __future__ import annotations

import inspect
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import loads  # noqa: E402
import run  # noqa: E402
from spans import Recorder, self_times, trees  # noqa: E402


class InputDigestTest(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_other_digest(self):
        for name, workload in loads.WORKLOADS.items():
            with self.subTest(workload=name):
                first = workload(5)
                again = workload(5)
                other = workload(6)
                digest = first.digest(first.inputs())
                self.assertEqual(digest, again.digest(again.inputs()))
                self.assertNotEqual(digest, other.digest(other.inputs()))


def _span(span_id, name, start, end, parent=None, request="r1"):
    return (span_id, name, start, end, parent, request)


class SelfTimeTest(unittest.TestCase):
    """evaluate ⊃ cluster ⊃ kmeans ⊃ numeric_column, plus siblings and a gap."""

    spans = [
        _span(1, "bench.summarize", 0.0, 10.0),
        _span(2, "search.evaluate", 1.0, 9.0, parent=1),
        _span(3, "core.partitioning.cluster", 2.0, 7.0, parent=2),
        _span(4, "ml.kmeans_fit", 3.0, 6.0, parent=3),
        _span(5, "relational.numeric_column", 3.5, 4.0, parent=4),
        _span(6, "relational.numeric_column", 4.5, 5.5, parent=4),
        _span(7, "core.scoring.accuracy", 7.0, 8.0, parent=2),
        _span(8, "core.scoring.accuracy", 8.0, 8.5, parent=2),
        # a span outside any request tree counts toward calls, not wall
        _span(9, "relational.take", 20.0, 21.0, parent=None, request=None),
    ]

    def test_self_times_on_nested_tree(self):
        selfs = self_times(self.spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 8.0)
        self.assertAlmostEqual(selfs[2], 8.0 - 5.0 - 1.5)
        self.assertAlmostEqual(selfs[3], 5.0 - 3.0)
        self.assertAlmostEqual(selfs[4], 3.0 - 1.5)
        self.assertAlmostEqual(selfs[5], 0.5)
        self.assertAlmostEqual(selfs[6], 1.0)

    def test_overlapping_children_count_once(self):
        # children running at once (on pool threads, say): their union, not
        # their sum, comes off the parent
        spans = [
            _span(1, "bench.summarize", 0.0, 4.0),
            _span(2, "core.scoring.accuracy", 1.0, 3.0, parent=1),
            _span(3, "core.scoring.accuracy", 2.0, 3.5, parent=1),
        ]
        self.assertAlmostEqual(self_times(spans)[1], 4.0 - 2.5)

    def test_figures_add_up_to_wall(self):
        self.assertEqual({span[0] for span in trees(self.spans)}, set(range(1, 9)))
        figures = layers.span_figures(self.spans)
        self.assertAlmostEqual(figures["wall_s"], 10.0)
        self.assertAlmostEqual(figures["unattributed_s"], 2.0)
        self.assertAlmostEqual(figures["layer_self_s"], 8.0)
        self.assertTrue(layers.adds_up(figures))
        names = figures["names"]
        self.assertEqual(names["relational.numeric_column"]["calls"], 2)
        self.assertAlmostEqual(names["relational.numeric_column"]["self_s"], 1.5)
        self.assertEqual(names["relational.take"]["calls"], 1)
        self.assertAlmostEqual(names["relational.take"]["self_s"], 0.0)
        per_unit = layers.per_unit(figures, 2)
        self.assertAlmostEqual(per_unit["layer.relational.self_s"], 0.75)
        self.assertAlmostEqual(per_unit["trace.unattributed_frac"], 0.2)

    def test_recorder_links_nested_spans(self):
        recorder = Recorder()
        with recorder.request("bench.summarize", "r1"):
            outer = recorder.open("search.evaluate")
            inner = recorder.open("ml.kmeans_fit")
            recorder.close(inner)
            recorder.close(outer)
        by_name = {span[1]: span for span in recorder.spans}
        root = by_name["bench.summarize"]
        self.assertIsNone(root[4])
        self.assertEqual(by_name["search.evaluate"][4], root[0])
        self.assertEqual(by_name["ml.kmeans_fit"][4], by_name["search.evaluate"][0])
        self.assertEqual({span[5] for span in recorder.spans}, {"r1"})


class ShimTest(unittest.TestCase):
    def test_removal_restores_every_original(self):
        recorder = Recorder()
        shims = layers.install(recorder)
        saved = shims.originals()
        self.assertGreaterEqual(len(saved), len(layers.SPAN_TARGETS) + 4)
        for holder, attribute, original in saved:
            self.assertIsNot(inspect.getattr_static(holder, attribute), original)
        shims.remove()
        for holder, attribute, original in saved:
            self.assertIs(inspect.getattr_static(holder, attribute), original)

    def test_imported_names_are_wrapped_too(self):
        from repro.core import partitioning
        from repro.search import evaluator

        original = partitioning.cluster_changed_rows
        shims = layers.install(Recorder())
        try:
            self.assertIsNot(evaluator.cluster_changed_rows, original)
            self.assertIs(evaluator.cluster_changed_rows, partitioning.cluster_changed_rows)
        finally:
            shims.remove()
        self.assertIs(evaluator.cluster_changed_rows, original)

    def test_traced_rankings_equal_untraced(self):
        from repro import Charles
        from repro.workloads import employee_pair

        pair = employee_pair(300, 3)
        plain = loads.pair_ranking(Charles().summarize_pair(pair, loads.TARGET))
        recorder = Recorder()
        shims = layers.install(recorder)
        try:
            with recorder.request("bench.summarize", "r1"):
                traced = loads.pair_ranking(Charles().summarize_pair(pair, loads.TARGET))
        finally:
            shims.remove()
        self.assertEqual(loads.ranking_bytes(traced), loads.ranking_bytes(plain))
        figures = layers.span_figures(recorder.spans)
        self.assertGreater(figures["names"]["ml.kmeans_fit"]["calls"], 0)
        self.assertTrue(layers.adds_up(figures))


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            [(entry["name"], entry["unit"]) for entry in manifest["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(entry["name"], entry["unit"]) for entry in manifest["per_layer"]],
            list(run.PER_LAYER),
        )
        self.assertEqual(
            sorted(entry["name"] for entry in manifest["workloads"]), sorted(loads.WORKLOADS)
        )


if __name__ == "__main__":
    unittest.main()
