"""Self-tests of the benchmark harness (not of beliefsel).

    python3 benchmarks/selftest.py

Kept out of the package's test suite on purpose: they check the
benchmark's own machinery, and the generator test builds the full
tall-search input twice.
"""

from __future__ import annotations

import json
import os
import re
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from spans import LAYER_METRICS, WRAPPED, Span, Tracer, self_times  # noqa: E402
from worker import REFERENCE, OutputCheck  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fake_result(selected, weights):
    return types.SimpleNamespace(selected_features=lambda: list(selected),
                                 weights=types.SimpleNamespace(values=weights))


class Generators(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name, w in WORKLOADS.items():
            with self.subTest(name):
                a, b, c = w.make(3).digest, w.make(3).digest, w.make(4).digest
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_no_config_asks_for_more_partitions_than_cores(self):
        for name, w in WORKLOADS.items():
            with self.subTest(name):
                self.assertLessEqual(w.config(0).partitions, os.cpu_count())


class SelfTime(unittest.TestCase):
    def test_children_and_overlaps_are_subtracted_once(self):
        # root 0..10 has children 1..3 and 2..5 (overlapping: 1..5 covered)
        # and 7..9 with a grandchild 7.5..8; a stray child sticks out past
        # the root's end and only its inside part counts.
        spans = [Span(0, "root", None, 1, 0.0, 0.0, end=10.0),
                 Span(1, "a", 0, 1, 1.0, 0.0, end=3.0),
                 Span(2, "b", 0, 1, 2.0, 0.0, end=5.0),
                 Span(3, "c", 0, 1, 7.0, 0.0, end=9.0),
                 Span(4, "d", 3, 1, 7.5, 0.0, end=8.0),
                 Span(5, "e", 0, 1, 9.5, 0.0, end=11.0)]
        st = self_times(spans)
        self.assertAlmostEqual(st[0], 10.0 - 4.0 - 2.0 - 0.5)
        self.assertAlmostEqual(st[1], 2.0)
        self.assertAlmostEqual(st[2], 3.0)
        self.assertAlmostEqual(st[3], 1.5)
        self.assertAlmostEqual(st[4], 0.5)
        self.assertAlmostEqual(st[5], 1.5)

    def test_self_times_of_a_proper_tree_sum_to_the_root(self):
        spans = [Span(0, "root", None, 1, 0.0, 0.0, end=6.0),
                 Span(1, "a", 0, 1, 0.5, 0.0, end=2.5),
                 Span(2, "b", 1, 1, 1.0, 0.0, end=2.0),
                 Span(3, "c", 0, 1, 3.0, 0.0, end=5.75)]
        self.assertAlmostEqual(sum(self_times(spans).values()), 6.0)

    def test_tracer_nests_and_survives_a_missing_name(self):
        mod = types.SimpleNamespace(sfs=lambda x: x + 1)
        tr = Tracer()
        with tr.patched(mod) as absent:
            with tr.span("select"):
                self.assertEqual(mod.sfs(1), 2)
        self.assertEqual(absent, sorted(set(WRAPPED) - {"sfs"}))
        self.assertEqual([(s.name, s.parent) for s in tr.spans],
                         [("select", None), ("sfs", 0)])
        self.assertEqual(mod.sfs(1), 2)
        self.assertFalse(hasattr(mod, "neighborhood"))


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for name in list(END_TO_END) + list(LAYER_METRICS) + list(WORKLOADS):
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(LAYER_METRICS))
        # sparse-text is defined but not gated (see README.md).
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))


class Check(unittest.TestCase):
    def setUp(self):
        import numpy as np
        self.np = np
        ref = json.loads(REFERENCE.read_text())["wide-collide"]["0"]
        self.sel, self.w = ref["selected"], np.asarray(ref["weights"])
        self.check = OutputCheck("wide-collide", 0, len(self.sel))

    def test_reference_itself_passes(self):
        self.assertIsNone(self.check(fake_result(self.sel, self.w.copy())))
        self.assertIsNone(self.check(fake_result(self.sel, self.w * (1 + 1e-12))))

    def test_perturbed_selection_is_rejected(self):
        swapped = self.sel[1:2] + self.sel[:1] + self.sel[2:]
        self.assertIsNotNone(self.check(fake_result(swapped, self.w)))
        other = self.sel[:-1] + [max(self.sel) + 1]
        self.assertIsNotNone(self.check(fake_result(other, self.w)))
        self.assertIsNotNone(self.check(fake_result(self.sel[:-1], self.w)))

    def test_perturbed_weights_are_rejected(self):
        w = self.w.copy()
        w[7] += 1e-6 * self.np.abs(w).max()
        self.assertIsNotNone(self.check(fake_result(self.sel, w)))
        w[7] = self.np.nan
        self.assertIsNotNone(self.check(fake_result(self.sel, w)))

    def test_unrecorded_seed_checks_against_the_first_call(self):
        check = OutputCheck("wide-collide", 987654, len(self.sel))
        self.assertFalse(check.recorded)
        self.assertIsNone(check(fake_result(self.sel, self.w)))
        self.assertIsNone(check(fake_result(self.sel, self.w)))
        self.assertIsNotNone(check(fake_result(self.sel[::-1], self.w)))


if __name__ == "__main__":
    unittest.main()
