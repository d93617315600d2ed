"""Self-tests of the benchmark's own helpers: the percentile rule, span self
time, the answer checkers, and one run that must fail on a wrong expected
value. Run from the root of the tree:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import unittest
from fractions import Fraction

import checks
import run
import spans
import workloads

F = Fraction


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(spans.tail_percentile(19))
        self.assertEqual(spans.tail_percentile(20), 50.0)
        self.assertEqual(spans.tail_percentile(99), 50.0)
        self.assertEqual(spans.tail_percentile(100), 90.0)
        self.assertEqual(spans.tail_percentile(999), 90.0)
        self.assertEqual(spans.tail_percentile(1000), 99.0)
        self.assertEqual(spans.tail_percentile(10000), 99.9)

    def test_percentile_interpolates(self):
        self.assertEqual(spans.percentile([3, 1, 2], 50), 2)
        self.assertEqual(spans.percentile([0, 10], 90), 9)
        summary = spans.latency_summary([0.001 * i for i in range(1, 101)])
        self.assertEqual(summary["tail_pct"], 90.0)
        self.assertAlmostEqual(summary["p50_ms"], 50.5)


class SpanSelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        tr = spans.Tracer()
        with tr.span("pass"):
            with tr.span("a"):
                pass
            with tr.span("b"):
                with tr.span("b.child"):
                    pass
        self.assertEqual(tr.parents, [-1, 0, 0, 2])
        tr.starts[:] = [0.0, 1.0, 4.0, 5.0]
        tr.ends[:] = [10.0, 3.0, 8.0, 6.0]
        self.assertEqual(tr.self_times(), [4.0, 2.0, 3.0, 1.0])


class FastestPass(unittest.TestCase):
    def test_each_call_takes_its_shortest_time_across_passes(self):
        passes = [
            [{"seconds": 6.0, "calls": [1.0, 5.0]}, {"seconds": 2.0}],
            [{"seconds": 7.0, "calls": [4.0, 3.0]}, {"seconds": 1.0}],
            [{"seconds": 5.0, "calls": [2.0, 3.0]}, {"seconds": 4.0}],
        ]
        self.assertEqual(run.fastest_pass(passes), 1.0 + 3.0 + 1.0)


class Checkers(unittest.TestCase):
    def test_betti_table_passes_and_tampered_profile_fails(self):
        label, p = "chessboard(6,7)", 2
        f = (42, 630, 4200, 12600, 15120, 5040)
        self.assertEqual(checks.check_betti(label, p, f, (0, 0, 0, 0, 1092, 1)), [])
        problems = checks.check_betti(label, p, f, (0, 0, 0, 0, 1093, 1))
        self.assertEqual(len(problems), 2)  # table and Euler identity

    def test_join_of_boards_gives_the_table_entry(self):
        self.assertEqual(checks.EXPECTED_BETTI[("deleted_join(rainbow([3,3,3]),3)", 2)][5], 4 ** 3)
        self.assertEqual(checks.deleted_join_betti([3, 3, 3], 3),
                         checks.EXPECTED_BETTI[("deleted_join(rainbow([3,3,3]),3)", 2)])

    def test_board_connectivity(self):
        self.assertEqual(checks.nu(3, 3), 0)
        self.assertEqual(checks.nu(4, 4), 1)

    # Face (0, 1, 2) holds (2, 2) with weights 1/3 each; face (3,) is (2, 2).
    POINTS = [(0, 0), (6, 0), (0, 6), (2, 2), (9, 9)]
    CLASSES = [[0, 3], [1, 4], [2]]
    FACES = [(0, 1, 2), (3,)]
    WEIGHTS = [[F(1, 3), F(1, 3), F(1, 3)], [F(1)]]

    def test_witness_passes_and_tampered_weight_fails(self):
        ok = checks.check_witness(self.POINTS, self.CLASSES, 2, self.FACES, (F(2), F(2)), self.WEIGHTS)
        self.assertEqual(ok, [])
        bad = [[F(1, 3), F(1, 2), F(1, 3)], [F(1)]]
        self.assertTrue(checks.check_witness(self.POINTS, self.CLASSES, 2, self.FACES, (F(2), F(2)), bad))
        shifted = [[F(2, 3), F(0), F(1, 3)], [F(1)]]
        self.assertTrue(checks.check_witness(self.POINTS, self.CLASSES, 2, self.FACES, (F(2), F(2)), shifted))

    def test_witness_structure_is_checked(self):
        w = [[F(1, 2), F(1, 2)], [F(1)]]
        not_rainbow = checks.check_witness(self.POINTS, self.CLASSES, 2, [(0, 3), (1,)], (F(1), F(1)), w)
        self.assertTrue(any("rainbow" in p for p in not_rainbow))
        overlap = checks.check_witness(self.POINTS, self.CLASSES, 2, [(0, 1, 2), (2,)], (F(2), F(2)),
                                       self.WEIGHTS)
        self.assertTrue(any("meets" in p for p in overlap))
        floats = [[1 / 3, 1 / 3, 1 / 3], [1.0]]
        self.assertTrue(checks.check_witness(self.POINTS, self.CLASSES, 2, self.FACES, (2, 2), floats))

    def test_cli_wrong_exit_code_and_bad_stdout_fail(self):
        report = json.dumps({"input_echo": {}, "result": {"verdict": {"q": 6}}, "timing_seconds": 0.1,
                             "version": "0"})
        self.assertEqual(checks.check_cli("c", 0, report, 0, {"verdict.q": 6})[0], [])
        self.assertTrue(checks.check_cli("c", 1, report, 0, {"verdict.q": 6})[0])
        self.assertTrue(checks.check_cli("c", 0, report, 0, {"verdict.q": 7})[0])
        self.assertTrue(checks.check_cli("c", 0, report + report, 0, {})[0])
        self.assertTrue(checks.check_cli("c", 0, "Traceback ...", 0, {})[0])


class Inputs(unittest.TestCase):
    def test_cross_polytope_is_a_sphere_without_antipodes(self):
        facets = workloads.cross_polytope_facets(3, random.Random(5))
        self.assertEqual(len(facets), 16)
        self.assertEqual(len({tuple(f) for f in facets}), 16)
        self.assertTrue(all(len(set(f)) == 4 for f in facets))

    def test_axis_symmetry_keeps_the_search_tree(self):
        tl = run.import_tverlab()
        bundle = workloads.BUNDLES[0]
        coloring = tl.Coloring(tuple(tuple(b) for b in workloads.class_blocks(bundle.sizes)))
        rng = random.Random(3)
        for pts in workloads.point_pool(bundle, 4):
            moved = workloads.signed_axis_permutation(pts, rng)
            a, b = (tl.find_disjoint_intersecting_family(tl.ColoredConfiguration(2, tuple(x), coloring), 3)
                    for x in (pts, moved))
            self.assertEqual((a.status, a.hull_queries, a.nodes), (b.status, b.hull_queries, b.nodes))


class WrongExpectedValueFailsTheRun(unittest.TestCase):
    def run_profile(self, expected):
        label = ("chessboard(4,4)", 2)
        inst = workloads.Instance(label[0], 2, lambda tl: tl.chessboard(4, 4))
        saved = workloads.ProfileWorkload.instances
        workloads.ProfileWorkload.instances = (inst,)
        checks.EXPECTED_BETTI[label] = expected
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "profile", "--seed", "990001", "--seconds", "0.2"])
        finally:
            workloads.ProfileWorkload.instances = saved
            del checks.EXPECTED_BETTI[label]
        return code, json.loads(out.getvalue().splitlines()[-1])

    def test_wrong_value_fails_and_right_value_passes(self):
        code, result = self.run_profile((0, 0, 14, 0))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        code, result = self.run_profile((0, 0, 15, 0))
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()
