#!/usr/bin/env python3
"""Unit tests for tools/check_bench_regression.py.

The gate runs unattended in CI, so every malformed input must come back as
a contextual FAIL (exit 1 with an explanation), never a traceback — a
crashing gate reads as infrastructure flake and gets retried instead of
investigated. Run directly or via ctest (registered as
test_check_bench_regression):

    python3 tools/test_check_bench_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_regression.py")


def bench_file(benchmarks):
    """A minimal Google Benchmark JSON document."""
    return {"context": {"executable": "./bench_solver"},
            "benchmarks": benchmarks}


def entry(name, **counters):
    e = {"name": name, "run_type": "iteration", "iterations": 1,
         "real_time": 1.0, "cpu_time": 1.0, "time_unit": "ms"}
    e.update(counters)
    return e


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def path(self, leaf, payload):
        p = os.path.join(self.dir.name, leaf)
        with open(p, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return p

    def run_checker(self, baseline, new, *extra):
        proc = subprocess.run(
            [sys.executable, CHECKER, baseline, new, *extra],
            capture_output=True, text=True)
        return proc

    def assert_fails_cleanly(self, proc, *fragments):
        """Exit 1, a FAIL line mentioning every fragment, and no traceback."""
        self.assertEqual(proc.returncode, 1,
                         f"stdout={proc.stdout!r} stderr={proc.stderr!r}")
        self.assertNotIn("Traceback", proc.stderr)
        self.assertNotIn("Traceback", proc.stdout)
        self.assertIn("FAIL", proc.stdout)
        for fragment in fragments:
            self.assertIn(fragment, proc.stdout)

    # ----- happy paths -----------------------------------------------------

    def test_identical_counters_pass(self):
        doc = bench_file([entry("BM_X/0", lp_iterations=100, objective=5.0)])
        proc = self.run_checker(self.path("base.json", doc),
                                self.path("new.json", doc))
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("OK", proc.stdout)

    def test_improvement_is_a_note_not_a_failure(self):
        base = bench_file([entry("BM_X/0", lp_iterations=1000)])
        new = bench_file([entry("BM_X/0", lp_iterations=100)])
        proc = self.run_checker(self.path("base.json", base),
                                self.path("new.json", new))
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("improvement", proc.stdout)

    # ----- genuine regressions ---------------------------------------------

    def test_work_counter_regression_fails(self):
        base = bench_file([entry("BM_X/0", lp_iterations=100)])
        new = bench_file([entry("BM_X/0", lp_iterations=200)])
        proc = self.run_checker(self.path("base.json", base),
                                self.path("new.json", new))
        self.assert_fails_cleanly(proc, "BM_X/0", "lp_iterations",
                                  "REGRESSION")

    def test_maintenance_canary_drift_fails_both_ways(self):
        # groups_reused is a determinism canary: reuse INCREASING without a
        # conscious baseline refresh is as suspect as it decreasing.
        for drifted in (0, 9):
            base = bench_file([entry("BM_Incr/1", groups_reused=4)])
            new = bench_file([entry("BM_Incr/1", groups_reused=drifted)])
            proc = self.run_checker(self.path("base.json", base),
                                    self.path("new.json", new))
            self.assert_fails_cleanly(proc, "BM_Incr/1", "groups_reused",
                                      "canary")

    def test_reduced_cost_canary_drift_fails_both_ways(self):
        # Fewer tightenings is no improvement to wave through: like the
        # presolve counters, any drift means the search changed.
        for drifted in (300, 700):
            base = bench_file([entry("BM_MilpNodePresolve",
                                     reduced_cost_tightenings=500)])
            new = bench_file([entry("BM_MilpNodePresolve",
                                    reduced_cost_tightenings=drifted)])
            proc = self.run_checker(self.path("base.json", base),
                                    self.path("new.json", new))
            self.assert_fails_cleanly(proc, "BM_MilpNodePresolve",
                                      "reduced_cost_tightenings", "canary")

    def test_objective_drift_fails(self):
        base = bench_file([entry("BM_X/0", objective=100.0)])
        new = bench_file([entry("BM_X/0", objective=100.1)])
        proc = self.run_checker(self.path("base.json", base),
                                self.path("new.json", new))
        self.assert_fails_cleanly(proc, "BM_X/0", "different optimum")

    def test_empty_overlap_fails(self):
        base = bench_file([entry("BM_Old/0", lp_iterations=1)])
        new = bench_file([entry("BM_New/0", lp_iterations=1)])
        proc = self.run_checker(self.path("base.json", base),
                                self.path("new.json", new))
        self.assert_fails_cleanly(proc, "compared", "nothing")

    # ----- --exact: a change that must not move the search ------------------

    def test_exact_fails_on_a_one_count_drop_the_default_gate_passes(self):
        base = bench_file([entry("BM_X/0", lp_iterations=100)])
        new = bench_file([entry("BM_X/0", lp_iterations=99)])
        base_path = self.path("base.json", base)
        new_path = self.path("new.json", new)
        proc = self.run_checker(base_path, new_path)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        proc = self.run_checker(base_path, new_path, "--exact")
        self.assert_fails_cleanly(proc, "BM_X/0", "lp_iterations", "--exact")

    def test_exact_fails_on_a_canary_rise_and_an_objective_change(self):
        base = bench_file([entry("BM_X/0", presolve_fixed_bounds=100,
                                 objective=50.0),
                           entry("BM_Y/0", objective=7.0)])
        new = bench_file([entry("BM_X/0", presolve_fixed_bounds=101,
                                objective=50.0),
                          entry("BM_Y/0", objective=7.0 + 1e-12)])
        base_path = self.path("base.json", base)
        new_path = self.path("new.json", new)
        self.assertEqual(self.run_checker(base_path, new_path).returncode, 0)
        proc = self.run_checker(base_path, new_path, "--exact")
        self.assert_fails_cleanly(proc, "BM_X/0", "presolve_fixed_bounds",
                                  "BM_Y/0", "objective")

    def test_exact_passes_equal_counters(self):
        doc = bench_file([entry("BM_X/0", lp_iterations=100, bnb_nodes=7,
                                objective=5.0)])
        proc = self.run_checker(self.path("base.json", doc),
                                self.path("new.json", doc), "--exact")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("equal", proc.stdout)

    # ----- malformed inputs: contextual failures, never tracebacks ---------

    def test_counter_in_baseline_missing_from_new_run_fails_with_context(self):
        # The baseline names a counter the fresh run no longer exports — the
        # gate must report lost coverage (with benchmark and counter named),
        # not crash or silently shrink.
        base = bench_file([entry("BM_X/0", lp_iterations=100)])
        new = bench_file([entry("BM_X/0")])
        proc = self.run_checker(self.path("base.json", base),
                                self.path("new.json", new))
        self.assert_fails_cleanly(proc, "BM_X/0", "lp_iterations",
                                  "coverage lost")

    def test_nameless_benchmark_entry_fails_with_context(self):
        nameless = {"run_type": "iteration", "lp_iterations": 5}
        base = bench_file([entry("BM_X/0", lp_iterations=5), nameless])
        new = bench_file([entry("BM_X/0", lp_iterations=5)])
        proc = self.run_checker(self.path("base.json", base),
                                self.path("new.json", new))
        self.assert_fails_cleanly(proc, "base.json", "no 'name'")

    def test_missing_file_fails_with_context(self):
        doc = bench_file([entry("BM_X/0", lp_iterations=5)])
        proc = self.run_checker(os.path.join(self.dir.name, "absent.json"),
                                self.path("new.json", doc))
        self.assert_fails_cleanly(proc, "absent.json", "cannot read")

    def test_malformed_json_fails_with_context(self):
        doc = bench_file([entry("BM_X/0", lp_iterations=5)])
        proc = self.run_checker(self.path("base.json", doc),
                                self.path("new.json", "{truncated"))
        self.assert_fails_cleanly(proc, "new.json", "malformed")

    def test_wrong_shape_fails_with_context(self):
        doc = bench_file([entry("BM_X/0", lp_iterations=5)])
        proc = self.run_checker(self.path("base.json", doc),
                                self.path("new.json", [1, 2, 3]))
        self.assert_fails_cleanly(proc, "new.json",
                                  "not a Google Benchmark JSON")

    def test_non_numeric_counter_fails_with_context(self):
        base = bench_file([entry("BM_X/0", lp_iterations=100)])
        new = bench_file([entry("BM_X/0", lp_iterations="lots")])
        proc = self.run_checker(self.path("base.json", base),
                                self.path("new.json", new))
        self.assert_fails_cleanly(proc, "BM_X/0", "lp_iterations",
                                  "not numeric")

    def test_non_numeric_objective_fails_with_context(self):
        base = bench_file([entry("BM_X/0", objective=1.0)])
        new = bench_file([entry("BM_X/0", objective=None)])
        proc = self.run_checker(self.path("base.json", base),
                                self.path("new.json", new))
        self.assert_fails_cleanly(proc, "BM_X/0", "objective", "not numeric")


if __name__ == "__main__":
    unittest.main()
