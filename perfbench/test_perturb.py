"""End-to-end check that a wrong answer is counted as failed.

Runs short runs with --perturb (one vertex value of every checked result is
changed before it is compared) and expects the result line to report the
failures, with ok_frac moved by more than its 0.01 bound. Skipped until
perfbench/run.py has built hgbench.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench",
                   "hgbench")


@unittest.skipUnless(os.path.isfile(EXE), "hgbench is not built yet")
class PerturbTest(unittest.TestCase):
    def run_bench(self, *extra, workload="sssp-hybrid-web"):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "5", "--seconds", "1", "--trace", "0",
             *extra],
            capture_output=True, text=True, timeout=170, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_perturbed_value_is_counted_as_failed(self):
        clean = self.run_bench()
        self.assertTrue(clean["correct"])
        self.assertEqual(clean["failed"], 0)
        bad = self.run_bench("--perturb")
        self.assertFalse(bad["correct"])
        self.assertGreater(bad["failed"], 0)
        self.assertLess(bad["metrics"]["ok_frac"]["value"], 0.99)

    def test_one_wrong_final_snapshot_moves_ok_frac_past_its_bound(self):
        # On stream-serve only the final snapshot is a checked result.
        bad = self.run_bench("--perturb", workload="stream-serve")
        self.assertFalse(bad["correct"])
        self.assertEqual(bad["failed"], 1)
        self.assertLess(bad["metrics"]["ok_frac"]["value"], 0.99)


if __name__ == "__main__":
    unittest.main()
