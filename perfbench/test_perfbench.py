#!/usr/bin/env python3
"""Self-test of the benchmark: outputs check out and simulated results repeat.

    python3 perfbench/test_perfbench.py

Builds perfbench (as run.py does) and checks that every workload passes
its output checks and that the model digest over its simulated results is
identical across two runs, between traced and untraced runs, and on
fluid_local at --threads=1 and at the machine's thread count.  A
performance change must keep all of these passing.
"""

import os
import unittest

import run

SEED = 11


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.cache = {}

    def rep(self, workload, seed=SEED, threads=None, trace=0):
        threads = threads or run.default_threads(workload)
        key = (workload, seed, threads, trace)
        if key not in self.cache:
            self.cache[key] = run.run_rep(self.binary, workload, seed,
                                          threads, trace)
        return self.cache[key]

    def test_output_checks_pass(self):
        for workload in run.WORKLOADS:
            rec = self.rep(workload)
            self.assertTrue(run.rep_correct(rec), (workload, rec))
            self.assertGreater(rec["work"], 0, workload)

    def test_digest_repeats_across_runs(self):
        for workload in run.WORKLOADS:
            again = run.run_rep(self.binary, workload, SEED,
                                run.default_threads(workload), 0)
            self.assertEqual(self.rep(workload)["digest"], again["digest"],
                             workload)

    def test_digest_same_traced_and_untraced(self):
        for workload in run.WORKLOADS:
            traced = self.rep(workload, trace=1)
            self.assertEqual(self.rep(workload)["digest"], traced["digest"],
                             workload)
            self.assertIn("bench.unattributed_frac", traced["layers"])

    def test_digest_same_at_any_thread_count(self):
        threads = max(2, min(4, len(os.sched_getaffinity(0))))
        one = self.rep("fluid_local", threads=1)
        many = self.rep("fluid_local", threads=threads)
        self.assertEqual(one["digest"], many["digest"])
        self.assertEqual(one["model"], many["model"])

    def test_seed_changes_the_inputs(self):
        for workload in run.WORKLOADS:
            other = self.rep(workload, seed=SEED + 1)
            self.assertNotEqual(self.rep(workload)["digest"], other["digest"],
                                workload)


if __name__ == "__main__":
    unittest.main()
