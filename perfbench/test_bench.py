#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Run from the root of a checkout; builds perfbench/ first, like run.py.
Takes about three minutes on a 4-core machine.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
LAYERS = ("traffic.generate_ns", "traffic.sparsify_ns", "core.construct_ns",
          "core.step_ns", "core.admission_ns", "core.lifecycle_ns",
          "net.lanes_self_ns", "sim.engine_self_ns", "obs.sink_ns",
          "obs.audit_finish_ns", "state.save_ns", "analysis.output_ns")


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir, cls.exe = run.build()
        cls.tmp = tempfile.mkdtemp(dir=cls.build_dir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def repeat(self, workload, *flags):
        p = subprocess.run([self.exe, "--workload", workload, "--seed", "1",
                            "--tmp", self.tmp, *flags],
                           capture_output=True, text=True, check=True)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def bench(self, workload, seed, *flags):
        p = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                            "--workload", workload, "--seed", str(seed),
                            *flags], capture_output=True, text=True,
                           cwd=run.ROOT)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_planted_bit_drop_fails_conservation(self):
        rec = self.repeat("pareto-32k", "--plant-bit-drop")
        self.assertTrue(any(e.startswith("conservation") for e in
                            rec["errors"]), rec["errors"])
        self.assertEqual(self.repeat("pareto-32k")["errors"], [])
        out = self.bench("pareto-32k", DEFAULT_SEED, "--seconds", "3",
                         "--trace", "0", "--plant-bit-drop")
        self.assertEqual(out["failed"], 1)
        self.assertGreater(out["attempted"], 1)

    def test_layers_sum_to_wall_time(self):
        for workload in run.ROUND:
            with self.subTest(workload=workload):
                rec = self.repeat(workload, "--timed")
                self.assertEqual(rec["errors"], [])
                layers = rec["layers"]
                total = sum(layers[n] for n in LAYERS)
                self.assertEqual(total + layers["unattributed_ns"],
                                 rec["wall_ns"])
                self.assertLessEqual(layers["unattributed_ns"],
                                     0.05 * rec["wall_ns"])

    def test_every_workload_passes_on_both_seeds(self):
        for workload in run.ROUND:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                with self.subTest(workload=workload, seed=seed):
                    out = self.bench(workload, seed, "--seconds", "0",
                                     "--trace", "0")
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)


if __name__ == "__main__":
    unittest.main()
