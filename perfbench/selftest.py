#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload through ``run.py --size toy`` traced and untraced,
and checks the result line against ``BENCHMARK.json``: its keys, the
metric names and units, all checks passing, whole solves attempted, and
count metrics that repeat exactly between two traced runs.  Also checks
that the tracer puts every original function back, that the independent
values come out as expected, and that the benchmark exits non-zero without
a result when the specflow sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Certified integers per solve of each workload.
OPS_PER_SOLVE = {"family_class": 5, "index_flow": 6, "twisted_loop": 4}


def run(workload, trace, seed=5, cwd=ROOT, bench=HERE):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "toy"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def result(done):
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    return json.loads(done.stdout.splitlines()[-1])


class HarnessTest(unittest.TestCase):
    def check_result(self, res, workload, metrics):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["attempted"] % OPS_PER_SOLVE[workload], 0)
        self.assertEqual({n: m["unit"] for n, m in res["metrics"].items()},
                         {m["name"]: m["unit"] for m in metrics})
        for m in res["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_untraced_runs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                res = result(run(workload, 0))
                self.check_result(res, workload, SPEC["end_to_end"])
                for m in res["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_runs_repeat_counts(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = result(run(workload, 1))
                self.check_result(first, workload, SPEC["per_layer"])
                if workload != "index_flow":
                    continue
                second = result(run(workload, 1))
                for name, m in first["metrics"].items():
                    if m["unit"] == "count":
                        self.assertEqual(m["value"],
                                         second["metrics"][name]["value"],
                                         name)

    def test_missing_sources_fail(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / HERE.name
            bench.mkdir()
            for f in HERE.glob("*.py"):
                shutil.copy(f, bench)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            done = run("twisted_loop", 0, cwd=tmp, bench=bench)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")

    def test_tracer_restores_originals(self):
        sys.path.insert(0, str(ROOT / "src"))
        import numpy
        import specflow.bundles
        import specflow.flow
        import specflow.operators
        import tracing
        before = (specflow.flow.eigh, specflow.bundles.gap_partition,
                  numpy.linalg.eigh, specflow.flow._SpectrumCache.lipschitz)
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(specflow.flow.eigh, before[0])
        self.assertIs(specflow.flow.eigh, specflow.operators.eigh)
        tracer.uninstall()
        self.assertEqual((specflow.flow.eigh, specflow.bundles.gap_partition,
                          numpy.linalg.eigh,
                          specflow.flow._SpectrumCache.lipschitz), before)

    def test_independent_values(self):
        self.assertAlmostEqual(workloads.berry_chern(), 1.0, delta=0.01)
        self.assertEqual(workloads.bott_det_winding(12), {1})


if __name__ == "__main__":
    unittest.main()
