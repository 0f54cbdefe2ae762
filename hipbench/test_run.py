#!/usr/bin/env python3
"""Smoke tests of the benchmark's own code.

    python3 hipbench/test_run.py

Runs every workload with short simulated windows, untraced and traced,
and checks that each metric named in BENCHMARK.json is printed with its
unit. Then records the smoke world hashes and shows that a deliberately
wrong recorded hash trips the correctness gate.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def bench_in_process(workload, *extra):
    """run.main() in this process, so a test can point run.GOLDEN at its
    own file."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", "0", "--smoke",
                             *extra])
    finally:
        os.chdir(cwd)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_every_metric_printed_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[section]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, res = bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in res["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))

    def test_wrong_recorded_hash_trips_gate(self):
        tmp = os.path.join(run.build_dir(), "test")
        os.makedirs(tmp, exist_ok=True)
        golden = os.path.join(tmp, "golden.json")
        if os.path.exists(golden):
            os.remove(golden)
        saved = run.GOLDEN
        run.GOLDEN = golden
        try:
            code, res = bench_in_process("rubis_hip_c50", "--record-golden")
            self.assertEqual(code, 0)

            code, res = bench_in_process("rubis_hip_c50")
            self.assertEqual(code, 0)
            self.assertTrue(res["correct"])

            with open(golden) as f:
                data = json.load(f)
            world = data["rubis_hip_c50/smoke"]["worlds"]["hip/c50"]
            world["hash"] = "0x%016x" % (int(world["hash"], 16) ^ 1)
            with open(golden, "w") as f:
                json.dump(data, f)
            code, res = bench_in_process("rubis_hip_c50")
        finally:
            run.GOLDEN = saved
        self.assertNotEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])
        self.assertEqual(res["metrics"]["success_rate"]["value"], 0.0)

if __name__ == "__main__":
    unittest.main()
