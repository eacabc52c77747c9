#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_bench.py

Runs every workload for one second at the default and the held-out seed,
with tracing off and on, and checks that no plan failed or was rejected by
its oracle (error_rate == 0) and that the printed metric names and units are
exactly the ones BENCHMARK.json declares. Run it from the repository root;
the first run builds the benchmark program.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(os.path.join(ROOT, path)) as f:
        return json.load(f)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s%s" % (
            workload, seed, trace, proc.returncode, proc.stdout[-2000:], proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_spec_matches_benchmark(self):
        bench, spec = load("BENCHMARK.json"), load("perfbench/SPEC.json")
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w["name"] for w in bench["workloads"]])
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [m["name"] for m in bench["per_layer"]])
        self.assertNotEqual(spec["default_seed"], spec["held_out_seed"])

    def test_workloads_are_correct_and_print_declared_metrics(self):
        bench, spec = load("BENCHMARK.json"), load("perfbench/SPEC.json")
        declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
        cases = [(s, 0) for s in (spec["default_seed"], spec["held_out_seed"])]
        cases.append((spec["default_seed"], 1))
        for workload in (w["name"] for w in bench["workloads"]):
            for seed, trace in cases:
                with self.subTest(workload=workload, seed=seed, trace=trace):
                    result = run(workload, seed, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0, "error_rate must be 0")
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared[trace])
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
