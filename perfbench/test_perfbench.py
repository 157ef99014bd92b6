#!/usr/bin/env python3
"""Tests for the repository benchmark. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds trex_perfbench and the GoogleTest unit tests (percentile helper,
closed-loop driver, task pool, span reduction) into the benchmark's build
directory, runs the unit tests, and checks that the metric names and
units trex_perfbench emits are exactly those BENCHMARK.json declares.
"""

import json
import re
import subprocess
import sys
import unittest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def build_target(target):
    out_dir = run.build_dir()
    if run.build(out_dir) is None:
        raise RuntimeError("cannot build trex_perfbench")
    subprocess.run(["cmake", "--build", str(out_dir), "--target", target,
                    "-j", "4"], check=True, stdout=subprocess.DEVNULL)
    return out_dir / target


class SpecTest(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)

    def test_end_to_end_bounds(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        bounds = [m["bound"] for m in SPEC["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(setup[0]["bound"], max(bounds))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))


class ProgramTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = build_target("trex_perfbench")

    def test_describe_matches_spec(self):
        out = subprocess.run([str(self.binary), "--describe"], check=True,
                             capture_output=True, text=True).stdout
        described = json.loads(out)
        for kind in ("end_to_end", "per_layer"):
            got = {(m["name"], m["unit"]) for m in described[kind]}
            want = {(m["name"], m["unit"]) for m in SPEC[kind]}
            self.assertEqual(got, want, kind)

    def test_bad_arguments_exit_non_zero(self):
        done = subprocess.run([str(self.binary), "--workload", "nope"],
                              capture_output=True, text=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")

    def test_check_result(self):
        metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        good = {"correct": True, "attempted": 10, "failed": 0,
                "metrics": metrics}
        self.assertEqual(run.check_result(good, SPEC, trace=False), [])
        self.assertNotEqual(run.check_result(good, SPEC, trace=True), [])
        missing = dict(good, metrics=dict(list(metrics.items())[1:]))
        self.assertNotEqual(run.check_result(missing, SPEC, False), [])
        extra = dict(good, note="x")
        self.assertNotEqual(run.check_result(extra, SPEC, False), [])


class UnitTests(unittest.TestCase):
    def test_gtest_suite(self):
        binary = build_target("perfbench_tests")
        done = subprocess.run([str(binary)], capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout[-2000:])


if __name__ == "__main__":
    sys.exit(unittest.main())
