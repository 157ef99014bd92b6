#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/trex_perfbench.cc).

Run from the root of a checkout:

    python3 perfbench/run.py --workload hotkey_ta --seed 1 --seconds 10 --trace 0

Workloads and metrics are listed in BENCHMARK.json. The script configures
and builds the perfbench CMake package (which compiles ../src) into the
build directory named by CARGO_TARGET_DIR, or .bench_build by default,
then runs trex_perfbench with its index data under <build dir>/data.
The program's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; this script checks it
against BENCHMARK.json and prints it as its own last line. It exits
non-zero, without a result line, if the build or the run fails, and with
the result line but a non-zero code if any answer or self-check failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out_dir):
    """Configures and builds trex_perfbench; returns its path or None."""
    steps = [["cmake", "-S", str(HERE), "-B", str(out_dir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out_dir), "--target", "trex_perfbench",
              "-j", "4"]]
    for cmd in steps:
        # Build chatter goes to stderr so stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return None
    return out_dir / "trex_perfbench"


def check_result(result, spec, trace):
    """Problems with trex_perfbench's result object, as a list of strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    want = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in want]
    if sorted(result["metrics"]) != sorted(names):
        problems.append("metric names differ from BENCHMARK.json")
    for m in want:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append("unit of %s is %r, want %r"
                            % (m["name"], got.get("unit"), m["unit"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("benchmark build failed", file=sys.stderr)
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--data", str(out_dir / "data")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 3
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("trex_perfbench exited %d without a result" % done.returncode,
              file=sys.stderr)
        return 3
    problems = check_result(result, spec, args.trace == 1)
    if problems:
        for p in problems:
            print("bad result: " + p, file=sys.stderr)
        return 3
    print(json.dumps(result))
    sys.stdout.flush()
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
