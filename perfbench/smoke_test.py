#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload in BENCHMARK.json at tiny size for one second,
untraced and traced, and checks that each run is correct and prints
exactly the metrics BENCHMARK.json names, each with its unit:

    python3 perfbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, expected):
    """Return a list of problems with one tiny run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=600)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit code %d\n%s" % (where, proc.returncode,
                                          proc.stderr[-2000:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if not result.get("correct") or result.get("failed") != 0:
        problems.append("%s: incorrect output (%s of %s failed)" % (
            where, result.get("failed"), result.get("attempted")))
    if result.get("attempted", 0) < 1:
        problems.append("%s: nothing attempted" % where)
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        problems.append("%s: metric names differ: missing %s, extra %s" % (
            where, sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            problems.append("%s: %s has unit %r, expected %r" % (
                where, name, got.get("unit"), unit))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s value %r" % (where, name, value))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    groups = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in spec["workloads"]:
        for trace, expected in groups.items():
            problems += check_run(workload["name"], trace, expected)
    for problem in problems:
        print("FAIL " + problem)
    print("smoke test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
