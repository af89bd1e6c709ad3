#!/usr/bin/env python3
"""Smoke test for the time-to-train benchmark.

Runs the end-to-end path (--trace 0) and the traced path (--trace 1) of every
workload in BENCHMARK.json at WorkloadScale::kSmoke, and checks that each run
succeeds and prints every metric BENCHMARK.json names for that path, both as
a `name = value unit` line and in the JSON result line, with its unit and a
finite value.

    python3 ttt_bench/smoke_test.py

Also registered as the `ttt_bench_smoke` test of the benchmark's CMake build
(`ctest --test-dir .bench_build/ttt_bench`).
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, expected_metrics):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", trace, "--scale", "smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted = {result.get('attempted')!r}")
    if result.get("failed") != 0:
        errors.append(f"failed = {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    names = {m["name"] for m in expected_metrics}
    if set(metrics) != names:
        errors.append(f"missing {sorted(names - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - names)}")
    for m in expected_metrics:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']}: value {value!r} is not a finite number")
        pattern = re.compile(rf"^{re.escape(m['name'])} = (\S+) {re.escape(m['unit'])}$")
        printed = [p for p in lines[:-1] if pattern.match(p)]
        if len(printed) != 1 or not math.isfinite(float(pattern.match(printed[0]).group(1))):
            errors.append(f"{m['name']}: no single `name = value {m['unit']}` line")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in bench["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            errors = check_run(workload["name"], trace, bench[key])
            status = "ok" if not errors else "FAIL"
            print(f"{workload['name']} --trace {trace}: {status}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
