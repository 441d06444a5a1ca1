#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Runs every workload of BENCHMARK.json at tiny size (a few dozen users,
two measured seconds), untraced and traced, and asserts that:
  - the run exits 0 and its correctness checks pass;
  - the last line is the result object with exactly the keys correct,
    attempted, failed and metrics, and no operation failed;
  - every metric BENCHMARK.json names for that mode is emitted, finite,
    and carries its declared unit, and no other metric is.

    python3 e2ebench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = result.stdout.strip().splitlines()
    return result.returncode, lines, result.stderr


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s --trace %d" % (workload, trace)
            code, lines, stderr = run(workload, trace)
            problems = []
            if code != 0 or not lines:
                problems.append("exit %d: %s" % (code, stderr.strip().splitlines()[-1:]))
            else:
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("result keys %s" % sorted(result))
                if not result.get("correct"):
                    problems.extend(l for l in lines if l.startswith("check FAIL"))
                if result.get("attempted", 0) < 1 or result.get("failed") != 0:
                    problems.append("attempted %s failed %s" %
                                    (result.get("attempted"), result.get("failed")))
                metrics = result.get("metrics", {})
                units = {m["name"]: m["unit"] for m in declared}
                if set(metrics) != set(units):
                    problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s" %
                                    (sorted(set(units) - set(metrics)),
                                     sorted(set(metrics) - set(units))))
                for name, unit in units.items():
                    metric = metrics.get(name, {})
                    value = metric.get("value")
                    if not isinstance(value, (int, float)) or not math.isfinite(value):
                        problems.append("%s is not a finite number: %r" % (name, value))
                    if metric.get("unit") != unit:
                        problems.append("%s unit %r, declared %r" % (name, metric.get("unit"), unit))
            print("%-32s %s" % (label, "ok" if not problems else "FAILED"), flush=True)
            for problem in problems:
                print("    " + problem)
            failures.extend(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
