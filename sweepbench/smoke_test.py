#!/usr/bin/env python3
"""Tiny-budget smoke test of the sweep benchmark command.

Runs run.py on every workload, untraced and traced, with a few thousand
cycles per cell, and checks that:
  - the last stdout line is a result with correct = true and no failed cells;
  - every metric named in BENCHMARK.json prints, with its unit;
  - only headline_cold writes run-store records.

  python3 sweepbench/smoke_test.py      # exit 0 on success
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--cycles", "3000", "--warmup", "1000"],
        capture_output=True, text=True, timeout=900, cwd=REPO)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), proc.stdout


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            before = len(errors)
            result, text = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                errors.append(f"{where}: output checks failed")
            for m in spec[section]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    errors.append(f"{where}: {m['name']} missing or not in {m['unit']}")
                elif f"{m['name']} " not in text:
                    errors.append(f"{where}: {m['name']} not printed")
            if trace == 1:
                written = result["metrics"]["harness.store_records_written"]["value"]
                if (written > 0) != (workload == "headline_cold"):
                    errors.append(f"{where}: {written} store records written")
            print(f"{'ok' if len(errors) == before else 'FAIL'}  {where}",
                  flush=True)
    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
