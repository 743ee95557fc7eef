#!/usr/bin/env python3
"""Sweep benchmark of the clustered-SMT simulator.

Runs one named workload through harness::run_sweep, each repetition in a
fresh process (cold RunCache and TapeRegistry), for about --seconds seconds,
checks the outputs, and prints one JSON result line last:

  python3 sweepbench/run.py --workload headline_cold --seed 1 --seconds 40 --trace 0

--trace 0 reports the end-to-end metrics (medians over the repetitions);
--trace 1 pairs each untraced sweep with a traced re-drive of the same
cells and reports the per-layer metrics. The first run configures and
builds the driver under .bench_build/sweepbench. See README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO, ".bench_build", "sweepbench")
BINARY = os.path.join(BUILD_DIR, "sweep_bench")

WORKLOADS = ("headline_cold", "ilp_dense", "mem_quiescent")
SETUP_SAMPLES = 15      # set-up-only processes per --trace 0 run
CHILD_TIMEOUT_S = 160   # one driver process; a run must end within 180 s
RUN_LIMIT_S = 170       # never start a repetition that could pass this

END_TO_END = {
    "sweep_wall_s": "s",
    "cpu_s": "s",
    "kcycles_per_s": "kcycles/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cells_ok_pct": "%",
}

PER_LAYER = {
    "core.construct_ms_p50": "ms",
    "core.warmup_ms_p50": "ms",
    "core.measure_ms_p50": "ms",
    "core.measure_ms_p90": "ms",
    "core.ns_per_cycle": "ns",
    "core.ns_per_committed_uop": "ns",
    "core.committed_uops": "count",
    "core.renamed_uops": "count",
    "core.rename_blocked_cycles": "cycles",
    "core.cycles_skipped": "cycles",
    "core.skip_episodes": "count",
    "core.skip_fraction": "ratio",
    "core.events_coalesced": "count",
    "trace.suite_build_ms": "ms",
    "trace.attach_ms_p50": "ms",
    "trace.tape_recordings": "count",
    "trace.tape_hits": "count",
    "harness.cells_simulated": "count",
    "harness.cache_hits": "count",
    "harness.baselines_simulated": "count",
    "harness.cache_wait_s": "s",
    "harness.pool_wait_s": "s",
    "harness.tail_idle_s": "s",
    "harness.store_save_ms_p50": "ms",
    "harness.store_save_ms_p90": "ms",
    "harness.store_records_written": "count",
    "harness.store_bytes_written": "bytes",
    "frontend.fetched_uops": "count",
    "frontend.wrong_path_uops": "count",
    "frontend.useful_fetch_ratio": "ratio",
    "frontend.bp_lookups": "count",
    "policy.iq_pref_stall_events": "count",
    "policy.flushes": "count",
    "steer.non_preferred_dispatches": "count",
    "steer.copies_created": "count",
    "backend.issued_uops": "count",
    "backend.useful_issue_ratio": "ratio",
    "backend.squashed_uops": "count",
    "backend.link_transfers": "count",
    "backend.link_denied": "count",
    "memory.l1_accesses": "count",
    "memory.l1_hit_rate": "ratio",
    "memory.l2_misses": "count",
    "memory.dtlb_misses": "count",
    "memory.mob_waits": "count",
    "memory.mob_forwards": "count",
    "bench.tracing_overhead_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise RuntimeError(f"simulator sources not found under {REPO}/src")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(jobs()),
                    "--target", "sweep_bench"],
                   stdout=sys.stderr, check=True, timeout=840)


def jobs():
    return len(os.sched_getaffinity(0))


def child_env():
    # CLUSMT_* variables (fault schedules, tape budget, job caps) would
    # change what is measured; the benchmark runs the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("CLUSMT_")}


def run_child(args):
    """Runs the driver once and returns (its JSON line, spawn time)."""
    spawned = time.monotonic()
    proc = subprocess.run([BINARY, *args], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, env=child_env())
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"sweep_bench {' '.join(args)} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


class Bench:
    def __init__(self, opts):
        self.opts = opts
        self.work = os.path.join(BUILD_DIR, f"work-{os.getpid()}")
        self.spans = os.path.join(BUILD_DIR, "spans",
                                  f"{opts.workload}-seed{opts.seed}.jsonl")
        self.serial = 0

    def args(self, mode):
        a = ["--mode", mode, "--workload", self.opts.workload,
             "--seed", str(self.opts.seed), "--jobs", str(jobs())]
        if self.opts.cycles is not None:
            a += ["--cycles", str(self.opts.cycles)]
        if self.opts.warmup is not None:
            a += ["--warmup", str(self.opts.warmup)]
        # A fresh, empty store per process: every sweep starts cold.
        self.serial += 1
        return a + ["--store-dir", os.path.join(self.work, f"store{self.serial}")]

    def setup_sample(self):
        out, spawned = run_child(self.args("setup"))
        return out["handoff_monotonic"] - spawned

    def sweep(self):
        out, spawned = run_child(self.args("sweep"))
        out["setup_s"] = out["handoff_monotonic"] - spawned
        out["kcycles_per_s"] = out["simulated_cycles"] / 1e3 / out["sweep_wall_s"]
        return out

    def traced(self, untraced):
        os.makedirs(os.path.dirname(self.spans), exist_ok=True)
        out, _ = run_child(self.args("traced") + ["--spans", self.spans])
        out["bench.tracing_overhead_pct"] = (
            100.0 * (out["traced_wall_s"] / untraced["sweep_wall_s"] - 1.0))
        # Fidelity: every traced cell's SimStats equals the untraced run's.
        ref, got = untraced["cells"], out["cells"]
        out["mismatched"] = sum(1 for k in set(ref) | set(got)
                                if ref.get(k) != got.get(k))
        return out

    def run(self):
        opts = self.opts
        os.makedirs(self.work, exist_ok=True)
        start = time.monotonic()
        setup = []
        if opts.trace == 0:
            setup = [self.setup_sample() for _ in range(SETUP_SAMPLES)]
        reps = []
        while True:
            t0 = time.monotonic()
            sweep = self.sweep()
            rep = {"sweep": sweep}
            if opts.trace == 1:
                rep["traced"] = self.traced(sweep)
            shutil.rmtree(self.work, ignore_errors=True)
            reps.append(rep)
            took = time.monotonic() - t0
            elapsed = time.monotonic() - start
            if elapsed + took > min(opts.seconds, RUN_LIMIT_S):
                break
        return setup, reps

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def report(opts, setup, reps):
    sweeps = [r["sweep"] for r in reps]
    traced = [r["traced"] for r in reps if "traced" in r]
    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    problems = [f for s in sweeps for f in s["failures"]]
    digests = sorted({s["digest"] for s in sweeps})
    if len(digests) != 1:
        problems.append(f"modelled output differs between repetitions: {digests}")
    for t in traced:
        if t["mismatched"]:
            failed += t["mismatched"]
            problems.append(f"{t['mismatched']} traced cells differ from run_sweep")
    failed = min(failed, attempted)

    if opts.trace == 0:
        values = {
            "sweep_wall_s": median_of(sweeps, "sweep_wall_s"),
            "cpu_s": median_of(sweeps, "cpu_s"),
            "kcycles_per_s": median_of(sweeps, "kcycles_per_s"),
            "peak_rss_mb": median_of(sweeps, "peak_rss_mb"),
            "setup_s": statistics.median(setup + [s["setup_s"] for s in sweeps]),
            "cells_ok_pct": 100.0 * (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        values = {name: median_of(traced, name) for name in PER_LAYER}
        units = PER_LAYER

    print(f"sweepbench: {opts.workload}, seed {opts.seed}, {len(reps)} "
          f"repetition(s) of {sweeps[0]['attempted']} cells, "
          f"{sweeps[0]['cells_simulated']:.0f} simulated")
    print(f"modelled-output digest {digests[0]} (information only, not a "
          f"metric; the model is unvalidated: the repo holds no reference "
          f"hardware results)")
    model = sweeps[0].get("model")
    if model:
        print("unvalidated model output, mean ratio vs Icount: " + ", ".join(
            f"{k.replace('_vs_Icount', '')} {100.0 * (v - 1.0):+.2f}%"
            for k, v in sorted(model.items())))
    for name, value in values.items():
        print(f"  {name:34s} {value:16.6g} {units[name]}")
    for p in problems[:8]:
        print(f"check failed: {p}")

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1,
                    help="workload master seed (default 1)")
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cycles", type=int, help="measured cycles per cell "
                    "(default: 200000, 100000 on ilp_dense, 50000 on "
                    "mem_quiescent)")
    ap.add_argument("--warmup", type=int, help="warmup cycles per cell "
                    "(default: 80000, 40000 on ilp_dense, 20000 on "
                    "mem_quiescent)")
    opts = ap.parse_args()
    try:
        build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"sweepbench: build failed: {e}")
        return 2
    bench = Bench(opts)
    try:
        setup, reps = bench.run()
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log(f"sweepbench: {e}")
        return 2
    finally:
        bench.cleanup()
    return 0 if report(opts, setup, reps) else 1


if __name__ == "__main__":
    sys.exit(main())
