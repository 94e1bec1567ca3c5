#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs every workload that BENCHMARK.json lists in two sets of N runs of
run_seconds each, each run with its own seed, and prints, for each end-to-end metric and workload, the spread of each
set (distance between the first and third quartile as a share of the
median) beside the metric's bound, and how far the second set's median
moved from the first's in the worse direction. With --traced K it also
makes K traced runs per workload and checks that the counts the
benchmark reports as deterministic repeat exactly.

    python3 benchmark/steady.py --runs 10 --traced 2

Run from the repository root. Exits non-zero when a spread exceeds a
third of its bound (setup_s excepted: its spread is not bounded), a
median drifts by more than its bound, a deterministic count varies, or
a run fails or reports wrong outputs. Raw results are written to
.bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETS = 2
SEED_BASE = 1
# Counts that must repeat exactly on every workload.
DETERMINISTIC_E2E = ["wire_mib_per_iter"]
DETERMINISTIC_LAYER = ["compress.ratio", "core.tasks", "runtime.messages_per_iter",
                       "fabric.frames_per_iter"]


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    # All runs share one build directory, which .gitignore lists.
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False, env=env)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "elapsed_s": elapsed, "result": result,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:]}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    runs = []
    problems = []
    for s in range(SETS):
        for i in range(opts.runs):
            for w in workloads:
                seed = SEED_BASE + 1000 * s + i
                r = run_once(command, w, seed, seconds, 0)
                r["set"] = s
                runs.append(r)
                res = r["result"]
                ok = r["exit"] == 0 and res is not None and res["correct"]
                print(f"set {s} run {i} {w} seed {seed}: exit {r['exit']} "
                      f"{r['elapsed_s']:.1f}s "
                      + ("attempted %d failed %d" % (res["attempted"], res["failed"])
                         if res else "no result"), flush=True)
                if not ok:
                    problems.append(f"{w} seed {seed}: exit {r['exit']}, "
                                    f"stderr {r['stderr_tail']}")
    traced = []
    for i in range(opts.traced):
        for w in workloads:
            seed = SEED_BASE + 5000 + i
            r = run_once(command, w, seed, seconds, 1)
            traced.append(r)
            print(f"traced run {i} {w} seed {seed}: exit {r['exit']} "
                  f"{r['elapsed_s']:.1f}s", flush=True)
            if r["exit"] != 0 or r["result"] is None:
                problems.append(f"traced {w} seed {seed}: exit {r['exit']}")

    print()
    print(f"{'workload':<18} {'metric':<18} {'bound':>6} "
          + " ".join(f"{'median' + str(s):>12} {'spread' + str(s):>8}"
                     for s in range(SETS))
          + f" {'drift':>8}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = []
            for s in range(SETS):
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["workload"] == w and r["set"] == s and r["result"]
                        and name in r["result"]["metrics"]]
                per_set.append(vals)
            if any(not v for v in per_set):
                problems.append(f"{w} {name}: missing from some runs")
                continue
            cells = []
            for vals in per_set:
                sp = spread(vals)
                flag = ""
                if name != "setup_s" and sp > bound / 3:
                    flag = "!"
                    problems.append(f"{w} {name}: spread {sp:.4f} above a third "
                                    f"of its bound {bound}")
                cells.append(f"{statistics.median(vals):>12.6g} {sp:>7.4f}{flag or ' '}")
            d = worse_by(statistics.median(per_set[0]),
                         statistics.median(per_set[1]), m["better"])
            flag = "!" if d > bound else " "
            if d > bound:
                problems.append(f"{w} {name}: second median worse by {d:.4f} "
                                f"> bound {bound}")
            print(f"{w:<18} {name:<18} {bound:>6} " + " ".join(cells) + f" {d:>7.4f}{flag}")
            if name in DETERMINISTIC_E2E:
                distinct = {v for vals in per_set for v in vals}
                if len(distinct) != 1:
                    problems.append(f"{w} {name}: deterministic count varies: "
                                    f"{sorted(distinct)}")

    for w in workloads:
        for name in DETERMINISTIC_LAYER:
            vals = {r["result"]["metrics"][name]["value"] for r in traced
                    if r["workload"] == w and r["result"]}
            if len(vals) > 1:
                problems.append(f"{w} {name}: deterministic count varies: {sorted(vals)}")
            elif vals:
                print(f"{w:<18} {name:<28} repeats exactly: {vals.pop()}")

    for w in workloads:
        done = [r["result"] for r in runs + traced if r["workload"] == w and r["result"]]
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done)
        print(f"{w:<18} failed jobs: {failed} of {attempted}")

    os.makedirs(".bench_out", exist_ok=True)
    out = os.path.join(".bench_out", f"steady-{int(time.time())}.json")
    with open(out, "w") as f:
        json.dump({"seconds": seconds, "runs": runs, "traced": traced}, f, indent=1)
    print(f"\nraw results: {out}")
    if problems:
        print("\nNOT STEADY:")
        for p in problems:
            print("  " + p)
        return 1
    print("\nsteady: every spread within a third of its bound, every drift within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
