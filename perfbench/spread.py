#!/usr/bin/env python3
"""Measures how steady the benchmark is on this box.

    python3 perfbench/spread.py --workload cold_sweep --seeds 1-10

Runs perfbench/run.py once per seed, one run at a time, with the
run_seconds of BENCHMARK.json (or --seconds), and prints for each
end-to-end metric its median and its spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. A metric's bound in BENCHMARK.json must sit above its spread.
Each run's result line is kept in .bench_build/perfbench/spread-*.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    runs = []
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: failed {result['failed']} {values}", flush=True)

    print(f"\n{args.workload}: {len(runs)} runs of {args.seconds} s")
    print(f"{'metric':16} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        print(f"{m['name']:16} {med:12.4f} {spread:8.3f} {m['bound']:6.2f}")
    path = os.path.join(ROOT, ".bench_build", "perfbench",
                        f"spread-{args.workload}.json")
    with open(path, "w") as f:
        json.dump(runs, f)


if __name__ == "__main__":
    main()
