#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/tests/smoke_test.py

A tiny run of every workload, untraced and traced, must print exactly
the metrics BENCHMARK.json names, each with its unit, with no failed
operation and fail_ratio 0. The traced runs must also show what each
workload is for: no cache hits on cold_sweep and Phase I as most of its
op, only hits on warm_dse with Phase II most of its op, and serve_mix
exercising lint and replay without a replay mismatch. Last, run.py in a
directory holding only BENCHMARK.json and perfbench/ must fail without
printing a result. Exits 1 on any failure.
"""
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# Per-layer metrics timing calls made inside one op (the probes'
# sim.compile/sim.run/foray.extract run outside it).
OP_LAYERS = [
    "minic.frontend_ms", "instrument.annotate_ms", "foray.profile_ms",
    "foray.model_ms", "spm.candidates_ms", "spm.dp_ms", "spm.greedy_ms",
    "spm.energy_ms", "spm.cache_sim_ms", "spm.replay_ms",
    "staticforay.lint_ms", "driver.cache_lookup_ms", "driver.self_ms",
]


def run(cwd, workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    return out.returncode, out.stdout


def check_result(workload, trace, stdout, bench, failures):
    where = f"{workload} --trace {trace}"
    result = json.loads(stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{where}: result keys {sorted(result)}")
    if result["attempted"] < 1 or result["failed"] != 0 or \
            result["correct"] is not True:
        failures.append(f"{where}: {result['failed']} of "
                        f"{result['attempted']} ops failed")
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        failures.append(f"{where}: metrics/units differ from BENCHMARK.json")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{where}: {name} = {value!r}")
    return values


def check_layers(workload, m, failures):
    def expect(cond, what):
        if not cond:
            failures.append(f"{workload} --trace 1: {what}")

    expect(m["fail_ratio"] == 0, "fail_ratio is not 0")
    expect(m["spm.replay_mismatches"] == 0, "replay mismatches")
    op_ms = sum(m[k] for k in OP_LAYERS)
    spm_ms = sum(v for k, v in m.items()
                 if k.startswith("spm.") and k.endswith("_ms"))
    if workload == "cold_sweep":
        expect(m["driver.cache_hit_ratio"] == 0, "cache hits on cold_sweep")
        expect(m["foray.profile_ms"] > op_ms / 2, "Phase I not the majority")
    elif workload == "warm_dse":
        expect(m["driver.cache_hit_ratio"] == 1, "cache misses on warm_dse")
        expect(spm_ms + m["driver.self_ms"] > op_ms / 2,
               "Phase II not the majority")
    elif workload == "serve_mix":
        expect(m["staticforay.programs"] > 0, "no request was linted")
        expect(m["spm.replay_runs"] > 0, "no replay ran")


def check_bare_directory(failures):
    """run.py must fail, printing no result, without the repository."""
    bare = os.path.join(ROOT, ".bench_build", "perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = run(bare, "cold_sweep", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or stdout.strip():
        failures.append("bare directory: run.py did not fail cleanly")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    failures = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            code, stdout = run(ROOT, w["name"], trace)
            if code != 0 or not stdout.strip():
                failures.append(f"{w['name']} --trace {trace}: exit {code}")
                continue
            values = check_result(w["name"], trace, stdout, bench, failures)
            if trace:
                check_layers(w["name"], values, failures)
            print(f"ran {w['name']} --trace {trace}", flush=True)
    check_bare_directory(failures)
    for f in failures:
        print("FAIL", f)
    print("smoke test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
