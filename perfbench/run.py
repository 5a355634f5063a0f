#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 20 --trace 0

Workloads: cold_sweep, warm_dse, serve_mix (see perfbench/README.md).
The build (Release) lives in .bench_build/perfbench under the checkout
root: configured on first use, then rebuilt incrementally, with its
output on stderr. The driver's result JSON is the last line of stdout.
Logs, run records and span files go to .bench_build/perfbench/runs.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")


def build():
    """Configures (once) and builds foraybench and foraygen."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "foraybench", "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    os.chdir(ROOT)
    # The production defaults are measured: no engine override and no
    # disk model cache leak in from the environment.
    for var in ("FORAY_ENGINE", "FORAY_CACHE_DIR", "FORAY_FAULT"):
        os.environ.pop(var, None)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "foraybench")
    args = [binary, *sys.argv[1:],
            "--foraygen", os.path.join(BUILD, "foraygen", "foraygen"),
            "--out-dir", os.path.join(BUILD, "runs")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
