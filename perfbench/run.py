#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt compiles the simulator sources under
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only re-check the build. Build output goes to stderr. The
benchmark's own output goes to stdout and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the span
trace is written to <build root>/perfbench-traces/<workload>-seed<n>.json.

Exits non-zero, without a result line, if the build fails; exits with
the benchmark's status otherwise (non-zero when any output is wrong).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kv_zipf", "scan_analytics", "compile_run", "serve_mt")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure (once) and build the benchmark; True on success."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", jobs]
        return subprocess.run(step, stdout=sys.stderr).returncode == 0


def metric_names(trace):
    """The metric names BENCHMARK.json promises for this mode, if any."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(root, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").splitlines()
    if not lines:
        print("perfbench: no output", file=sys.stderr)
        return 1

    # Guard the contract: the result line names exactly the metrics
    # BENCHMARK.json lists for this mode.
    expected = metric_names(args.trace == "1")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if result is None or (expected is not None and
                          set(result["metrics"]) != expected):
        print("\n".join(lines[:-1]))
        print("perfbench: result line does not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
