#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles the library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one measurement. The binary's last stdout
line, a JSON object, is passed through as this script's last line. Traced
runs write their Perfetto-loadable trace under the build directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_SECONDS = 170
BUILD_TIMEOUT_SECONDS = 840


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(source_dir, build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_SECONDS)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    source_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_dir, "perfbench")
    build(source_dir, build_dir)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_SECONDS} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"no result (exit code {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line (exit code {done.returncode})")
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
