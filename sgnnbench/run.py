#!/usr/bin/env python3
"""sgnn-bench entry point: builds the benchmark from source, then runs one
workload and forwards its output.

    python3 sgnnbench/run.py --workload train_decoupled --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The build (Release, CMake) lives in
`.bench_build/sgnnbench`. Shards and other scratch files go to a per-run
directory under `.bench_build/work`, removed when the run ends; traced
runs write their spans to `.bench_build/traces`. The last line of standard
output is the result JSON printed by the benchmark binary. Exits non-zero,
without a result, when the library sources are missing or the build fails,
and with the binary's code otherwise (non-zero when an output check
failed).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "sgnnbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "sgnn_bench")
WORKLOADS = ("train_decoupled", "train_sampled", "precompute_scaleout",
             "serve_http")
# Hard ceiling on one benchmark process; the binary budgets itself well
# below this, so hitting it means a hang.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("sgnn-bench: library sources (src/) not found next to "
              "sgnnbench/", file=sys.stderr)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "sgnn_bench", "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("sgnn-bench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    scratch = os.path.join(WORK_DIR, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(TRACE_DIR, exist_ok=True)
    command = [
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch-dir", scratch, "--trace-dir", TRACE_DIR,
        "--commit", git_commit(),
    ]
    sys.stdout.flush()
    # Own process group, so a timeout also stops the worker processes the
    # distributed path forks.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("sgnn-bench: run exceeded %d s, killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
