#!/usr/bin/env python3
"""Spread report for sgnn-bench: reruns one workload N times, each with its
own seed, and prints every metric's median, quartiles and quartile spread
(IQR / median), next to the bound BENCHMARK.json gives it.

    python3 sgnnbench/spread.py --workload serve_http --runs 10 \
        --seconds 10 [--trace 0] [--first-seed 1]

Run from the repository root. Quartiles are Python's
`statistics.quantiles(values, n=4)`. Exits non-zero when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("run with seed %d failed (exit %d)" %
                         (seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values, units = {}, {}
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, seconds, args.trace)
        if not result["correct"]:
            raise SystemExit("seed %d: output checks failed" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    print("\n%-28s %-8s %12s %12s %12s %8s %8s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-28s %-8s %12.6g %12.6g %12.6g %8.4f %8s" %
              (name, units[name], med, q1, q3, spread,
               "" if bound is None else "%.2f" % bound))


if __name__ == "__main__":
    main()
