#!/usr/bin/env python3
"""Compare two sgnn-bench trajectory files of one workload.

A `BENCH_<workload>.json` file holds the host line and the seed-1
untraced and traced result lines of sgnn-bench (`sgnnbench/run.py`). This
tool compares an old and a new file and fails (exit 1) unless

  * every result line in both files reads `"correct": true` and
    `"failed": 0`, and
  * every deterministic per-layer value of the traced run is equal in
    both files, or is named with `--allow` (a declared move).

The deterministic values are the counts and outcomes that repeat exactly
for a seed: they show that a change left the work it did alone, or moved
it by exactly what it declared. Wall and CPU times are not among them.

It also prints the untraced run's end-to-end metrics next to their bounds
in `BENCHMARK.json`. That part never fails: one run of each side is not a
pair, so a gain or a regression needs interleaved pairs.

Usage:
  tools/bench_diff.py OLD.json NEW.json [--allow NAME ...]
  tools/bench_diff.py --self-test
"""

import argparse
import copy
import fnmatch
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Deterministic per-layer values of a traced run; `*` matches any suffix.
DETERMINISTIC = (
    "core.edges_touched",
    "core.bytes_moved",
    "test_acc",
    "storage.loads",
    "storage.evictions",
    "storage.ppr_loads",
    "sampling.block_*",
    "partition.edge_cut",
    "dist.halo_bytes",
    "dist.gather_bytes",
    "dist.frames",
)

RUNS = ("untraced", "traced")


def _matches(name, patterns):
    return any(fnmatch.fnmatchcase(name, p) for p in patterns)


def _value(run, name):
    metric = run.get("metrics", {}).get(name)
    return None if metric is None else metric.get("value")


def _format(value):
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def compare(old, new, allow, end_to_end):
    """Compares two parsed trajectory files. Returns (ok, report lines)."""
    lines = []
    ok = True
    for label, bench in (("old", old), ("new", new)):
        for run_name in RUNS:
            run = bench.get(run_name)
            if run is None:
                lines.append(f"FAIL {label} file has no {run_name} result")
                ok = False
                continue
            if run.get("correct") is not True or run.get("failed") != 0:
                lines.append(
                    f"FAIL {label} {run_name} run: correct="
                    f"{json.dumps(run.get('correct'))} "
                    f"failed={json.dumps(run.get('failed'))}")
                ok = False
    old_workload = old.get("host", {}).get("workload")
    new_workload = new.get("host", {}).get("workload")
    if old_workload != new_workload:
        lines.append(f"FAIL workloads differ: {old_workload} vs "
                     f"{new_workload}")
        ok = False

    old_traced = old.get("traced", {})
    new_traced = new.get("traced", {})
    names = sorted(
        n for n in set(old_traced.get("metrics", {})) |
        set(new_traced.get("metrics", {}))
        if _matches(n, DETERMINISTIC))
    lines.append("deterministic per-layer values (traced run):")
    for name in names:
        before, after = _value(old_traced, name), _value(new_traced, name)
        shown = f"  {name:<24} {_format(before):>14} -> {_format(after):<14}"
        if before == after:
            lines.append(shown + " equal")
            continue
        delta = ""
        if isinstance(before, (int, float)) and isinstance(after, (int, float)):
            delta = f" ({after - before:+.6g})"
        if _matches(name, allow):
            lines.append(shown + f" moved{delta}, declared")
        else:
            lines.append(shown + f" moved{delta}, NOT DECLARED")
            ok = False

    lines.append("end-to-end metrics (untraced run; one run is not a pair, "
                 "so this is information only):")
    for metric in end_to_end:
        name = metric["name"]
        before = _value(old.get("untraced", {}), name)
        after = _value(new.get("untraced", {}), name)
        change = ""
        if isinstance(before, (int, float)) and before and \
                isinstance(after, (int, float)):
            change = f"{(after - before) / before:+.1%}"
        lines.append(
            f"  {name:<24} {_format(before):>14} -> {_format(after):<14} "
            f"{change:>7}  bound {metric['bound']:.0%} "
            f"({metric['better']} is better)")
    lines.append("OK" if ok else "FAIL")
    return ok, lines


def _load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---- self-test -------------------------------------------------------------

FIXTURE = {
    "host": {"workload": "precompute_scaleout", "seed": 1, "seconds": 12},
    "untraced": {"correct": True, "attempted": 40, "failed": 0, "metrics": {
        "setup_s": {"value": 0.5, "unit": "s"},
        "job_cpu_s": {"value": 0.4, "unit": "s"},
        "peak_rss_mb": {"value": 90.0, "unit": "MB"}}},
    "traced": {"correct": True, "attempted": 40, "failed": 0, "metrics": {
        "core.edges_touched": {"value": 2399656, "unit": "count"},
        "test_acc": {"value": 0.59275, "unit": "fraction"},
        "sampling.block_nodes": {"value": 38074, "unit": "count"},
        "dist.gather_bytes": {"value": 26419184, "unit": "bytes"},
        "dist.frames": {"value": 830, "unit": "count"},
        "dist.epoch_s": {"value": 0.06, "unit": "s"}}},
}

FIXTURE_BOUNDS = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "job_cpu_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
]


def _variant(edit):
    bench = copy.deepcopy(FIXTURE)
    edit(bench)
    return bench


def _set(bench, run, name, value):
    bench[run]["metrics"][name]["value"] = value


def self_test():
    noisy = _variant(lambda b: (_set(b, "traced", "dist.epoch_s", 0.09),
                                _set(b, "untraced", "job_cpu_s", 0.6)))
    moved = _variant(lambda b: (_set(b, "traced", "dist.frames", 822),
                                _set(b, "traced", "dist.gather_bytes",
                                     26419024)))
    sampled = _variant(
        lambda b: _set(b, "traced", "sampling.block_nodes", 38075))
    failed = _variant(lambda b: b["untraced"].update(failed=3))
    cases = [
        # (name, new file, --allow, expected verdict)
        ("equal", FIXTURE, [], True),
        ("times-only", noisy, [], True),
        ("undeclared-move", moved, [], False),
        ("half-declared-move", moved, ["dist.frames"], False),
        ("declared-move", moved, ["dist.frames", "dist.gather_bytes"], True),
        ("declared-glob", sampled, ["sampling.block_*"], True),
        ("failed-run", failed, [], False),
    ]
    for name, new, allow, expected in cases:
        ok, lines = compare(FIXTURE, new, allow, FIXTURE_BOUNDS)
        if ok != expected:
            print(f"self-test FAILED: {name}: expected "
                  f"{'OK' if expected else 'FAIL'}, got:")
            for line in lines:
                print(f"  {line}")
            return 1
    print(f"self-test OK: {len(cases)} fixture comparisons")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Deterministic values: " + ", ".join(DETERMINISTIC))
    parser.add_argument("old", nargs="?", help="the committed file")
    parser.add_argument("new", nargs="?", help="the regenerated file")
    parser.add_argument("--allow", action="append", default=[],
                        metavar="NAME",
                        help="a deterministic value the change declares "
                             "moved (may repeat; `*` matches a suffix)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the comparison against inline fixtures")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.old is None or args.new is None:
        parser.error("give OLD and NEW, or --self-test")
    end_to_end = _load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]
    ok, lines = compare(_load(args.old), _load(args.new), args.allow,
                        end_to_end)
    print(f"{args.old} -> {args.new}")
    for line in lines:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
