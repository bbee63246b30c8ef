#!/usr/bin/env python3
"""Compare saved flow-benchmark outputs of two sides.

    python3 flowbench/compare.py --base a1.out a2.out ... --new b1.out ...

Each file is the standard output of one `flowbench/run.py` run: its last
line is the result, the line before it the host context. Results are only
comparable when both sides ran on the same host context (CPU count and
model, build type, compiler, AVX2 state, branch padding, thread budget,
workload and run length); otherwise this prints "context mismatch" and no
delta. The commit and the seed are expected to differ and are only shown.
"""
import argparse
import json
import os
import statistics
import sys

HOST_KEYS = ("workload", "trace", "seconds", "nproc", "cpu_model",
             "build_type", "compiler", "lsiq_avx2", "branch_pad", "lanes",
             "grading_threads", "clients", "thread_budget")


def load(path):
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if len(lines) < 2:
        sys.exit(f"{path}: not a flowbench output")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def host(context):
    return {key: context.get(key) for key in HOST_KEYS}


def side(paths):
    runs = [load(path) for path in paths]
    contexts = [host(context) for context, _ in runs]
    for path, context in zip(paths, contexts):
        if context != contexts[0]:
            report_mismatch(paths[0], contexts[0], path, context)
    return runs, contexts[0]


def report_mismatch(a_name, a, b_name, b):
    print("context mismatch:")
    for key in HOST_KEYS:
        if a.get(key) != b.get(key):
            print(f"  {key}: {a_name}={a.get(key)!r} {b_name}={b.get(key)!r}")
    sys.exit(3)


def bounds():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, base_host = side(args.base)
    new, new_host = side(args.new)
    if base_host != new_host:
        report_mismatch("base", base_host, "new", new_host)
    for label, runs in (("base", base), ("new", new)):
        commits = sorted({context.get("commit") for context, _ in runs})
        seeds = sorted({context.get("seed") for context, _ in runs})
        print(f"{label}: {len(runs)} runs, commit {', '.join(commits)}, "
              f"seeds {seeds}")
    if not all(result["correct"] for _, result in base + new):
        print("warning: some runs report correct=false")
    known = bounds()
    print(f"{'metric':28s} {'base':>14s} {'new':>14s} {'change':>9s}  verdict")
    worse = False
    for name in base[0][1]["metrics"]:
        a = statistics.median(r["metrics"][name]["value"] for _, r in base)
        b = statistics.median(r["metrics"][name]["value"] for _, r in new)
        unit = base[0][1]["metrics"][name]["unit"]
        change = (b - a) / a if a else 0.0
        metric = known.get(name, {})
        verdict = ""
        if "bound" in metric:
            loss = change if metric["better"] == "lower" else -change
            verdict = "worse than bound" if loss > metric["bound"] else "ok"
            worse = worse or loss > metric["bound"]
        print(f"{name:28s} {a:14.6g} {b:14.6g} {change:+9.1%}  {verdict} "
              f"({unit})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
