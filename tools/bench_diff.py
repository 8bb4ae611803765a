#!/usr/bin/env python3
"""Prints median ratios from BENCH_pr<N>.json perf records.

Usage (from the root of a checkout):

    python3 tools/bench_diff.py BENCH_pr<N>.json
    python3 tools/bench_diff.py BENCH_pr<M>.json BENCH_pr<N>.json

With one file, prints change/parent for every run (seed), workload and
end-to-end metric it records. With two files, prints new/old for the change
side of each workload, taking each file's last run that measured it.

Each ratio is compared with its metric's bound in BENCHMARK.json: a ratio
that is worse than 1 by more than the bound is marked "WORSE", one better by
more than the bound "better". Exits 1 if any ratio is marked WORSE.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    with open(path) as f:
        return json.load(f)


def bounds(benchmark):
    return {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}


def verdict(ratio, better, bound):
    gain = ratio if better == "higher" else (1 / ratio if ratio else float("inf"))
    if gain < 1 - bound:
        return "WORSE"
    if gain > 1 + bound:
        return "better"
    return ""


def ratio(new, old):
    if old == 0:
        return 1.0 if new == 0 else float("inf")
    return new / old


def print_rows(title, columns, rows, metric_bounds):
    """rows: (workload, metric, old median, new median). Returns #WORSE."""
    print(title)
    print(f"  {'workload':16} {'metric':16} {columns[0]:>12} {columns[1]:>12} "
          f"{'ratio':>8}")
    worse = 0
    for workload, metric, old, new in rows:
        r = ratio(new, old)
        better, bound = metric_bounds[metric]
        mark = verdict(r, better, bound)
        worse += mark == "WORSE"
        print(f"  {workload:16} {metric:16} {old:12.6g} {new:12.6g} {r:8.3f}"
              f"  {mark}".rstrip())
    return worse


def metric_rows(workload, old_side, new_side, metric_bounds):
    for metric in metric_bounds:
        if metric in old_side and metric in new_side:
            yield (workload, metric, old_side[metric]["median"],
                   new_side[metric]["median"])


def last_change_sides(record):
    """workload -> (seed, change side) from the last run measuring it."""
    out = {}
    for run in record["runs"]:
        for workload, data in run["workloads"].items():
            out[workload] = (run["seed"], data["change"])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args()
    if len(args.files) > 2:
        parser.error("give one or two BENCH_pr<N>.json files")
    metric_bounds = bounds(load(args.benchmark))
    worse = 0
    if len(args.files) == 1:
        record = load(args.files[0])
        for run in record["runs"]:
            rows = []
            for workload, data in run["workloads"].items():
                rows += metric_rows(workload, data["parent"], data["change"],
                                    metric_bounds)
            worse += print_rows(
                f"{args.files[0].name}: change/parent, seed {run['seed']}, "
                f"{run['seconds']} s", ("parent", "change"), rows, metric_bounds)
    else:
        old = last_change_sides(load(args.files[0]))
        new = last_change_sides(load(args.files[1]))
        rows = []
        for workload in new:
            if workload in old:
                rows += metric_rows(workload, old[workload][1], new[workload][1],
                                    metric_bounds)
        seeds = ", ".join(f"{w} {old[w][0]}->{new[w][0]}" for w in new if w in old)
        worse += print_rows(
            f"{args.files[1].name} / {args.files[0].name} (change sides; "
            f"seeds {seeds})", ("old", "new"), rows, metric_bounds)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
