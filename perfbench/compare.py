#!/usr/bin/env python3
"""Noise-aware comparison of two sets of benchmark runs.

Compare two sets of results already recorded:

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a .bench_results directory written by run.py,
or a JSONL file of records {"workload", "seed", "trace", "metrics"}.

Or make the runs first, in pairs, then compare:

    python3 perfbench/compare.py run PARENT_CHECKOUT CHANGE_CHECKOUT [--out DIR]

This runs ten pairs on every workload in BENCHMARK.json. Pair i runs both
checkouts with seed 1000+i; the parent goes first in even pairs and the
change first in odd ones, so drift on the host does not favour one side.
The records are written to DIR/parent.jsonl and DIR/change.jsonl,
replacing any earlier comparison's. Both checkouts need the same
perfbench/ directory and BENCHMARK.json, so the two sides run identical
benchmark code.

One row per workload and metric: each side's median and quartiles, the
change's pair wins, and a verdict under the pairs rule:
  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  either side's spread (IQR over median) is wider than the
              bound, unless every change run beats, or loses to, every
              parent run;
  same        none of these.
Per-layer metrics have no bound; their verdict is only better or same.
The exit status is 1 when any row is worse.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
SEED0 = 1000


def load_records(path):
    records = []
    if os.path.isdir(path):
        for name in sorted(glob.glob(os.path.join(path, "*.json"))):
            with open(name) as f:
                r = json.load(f)
            if "result" not in r:
                continue  # a spans file
            records.append({
                "workload": r["workload"], "seed": r["seed"],
                "trace": r["trace"],
                "metrics": {k: v["value"]
                            for k, v in r["result"]["metrics"].items()}})
    else:
        with open(path) as f:
            records = [json.loads(line) for line in f if line.strip()]
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def improves(better, new, old):
    return new < old if better == "lower" else new > old


def verdict(spec, parent, change, pairs):
    bound = spec.get("bound")
    better = spec["better"]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(improves(better, c, p) for p, c in pairs)
    gap = abs(cmed - pmed)
    if (pairs and wins >= 0.9 * len(pairs) and improves(better, cmed, pmed)
            and gap > pq3 - pq1):
        return "better", wins
    if bound is None:
        return "same", wins
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if spread > bound:
        if all(improves(better, c, p) for c in change for p in parent):
            return "better", wins
        if all(improves(better, p, c) for c in change for p in parent):
            return "worse", wins
        return "unresolved", wins
    if improves(better, pmed, cmed) and pmed and gap / abs(pmed) > bound:
        return "worse", wins
    return "same", wins


def compare(definition, parent_records, change_records):
    specs = {m["name"]: m for m in definition["end_to_end"]}
    for m in definition["per_layer"]:
        specs[m["name"]] = m
    rows = []
    workloads = [w["name"] for w in definition["workloads"]]
    for workload in workloads:
        for name, spec in specs.items():
            def side(records):
                return [(r["seed"], r["metrics"][name]) for r in records
                        if r["workload"] == workload and name in r["metrics"]]
            p, c = side(parent_records), side(change_records)
            if not p or not c:
                continue
            # Runs with the same seed pair up in the order they were made.
            change_by_seed = {}
            for seed, value in c:
                change_by_seed.setdefault(seed, []).append(value)
            pairs = [(v, change_by_seed[s].pop(0)) for s, v in p
                     if change_by_seed.get(s)]
            pv, cv = [v for _, v in p], [v for _, v in c]
            result, wins = verdict(spec, pv, cv, pairs)
            rows.append((workload, name, spec["unit"], quartiles(pv),
                         quartiles(cv), wins, len(pairs), result))
    return rows


def print_rows(rows):
    header = (f"{'workload':<11} {'metric':<26} {'unit':<6} "
              f"{'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
              f"{'delta':>8} {'wins':>6}  verdict")
    print(header)
    for workload, name, unit, (pq1, pm, pq3), (cq1, cm, cq3), wins, n, v in rows:
        delta = f"{100.0 * (cm - pm) / pm:+.1f}%" if pm else "n/a"
        print(f"{workload:<11} {name:<26} {unit:<6} "
              f"{f'{pm:.4g} [{pq1:.4g}, {pq3:.4g}]':<30} "
              f"{f'{cm:.4g} [{cq1:.4g}, {cq3:.4g}]':<30} "
              f"{delta:>8} {f'{wins}/{n}':>6}  {v}")


def run_pairs(args, definition):
    workloads = [w["name"] for w in definition["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": args.parent, "change": args.change}
    files = {side: open(os.path.join(args.out, side + ".jsonl"), "w")
             for side in sides}
    try:
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for workload in workloads:
                for position, side in enumerate(order):
                    cmd = definition["command"] + [
                        "--workload", workload, "--seed", str(SEED0 + i),
                        "--seconds", str(definition["run_seconds"]),
                        "--trace", "0"]
                    proc = subprocess.run(cmd, cwd=sides[side],
                                          capture_output=True, text=True)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        sys.exit(f"{side} run failed ({workload}, pair {i}):\n"
                                 + proc.stderr[-2000:])
                    line = json.loads(lines[-1])
                    record = {"workload": workload, "seed": SEED0 + i,
                              "trace": 0, "first": position == 0,
                              "metrics": {k: v["value"] for k, v
                                          in line["metrics"].items()}}
                    files[side].write(json.dumps(record) + "\n")
                    files[side].flush()
                    print(f"pair {i} {workload} {side} done", file=sys.stderr)
    finally:
        for f in files.values():
            f.close()
    return (os.path.join(args.out, "parent.jsonl"),
            os.path.join(args.out, "change.jsonl"))


def main():
    argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        description="Compare two sets of benchmark runs.")
    parser.add_argument("--definition", default="BENCHMARK.json",
                        help="benchmark definition with the metric bounds")
    if argv[:1] == ["run"]:
        parser.add_argument("parent", help="checkout of the parent commit")
        parser.add_argument("change", help="checkout of the change")
        parser.add_argument("--out", default="bench_compare")
        args = parser.parse_args(argv[1:])
        with open(args.definition) as f:
            definition = json.load(f)
        parent_path, change_path = run_pairs(args, definition)
    else:
        parser.add_argument("parent", help="parent results: directory or JSONL")
        parser.add_argument("change", help="change results: directory or JSONL")
        args = parser.parse_args(argv)
        with open(args.definition) as f:
            definition = json.load(f)
        parent_path, change_path = args.parent, args.change
    rows = compare(definition, load_records(parent_path),
                   load_records(change_path))
    print_rows(rows)
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
