#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent DIR [--change DIR] [--pairs 10]
        [--seconds 50] [--seed 1] [--out BENCH_<N>.json]

Each pair runs `perfbench/run.py --trace 0` once in each tree, on every
workload of the change tree's BENCHMARK.json, with the same seed on both
sides; which side runs first alternates from pair to pair, so a drift of
the host's speed falls on both alike.  Nothing is imported from either
tree: each run is a subprocess in its tree, and only its last line, the
metrics object, is kept.

Before the first pair both trees' `src/` are byte-compiled afresh.  Where
PYTHONDONTWRITEBYTECODE is set, a stale `.pyc` is otherwise recompiled in
every process on one side only, which moves that side's time and peak RSS.

The output holds every run's last line with its seed and workload, both
trees' commits, the host's core count, and per workload and end-to-end
metric the quartiles of both sides and in how many pairs the change was
better.  The tool exits 1 when any run checked wrong or lost an operation.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commit(tree: Path):
    """HEAD of the tree's repository, marked when the tree has changes, or
    None outside a repository."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    return head.stdout.strip() + ("+dirty" if git("status", "--porcelain").stdout.strip() else "")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values) -> list:
    """[first quartile, median, third quartile]."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def summarize(runs: list, metrics: list) -> dict:
    """Per workload and metric: each side's quartiles and the pairs in
    which the change was lower, ties counting for neither side: every
    end-to-end metric of BENCHMARK.json is better lower."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        both = [pair for pair in pairs.values() if len(pair) == 2]
        out = summary[workload] = {"pairs": len(both)}
        for metric in metrics:
            name = metric["name"]
            parent = [pair["parent"]["metrics"][name]["value"] for pair in both]
            change = [pair["change"]["metrics"][name]["value"] for pair in both]
            out[name] = {
                "parent": quartiles(parent),
                "change": quartiles(change),
                "change_wins": sum(c < p for p, c in zip(parent, change)),
            }
        out["failed"] = sum(pair[side]["failed"] for pair in both for side in pair)
        out["all_correct"] = all(pair[side]["correct"] for pair in both for side in pair)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=1, help="pair i runs seed + i")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    for tree in trees.values():
        compileall.compile_dir(tree / "src", quiet=1, force=True)
    runs = []
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                result = run_once(trees[side], workload, args.seed + pair, args.seconds)
                runs.append({"pair": pair, "side": side, "workload": workload,
                             "seed": args.seed + pair, "result": result})
                print(f"pair {pair} {workload} {side}: {json.dumps(result['metrics'])}",
                      file=sys.stderr, flush=True)
    record = {
        "commits": {side: commit(tree) for side, tree in trees.items()},
        "cpu_count": os.cpu_count(),
        "seconds": args.seconds,
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    # a run that checked wrong or lost an operation fails the comparison
    return int(not all(w["all_correct"] and not w["failed"] for w in record["summary"].values()))


if __name__ == "__main__":
    sys.exit(main())
