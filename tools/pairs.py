"""Alternating pairs of benchmark runs: a parent commit against a change.

    python3 tools/pairs.py PARENT CHANGE --workload NAME --pairs N
                           [--metric wall_ref_s] [--seconds 42] [--first-seed 1]
                           [--work DIR]

Run from the root of a git checkout that holds both commits. Each commit is
exported with ``git archive`` into a fresh directory under DIR (a new
temporary directory by default), and ``perfbench/run.py --record`` runs in
that copy with PYTHONDONTWRITEBYTECODE=1, so that neither copy ever holds a
bytecode cache. Pair i runs both sides on seed FIRST_SEED + i, one after
the other: the parent first in even pairs, the change first in odd ones.
Each side's records are summarized by its own ``perfbench/records.py
summarize`` into DIR/parent.json and DIR/change.json.

The last lines printed judge the metric by the gain rule of the benchmark:
the change must win at least nine tenths of the pairs, ties counting for
neither, and its median must beat the parent's by more than the parent's
quartile distance. Every other end-to-end metric of BENCHMARK.json is
judged from the same runs by its bound, as ``perfbench/records.py
compare`` judges it: "within bound", "worse beyond bound", or "unresolved"
where the parent's own spread (quartile distance over median) exceeds the
bound, unless every run of the change reads better than every run of the
parent. Directions and bounds are read from the parent's BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def quartiles(values):
    """(q1, median, q3) as perfbench/records.py computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def gate(parent, change, better="lower"):
    """(pairs won, median gap, parent quartile distance, passed) of paired
    values: pair i is (parent[i], change[i]). The gap is how far the
    change's median beats the parent's, in the metric's unit."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of values on both sides")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (parent_median - quartiles(change)[1])
    spread = q3 - q1
    return won, gap, spread, won >= 0.9 * len(parent) and gap > spread


def bound_verdict(parent, change, better, bound):
    """(parent median, change median, verdict) of one metric's paired
    values against its relative bound."""
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(parent_median)
    worse = sign * (change_median - parent_median) / scale if scale else 0.0
    spread = (q3 - q1) / scale if scale else 0.0
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "worse beyond bound" if worse > bound else "within bound"
    return parent_median, change_median, verdict


def export(commit, dest):
    """A fresh copy of ``commit``'s tree in ``dest``."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--output", str(archive), commit], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()
    return dest


def run_once(copy, record, args, seed):
    """One perfbench run in ``copy``; returns its end-to-end metrics."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
         "--seconds", str(args.seconds), "--trace", "0", "--record", str(record)],
        cwd=copy, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    metrics = json.loads(record.read_text(encoding="utf-8"))["result"]["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--metric", default="wall_ref_s")
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--work", type=Path)
    args = parser.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="pairs-"))
    sides = {"parent": args.parent, "change": args.change}
    copies = {side: export(commit, work / side) for side, commit in sides.items()}
    spec = json.loads((copies["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    better = metrics[args.metric]["better"]
    runs = {side: [] for side in sides}
    records = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            record = work / f"{side}-{seed}.json"
            runs[side].append(run_once(copies[side], record, args, seed))
            records[side].append(str(record))
        print(f"pair {i + 1} (seed {seed}, {order[0]} first): parent "
              f"{runs['parent'][-1][args.metric]:.6g}, change "
              f"{runs['change'][-1][args.metric]:.6g}", flush=True)
    for side, copy in copies.items():
        subprocess.run([sys.executable, "perfbench/records.py", "summarize",
                        str(work / f"{side}.json"), *records[side]], cwd=copy, check=True)
    values = {side: [run[args.metric] for run in runs[side]] for side in sides}
    won, gap, spread, passed = gate(values["parent"], values["change"], better)
    for side in sides:
        q1, median, q3 = quartiles(values[side])
        print(f"{side}: {args.metric} median {median:.6g} [q1 {q1:.6g}, q3 {q3:.6g}]")
    print(f"change better in {won} of {args.pairs} pairs; median gap {gap:.6g} against the "
          f"parent's quartile distance {spread:.6g}: {'gain' if passed else 'no gain'} "
          f"(records in {work})")
    for name, metric in metrics.items():
        if name == args.metric:
            continue
        parent_median, change_median, verdict = bound_verdict(
            [run[name] for run in runs["parent"]], [run[name] for run in runs["change"]],
            metric["better"], metric["bound"],
        )
        print(f"{name}: median {parent_median:.6g} -> {change_median:.6g} {metric['unit']} "
              f"(bound {metric['bound']:.0%}): {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
