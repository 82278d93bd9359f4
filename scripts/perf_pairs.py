#!/usr/bin/env python3
"""Alternating parent/change perfbench runs, judged by the pairwise gain rule.

Usage:
  scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W [--seed S]
                        [--pairs N]

PARENT_DIR and CHANGE_DIR are two checkouts of this repository. Each pair
runs

  python3 <dir>/perfbench/run.py --workload W --seed S --seconds 10 --trace 0

once in each checkout, at the benchmark's run length; the side that goes first alternates from pair to
pair, so drift in the machine's load falls on both sides alike. Each
checkout builds its own benchmark binary under its own .bench_build/ on
first use; nothing under perfbench/ is edited.

For every end-to-end metric that CHANGE_DIR/BENCHMARK.json lists, the
script prints each side's median and quartiles, the change's relative
move, how many pairs the change won (ties count for neither side), and
whether the gain rule holds: the change wins at least nine tenths of the
pairs, and its median beats the parent's by more than the distance
between the parent's quartiles. Below ten pairs the rule is not judged
("too few pairs"). Every run's values are printed first.

Exit status: 0 when every run passed its output checks, 1 otherwise,
2 on bad input or a failed run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_SECONDS = 10  # BENCHMARK.json's run_seconds, the same on both sides
MIN_PAIRS = 10    # fewest pairs the gain rule is judged on


def die(message, code=2):
    print(f"perf_pairs: {message}", file=sys.stderr)
    sys.exit(code)


def end_to_end_metrics(checkout):
    path = os.path.join(checkout, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            metrics = json.load(f)["end_to_end"]
        return [(m["name"], m["better"]) for m in metrics]
    except (OSError, ValueError, KeyError) as e:
        die(f"cannot read the end-to-end metrics of {path}: {e}")


def run_once(checkout, workload, seed):
    """One untraced perfbench run; returns (correct, {metric: value})."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-4000:])
        die(f"run in {checkout} printed no result (exit {proc.returncode})")
    values = {name: m["value"] for name, m in doc.get("metrics", {}).items()}
    return bool(doc.get("correct")), values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        die("--pairs must be at least 1")
    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    for checkout in sides.values():
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            die(f"{checkout} has no perfbench/run.py")
    metrics = end_to_end_metrics(sides["change"])

    runs = {"parent": [], "change": []}
    all_correct = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            correct, values = run_once(sides[side], args.workload, args.seed)
            all_correct = all_correct and correct
            runs[side].append(values)
            shown = " ".join(f"{name}={values.get(name, float('nan')):.6g}"
                             for name, _ in metrics)
            print(f"pair {pair + 1:2d} {side:6s} correct={correct} {shown}",
                  flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {RUN_SECONDS}")
    print(f"{'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'move':>8s} {'won':>6s} rule")
    for name, better in metrics:
        parent = [r[name] for r in runs["parent"] if name in r]
        change = [r[name] for r in runs["change"] if name in r]
        if len(parent) != args.pairs or len(change) != args.pairs:
            print(f"{name:16s} missing from some runs")
            continue
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q1, p_q3 = quartiles(parent)
        c_q1, c_q3 = quartiles(change)
        move = (c_med - p_med) / p_med if p_med != 0 else float("nan")
        if args.pairs < MIN_PAIRS:
            rule = "too few pairs"
        elif wins >= 0.9 * args.pairs and sign * (c_med - p_med) > p_q3 - p_q1:
            rule = "holds"
        else:
            rule = "no"
        print(f"{name:16s} {p_med:12.6g} [{p_q1:9.6g}, {p_q3:9.6g}] "
              f"{c_med:12.6g} [{c_q1:9.6g}, {c_q3:9.6g}] {move:+8.2%} "
              f"{wins:2d}/{args.pairs:<3d} {rule}")
    if not all_correct:
        print("some runs failed their output checks", file=sys.stderr)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
