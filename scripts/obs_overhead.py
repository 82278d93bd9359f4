#!/usr/bin/env python3
"""Observability-overhead smoke: gate the flight recorder's cost.

Consumes the google-benchmark JSON of bench_micro_events and reduces it
to per-event overhead *ratios* (recorder-enabled time over the
fully-disabled pointer-test path, and the recorder-attached sim step
over the sink-free one). Ratios — not absolute times — so the gate is
stable across machines; CI compares against the committed baseline and
fails when any ratio regressed by more than --threshold (default 25%).

Usage:
  build/bench/bench_micro_events --benchmark_format=json \
      --benchmark_out=events.json --benchmark_min_time=0.05
  scripts/obs_overhead.py events.json bench/results/obs_overhead_baseline.json
  scripts/obs_overhead.py events.json --write-baseline BASELINE.json

Exit status: 0 within budget, 1 overhead regression, 2 bad input.
"""

import argparse
import json
import sys

# ratio name -> (numerator benchmark, denominator benchmark)
RATIOS = {
    "emit_timeline_over_disabled": ("BM_EmitTimelineStore", "BM_EmitDisabled"),
    "simstep_recorder_over_off": ("BM_SimStep_Recorder",
                                  "BM_SimStep_TracingOff"),
}


def load_times(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"obs_overhead: cannot read {path}: {exc}")
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        times[bench["name"]] = float(bench["cpu_time"])
    return times


def compute_ratios(times):
    ratios = {}
    for name, (num, den) in RATIOS.items():
        if num not in times or den not in times:
            sys.exit(f"obs_overhead: benchmark output is missing "
                     f"{num if num not in times else den!r}")
        if times[den] <= 0:
            sys.exit(f"obs_overhead: non-positive time for {den}")
        ratios[name] = times[num] / times[den]
    return ratios


def main():
    parser = argparse.ArgumentParser(
        description="Gate flight-recorder overhead ratios.")
    parser.add_argument("results",
                        help="bench_micro_events --benchmark_format=json "
                             "output")
    parser.add_argument("baseline", nargs="?",
                        help="committed baseline ratio file")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative ratio growth "
                             "(default 0.25 = +25%%)")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write the computed ratios as a new baseline "
                             "and exit")
    args = parser.parse_args()

    ratios = compute_ratios(load_times(args.results))

    if args.write_baseline:
        payload = {"schema": "rfh-obs-overhead/1", "ratios": ratios}
        with open(args.write_baseline, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for name, value in sorted(ratios.items()):
            print(f"{name:<32} {value:8.3f}x")
        print(f"baseline written to {args.write_baseline}")
        return 0

    if not args.baseline:
        parser.error("need a baseline file (or --write-baseline)")
    try:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            base = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"obs_overhead: cannot read {args.baseline}: {exc}")
    if base.get("schema") != "rfh-obs-overhead/1":
        sys.exit(f"obs_overhead: {args.baseline}: bad schema "
                 f"{base.get('schema')!r}")

    failed = []
    print(f"{'ratio':<32} {'baseline':>10} {'now':>10} {'change':>9}")
    for name, value in sorted(ratios.items()):
        reference = base["ratios"].get(name)
        if reference is None:
            print(f"{name:<32} {'-':>10} {value:9.3f}x   (new, no baseline)")
            continue
        growth = (value - reference) / reference
        flag = ""
        if growth > args.threshold:
            flag = "  << OVERHEAD REGRESSION"
            failed.append(name)
        print(f"{name:<32} {reference:9.3f}x {value:9.3f}x "
              f"{growth:+8.1%}{flag}")
    print()
    if failed:
        print(f"overhead regressions: {', '.join(failed)}")
        return 1
    print("recorder overhead within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
