#!/usr/bin/env python3
"""Build and run the RFH simulator benchmark; print its result line.

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the simulator and the bench binary from source into .bench_build/ (a
pinned Release build, see CMakeLists.txt), runs one workload for one seed,
checks the simulated outputs and prints, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. The exit code is 0 only when every check passed.

Other modes (see README.md):
    --all                    every workload, e2e and traced, one table
    --steadiness K           K runs of one workload: median, quartiles,
                             spread and max/min per metric
    --record SEEDS           record the per-epoch digests of the given seeds
                             (e.g. 0-20) into perfbench/digests/
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "rfh_perfbench")
DIGESTS_DIR = os.path.join(HERE, "digests")
WORKLOADS = ("steady_100k", "churn_stream_10k", "paper_sweep")
# A run must end within 180 s; leave room for the build check and output.
RUN_TIMEOUT_S = 170


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark_json():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}", 2)


def build():
    """Configure (once) and build the bench binary; incremental afterwards."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        die(f"no simulator sources at {os.path.join(ROOT, 'src')}", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step {cmd[:2]} failed: {e}", 2)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            die(f"build step {' '.join(cmd[:2])} exited {proc.returncode}", 2)


def source_digest():
    """sha256 over every file under src/ (path + bytes), sorted by path."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return proc.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def run_binary(workload, seed, seconds, trace, deadline):
    """Run the compiled bench binary once; returns (document, warning count)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"{workload} seed {seed} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        die(f"bench binary exited {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        die("bench binary printed no result")
    warnings = sum(1 for l in proc.stderr.splitlines() if "WARN" in l)
    others = [l for l in proc.stderr.splitlines() if "WARN" not in l]
    if others:
        sys.stderr.write("\n".join(others[-20:]) + "\n")
    return json.loads(lines[-1]), warnings


def golden_path(workload):
    return os.path.join(DIGESTS_DIR, f"{workload}.json")


def load_golden(workload):
    path = golden_path(workload)
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f).get("seeds", {})


def check_outputs(doc, golden):
    """Failed timed epochs out of attempted, plus run-level problems.

    A unit (an epoch, or a paper_sweep cell standing for its epochs) fails
    when its digest differs from the recorded one for this seed, when the
    j2 pass disagrees with the serial pass, or when the InvariantChecker
    reported a violation in it.
    """
    check = doc["check"]
    serial, parallel = check["serial"], check["parallel"]
    recorded = golden.get(str(doc["seed"]))
    attempted = failed = 0
    problems = []
    for name, unit_pass in (("serial", serial), ("j2", parallel)):
        for i, digest in enumerate(unit_pass["digests"]):
            weight = unit_pass["weights"][i]
            attempted += weight
            bad = unit_pass["violations"][i] > 0
            if recorded is not None and i < len(recorded):
                bad = bad or digest != recorded[i]
            if name == "j2":
                bad = bad or i >= len(serial["digests"]) or \
                    digest != serial["digests"][i]
            failed += weight if bad else 0
    if len(serial["digests"]) != len(parallel["digests"]):
        problems.append("serial and j2 passes ran different unit counts")
    if check["setup_violations"]:
        problems.append(f"{check['setup_violations']} check failures "
                        "during set-up")
    if recorded is None:
        problems_note = (f"seed {doc['seed']} has no recorded digests; "
                         "checked serial == j2 and invariants only")
    else:
        problems_note = (f"checked {min(len(recorded), len(serial['digests']))}"
                         f" units against recorded digests")
    return attempted, failed, problems, problems_note


def one_run(args, bench, quiet=False):
    """Build, run and check one workload; returns the result document."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    build()
    doc, warnings = run_binary(args.workload, args.seed, args.seconds,
                               args.trace, deadline)
    attempted, failed, problems, note = check_outputs(
        doc, load_golden(args.workload))
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    doc["metrics"]["check.failed_frac"] = {
        "value": failed / attempted if attempted else 0.0,
        "unit": "fraction"}
    for spec in bench[section]:
        name = spec["name"]
        got = doc["metrics"].get(name)
        if got is None or not math.isfinite(got["value"]):
            problems.append(f"metric {name} missing")
            continue
        if got["unit"] != spec["unit"]:
            problems.append(f"metric {name} unit {got['unit']} != "
                            f"{spec['unit']}")
        metrics[name] = {"value": got["value"], "unit": spec["unit"]}
    if not args.trace:
        for name, m in metrics.items():
            if not m["value"] > 0:
                problems.append(f"end-to-end metric {name} is not positive")
    correct = failed == 0 and not problems and attempted > 0
    meta = dict(doc["meta"])
    meta.update({"git_commit": git_commit(), "src_sha256": source_digest(),
                 "library_warnings": warnings})
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "meta": meta,
              "correct": correct, "attempted": attempted, "failed": failed,
              "problems": problems, "check_note": note,
              "metrics": doc["metrics"],
              "unit_ms": {"serial": doc["check"]["serial"]["ms"],
                          "j2": doc["check"]["parallel"]["ms"]}}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(RESULTS_DIR, out_name), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if not quiet:
        print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("# meta " + json.dumps(meta, sort_keys=True))
        print(f"# check: {note}; {failed}/{attempted} timed epochs failed")
        for p in problems:
            print(f"# problem: {p}")
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:>16.6g} {m['unit']:14s} "
                  f"{kind(name)}")
    record["result"] = {"correct": correct, "attempted": attempted,
                        "failed": failed, "metrics": metrics}
    return record


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def record_digests(args):
    """Store each seed's serial-pass digests as the recorded reference.

    Recording runs the full benchmark, so serial == j2 and the invariants
    are still enforced; a seed that fails them is not recorded.
    """
    path = golden_path(args.workload)
    existing = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            existing = json.load(f).get("seeds", {})
    build()
    for seed in parse_seeds(args.record):
        args.seed = seed
        existing.pop(str(seed), None)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        doc, _ = run_binary(args.workload, seed, args.seconds, 0, deadline)
        attempted, failed, problems, _ = check_outputs(doc, {})
        if failed or problems:
            die(f"seed {seed}: {failed}/{attempted} failed {problems}; "
                "not recorded")
        existing[str(seed)] = doc["check"]["serial"]["digests"]
        print(f"recorded {args.workload} seed {seed}: "
              f"{len(existing[str(seed)])} units", file=sys.stderr)
    os.makedirs(DIGESTS_DIR, exist_ok=True)
    ordered = {k: existing[k] for k in sorted(existing, key=int)}
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seeds": ordered}, f,
                  indent=0)
        f.write("\n")


def is_count(name):
    """Per-layer metrics counted by the program rather than timed: for one
    seed they must repeat exactly from run to run."""
    return kind(name) != "host"


def kind(name):
    """host: measured on the host (wall time, RSS, ratios of times);
    simulated: an outcome of the simulated system; count: a deterministic
    count of the program's own work."""
    if (name.endswith(("_s", "_ms", "_ms_j2", "_mb")) or
            name.startswith(("epochs_per_s", "exec.speedup.")) or
            name in ("exec.serial_frac", "exec.steal_ratio",
                     "trace.overhead_frac")):
        return "host"
    if name == "unserved_frac" or name.startswith((
            "sim.dropped_by_reason.", "sim.repairs_starved",
            "sim.applied_ratio", "core.proposed")):
        return "simulated"
    return "count"


def steadiness(args, bench):
    """K runs of one workload; per metric median, quartiles and spread."""
    k = args.steadiness
    if k < 2:
        die("--steadiness needs at least 2 runs", 2)
    section = "per_layer" if args.trace else "end_to_end"
    specs = {s["name"]: s for s in bench[section]}
    values = {name: [] for name in specs}
    base_seed = args.seed
    all_correct = True
    for i in range(k):
        args.seed = base_seed if args.same_seed else base_seed + i
        rec = one_run(args, bench, quiet=True)
        all_correct = all_correct and rec["correct"]
        for name in specs:
            if name in rec["result"]["metrics"]:
                values[name].append(rec["result"]["metrics"][name]["value"])
        print(f"# run {i + 1}/{k} seed={args.seed} correct={rec['correct']}",
              file=sys.stderr)
    seeds = "same seed" if args.same_seed else "seeds " \
        f"{base_seed}..{base_seed + k - 1}"
    print(f"# steadiness: {args.workload}, {k} runs, {seeds}, "
          f"trace={args.trace}")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'max/min':>8s} {'bound':>6s}  verdict")
    ok = True
    for name, spec in specs.items():
        v = values[name]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        lo, hi = min(v), max(v)
        maxmin = hi / lo if lo > 0 else float("inf") if hi > 0 else 1.0
        bound = spec.get("bound")
        if bound is None:
            verdict = "repeats" if lo == hi else "varies"
            if args.same_seed and is_count(name) and lo != hi:
                # Count-type metrics must repeat exactly for one seed.
                verdict = "FLAG: not repeated"
                ok = False
        elif name == "setup_s":
            verdict = "n/a (set-up)"
        else:
            verdict = ("steady" if spread < bound / 3
                       else "within bound" if spread <= bound else "NOISY")
            ok = ok and spread <= bound
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {maxmin:8.4f} "
              f"{'' if bound is None else bound:>6}  {verdict}")
    if not (ok and all_correct):
        sys.exit(1)


def run_all(args, bench):
    """Every workload, untraced then traced: all metrics with units."""
    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.workload, args.trace = workload, trace
            rec = one_run(args, bench)
            all_correct = all_correct and rec["correct"]
    if not all_correct:
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--steadiness", type=int, default=0, metavar="K")
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--record", metavar="SEEDS")
    args = parser.parse_args()
    bench = load_benchmark_json()
    if args.seconds is None:
        args.seconds = int(bench["run_seconds"])
    if args.seconds < 1 or args.seconds > 600:
        die("--seconds must be in [1, 600]", 2)
    if args.all:
        run_all(args, bench)
        return
    if args.workload is None:
        die("--workload is required", 2)
    if args.record:
        record_digests(args)
        return
    if args.steadiness:
        steadiness(args, bench)
        return
    rec = one_run(args, bench)
    print(json.dumps(rec["result"], separators=(",", ":")))
    if not rec["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
