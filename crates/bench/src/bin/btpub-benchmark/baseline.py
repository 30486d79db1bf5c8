#!/usr/bin/env python3
"""Records a baseline of repeated benchmark runs and has the benchmark
judge it.

Run from the repository root:

    python3 crates/bench/src/bin/btpub-benchmark/baseline.py --out FILE \
        [--sets 2] [--runs 10] [--workload NAME ...]

Each set runs every workload `--runs` times, each run with another seed
(set s, run k uses seed 100*s + k + 2; seeds 0 and 1 are pinned and stay
out of the baseline), through the command in BENCHMARK.json. For every
end-to-end metric it records each run's value, the median, and the spread:
the distance between the first and third quartile
(`statistics.quantiles`, n=4) as a share of the median. It writes them to
FILE, then runs the benchmark's `--compare FILE`, which holds the bounds
and prints the verdict; its exit code is this script's.
`python3 -m doctest baseline.py` runs the examples below.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def iqr(values):
    """Distance between the first and third quartile.

    >>> iqr([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    5.5
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def spread(values):
    """Interquartile distance as a share of the median.

    >>> round(spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 4)
    1.0
    >>> spread([5.0] * 10)
    0.0
    """
    mid = statistics.median(values)
    return iqr(values) / mid if mid else 0.0


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]

    sets = []
    longest = 0.0
    for s in range(args.sets):
        values = {w: {m: [] for m in metrics} for w in workloads}
        seeds = [100 * s + k + 2 for k in range(args.runs)]
        # Workloads interleave, so slow drift on the machine lands on all
        # of them rather than on whichever ran last.
        for seed in seeds:
            for w in workloads:
                got, wall = run_once(bench, w, seed)
                longest = max(longest, wall)
                for m in metrics:
                    values[w][m].append(got[m])
                print(f"set {s} seed {seed} {w}: {wall:.1f}s", file=sys.stderr)
        summary = {
            w: {
                m: {
                    "median": statistics.median(v),
                    "iqr": iqr(v),
                    "spread": spread(v),
                    "values": v,
                }
                for m, v in values[w].items()
            }
            for w in workloads
        }
        sets.append({"seeds": seeds, "workloads": summary})

    with open(args.out, "w") as f:
        json.dump({"cpus": os.cpu_count(), "run_seconds": bench["run_seconds"],
                   "longest_run_s": round(longest, 1), "sets": sets}, f, indent=1)
        f.write("\n")
    print(f"longest run {longest:.1f}s, cpus {os.cpu_count()}")
    sys.exit(subprocess.run(bench["command"] + ["--compare", args.out]).returncode)


if __name__ == "__main__":
    main()
