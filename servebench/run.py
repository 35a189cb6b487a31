#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload mix|whale|storm [--seed N]
                              [--seconds N] [--trace 0|1]
    python3 servebench/run.py --repeat N [--workload W] [--seed N] ...
    python3 servebench/run.py --smoke
    python3 servebench/run.py --write-manifest

Every mode first builds, from source and offline, the `cut-server` binary
of the repository's workspace and this directory's `servebench` package,
into `$CARGO_TARGET_DIR` (default `.bench_build`, relative to the working
directory). A single run then executes `servebench` with the same flags; its
last stdout line is the JSON result.

`--repeat N` runs each gated workload (or the one given) N times on seeds
SEED, SEED+1, ... and prints, per metric, the median, the quartiles, the
interquartile range and (max - min) as shares of the median: which metrics
are steady and which are unresolved. `--smoke` runs every workload at a tiny
size on the default and the held-out seed, traced and untraced, and checks
that every metric is emitted. `--write-manifest` regenerates
`BENCHMARK.json` at the repository root from the benchmark's metric
catalogue.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mix", "whale", "storm"]
# The workloads BENCHMARK.json lists (whale is run by hand; see README.md).
GATED = ["mix", "storm"]


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        [os.path.join(ROOT, "Cargo.toml"), "-p", "cut_server", "--bin", "cut-server"],
        [os.path.join(HERE, "Cargo.toml")],
    ]
    for manifest, *extra in steps:
        cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest, *extra]
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"error: build failed: {' '.join(cmd)}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(workload, results):
    """Per-metric median, quartiles and spreads over repeated runs."""
    print(f"\nsteadiness: {workload}, {len(results)} runs")
    print(f"  {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'range/med':>9}")
    names = list(results[0]["metrics"])
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        print(f"  {name:<36} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {iqr:>8.3f} {rng:>9.3f}  {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--ops", type=int, help="operations per stream (default: per workload)")
    ap.add_argument("--repeat", type=int, help="runs per workload, on consecutive seeds")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    binary = os.path.join(target, "release", "servebench")
    common = [
        "--server", os.path.join(target, "release", "cut-server"),
        "--scratch", os.path.join(target, "servebench-scratch"),
    ]
    if args.ops:
        common += ["--ops", str(args.ops)]

    if args.write_manifest:
        manifest = subprocess.run([binary, "--manifest"], check=True, capture_output=True, text=True)
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(manifest.stdout)
        return 0
    if args.smoke:
        return subprocess.run([binary, "--smoke", *common]).returncode
    if args.repeat:
        status = 0
        for workload in [args.workload] if args.workload else GATED:
            results = []
            for i in range(args.repeat):
                cmd = [binary, "--workload", workload, "--seed", str(args.seed + i),
                       "--seconds", str(args.seconds), "--trace", args.trace, *common]
                done = subprocess.run(cmd, capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(done.stdout + done.stderr)
                    status = 1
                    continue
                results.append(json.loads(lines[-1]))
                print(f"{workload} seed={args.seed + i}: {lines[-1]}", flush=True)
            if results:
                summarize(workload, results)
        return status
    if not args.workload:
        ap.error("--workload is required for a single run")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, *common]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
