#!/usr/bin/env python3
"""Builds and runs the RAPIDS end-to-end benchmark.

One run (what BENCHMARK.json names):

    python3 perfbench/run.py --workload suite-es --seed 1 --seconds 10 --trace 0

builds this package and the `rapids-serve` binary offline (into
$CARGO_TARGET_DIR, default `.bench_build` at the repository root), runs
one workload and passes its output through: the last stdout line is the
result JSON.

Spread mode repeats a workload (or, with `--workload all`, each workload)
over seeds and prints, for every metric of the chosen mode, the median,
the quartiles and the quartile spread as a share of the median (the figure
the metric's bound is compared with):

    python3 perfbench/run.py --workload all --spread 10 --seconds 20

Run it from the repository root or anywhere else; paths are resolved from
this file.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["suite-es", "suite-legal-sat", "serve-mixed"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark and the server; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "rapids-serve",
         "--bin", "rapids-serve"],
    ]
    for step in steps:
        # Cargo's progress goes to stderr; stdout stays the result stream.
        done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + step,
                              env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: cargo build {' '.join(step)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "rapids-perfbench"), os.path.join(release, "rapids-serve")


def run_once(bench, serve, workload, seed, seconds, trace, capture):
    scratch = os.path.join(target_dir(), "perfbench-tmp", f"run-{os.getpid()}")
    command = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--serve-bin", serve, "--scratch", scratch]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE if capture else None, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return done


def spread(bench, serve, workload, args):
    values = {}
    units = {}
    for seed in range(1, args.spread + 1):
        done = run_once(bench, serve, workload, seed, args.seconds, args.trace, True)
        if done.returncode != 0:
            sys.exit(f"perfbench: seed {seed} failed with exit code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({share:.6f}) "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{workload}: seeds 1 to {args.spread}, {args.seconds} s runs")
    print(f"{'metric':<28} {'unit':<7} {'q1':>12} {'median':>12} {'q3':>12} {'iqr/med':>8}")
    for name, series in values.items():
        q1, med, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / abs(med) if med else float("nan")
        print(f"{name:<28} {units[name]:<7} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} {share:>8.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"],
                        help="`all` only with --spread")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spread", type=int, default=0,
                        help="repeat over this many seeds and print quartiles")
    args = parser.parse_args()
    if args.workload == "all" and not args.spread:
        parser.error("--workload all needs --spread")
    bench, serve = build()
    if args.spread:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            spread(bench, serve, workload, args)
        return 0
    done = run_once(bench, serve, args.workload, args.seed, args.seconds, args.trace, False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
