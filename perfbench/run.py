#!/usr/bin/env python3
"""Builds the repository from source and runs its benchmark.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload, in its own perfbench process. The last line
      of stdout is the result: {"correct", "attempted", "failed", "metrics"},
      the end-to-end metrics untraced or the per-layer metrics traced.
  python3 perfbench/run.py --steady [--runs 10] [--first-seed 1]
                           [--seconds S] [--workload NAME ...]
      Runs each workload --runs times, one seed each, and prints the median
      and quartiles of every end-to-end metric against its bound, then one
      traced run per workload: its per-layer metrics and its cost on
      ingest_rows_per_s.
  python3 perfbench/run.py --self-test
      Runs the benchmark's own tests (perfbench/tests).

Run it from anywhere; the build goes to .bench_build/perfbench at the root
of the checkout and nothing is written outside the checkout.
"""

import argparse
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import report  # noqa: E402


def build():
    """Configures until a configure succeeds, then builds only the perfbench
    target (a no-op when nothing changed). Build chatter goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)


def run_once(workload, seed, seconds, trace):
    """The perfbench binary's raw result line for one run."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise report.ContractError("perfbench printed no result")
    return json.loads(lines[-1])


def steady(spec, workloads, runs, first_seed, seconds):
    names = [w["name"] for w in spec["workloads"]]
    for workload in workloads or names:
        untraced = []
        for seed in range(first_seed, first_seed + runs):
            raw = run_once(workload, seed, seconds, trace=False)
            res = report.result(raw, spec, trace=False)
            if not res["correct"]:
                raise report.ContractError(f"{workload} seed {seed}: "
                                           "incorrect run")
            untraced.append({k: v["value"] for k, v in
                             res["metrics"].items()})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in untraced[-1].items()), flush=True)
        print(f"\n{workload}: {runs} runs, seeds {first_seed}.."
              f"{first_seed + runs - 1}, {seconds} s each")
        for line in report.steadiness_table(untraced, spec):
            print("  " + line)
        traced = run_once(workload, first_seed, seconds, trace=True)
        for name, metric in report.result(traced, spec,
                                          trace=True)["metrics"].items():
            print(f"  {name:<36}{metric['value']:>14.6g} {metric['unit']}")
        base = report.spread([r["ingest_rows_per_s"] for r in untraced])[0]
        cost = traced["end_to_end"]["ingest_rows_per_s"] - base
        print(f"  tracing overhead: traced ingest_rows_per_s "
              f"{traced['end_to_end']['ingest_rows_per_s']:.6g} - untraced "
              f"median {base:.6g} = {cost:.6g} ({cost / base:+.1%})\n",
              flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        suite = unittest.defaultTestLoader.discover(os.path.join(HERE,
                                                             "tests"))
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        return 0 if ok else 1

    spec = report.load_spec(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    build()
    if args.steady:
        steady(spec, args.workload, args.runs, args.first_seed, seconds)
        return 0
    if not args.workload or len(args.workload) != 1:
        parser.error("one --workload is required")
    raw = run_once(args.workload[0], args.seed, seconds, bool(args.trace))
    print(json.dumps(report.result(raw, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ValueError, subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
