"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload hunt --seeds 1-10 [--seconds 20]

Runs run.py once per seed, one after another, and prints for each metric
the median, the quartiles (statistics.quantiles(values, n=4)) and the
quartile distance as a share of the median.  Before each run it times a
fixed pure-Fraction loop three times, so machine drift shows next to the
figures.  Each run's JSON result and reference times are appended to
perfbench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def reference_loop() -> float:
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 4000):
        total += Fraction(1, k)
    return perf_counter() - start


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", "spread-%s.jsonl" % args.workload)
    values: dict[str, list[float]] = {}
    shares, refs = [], []
    for seed in args.seeds:
        ref = statistics.median(reference_loop() for _ in range(3))
        refs.append(ref)
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        measured = [line for line in lines if line.startswith("as measured")]
        wall = perf_counter() - start
        shares.append(result["failed"] / result["attempted"])
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, "reference_s": ref, "wall_s": wall,
                                 "measured": measured, "result": result}) + "\n")
        print("seed %d wall %.1f s ref %.4f s correct %s attempted %d failed %d  %s" % (
            seed, wall, ref, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
        for line in measured:
            print("    " + line, flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("reference loop: median %.4f s, min %.4f, max %.4f" % (
        statistics.median(refs), min(refs), max(refs)))
    print("failed share per run: %s" % sorted(set(shares)))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print("%-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f" % (
            name, med, q1, q3, (q3 - q1) / med if med else 0.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
