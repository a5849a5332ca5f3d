#!/usr/bin/env python3
"""Runs one workload under several seeds and prints, per metric, the median
and the quartile spread (Q3 - Q1) as a share of the median -- the check a
benchmark result must pass before two commits can be compared.

    python3 perfbench/spread.py --workload paper-mix --seeds 1-5 --seconds 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d failed with exit code %d" % (seed,
                                                           out.returncode))
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)

    print("%-32s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3",
                                        "spread"))
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print("%-32s %12.6g %12.6g %12.6g %7.1f%%" % (name, med, q1, q3,
                                                      100 * spread))


if __name__ == "__main__":
    main()
