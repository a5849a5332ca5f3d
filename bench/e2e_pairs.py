#!/usr/bin/env python3
"""Alternating end-to-end pairs of two checkouts on perfbench.

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
N times in each of two checkouts (a parent and a change), alternating which
side goes first from pair to pair, each checkout building into its own
CARGO_TARGET_DIR. Every run is appended to a JSON list (default
BENCH_e2e.json at the repository root) with its workload, seed, side,
commit, pair index, the program's result line, the reference engine's
median round, the engine's measured wall-time figures and the
per-query-group medians. At the end it prints, per
end-to-end metric of BENCHMARK.json and per side, the median, the
interquartile range and, for the change, the pairs it won; then the
reference's median round per side and, with --queries, per-group medians.
With --fail-on-bound it also exits non-zero when the change's median of
any end-to-end metric is worse than the parent's by more than that
metric's `bound` in BENCHMARK.json (a relative share: 0.25 is 25%).

Example:
  python3 bench/e2e_pairs.py --parent ../parent --change . \\
      --workload paper-mix --seed 1 --pairs 10 --seconds 20
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REF_ROUND = re.compile(r"reference round ms: median wall ([0-9.eE+-]+), "
                       r"cpu ([0-9.eE+-]+)")
GROUPS = re.compile(r"^median ms per query group: (.*)$", re.M)
WALL = re.compile(r"^measured wall: latency_p50_ms (\S+) latency_p99_ms (\S+) "
                  r"qps (\S+)$", re.M)


def commit_of(checkout):
    try:
        out = subprocess.run(["git", "-C", checkout, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return os.path.basename(os.path.abspath(checkout))


def run_once(checkout, target_dir, args):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target_dir
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    text = proc.stdout + proc.stderr
    record = {"returncode": proc.returncode}
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if lines:
        record["result"] = json.loads(lines[-1])
    m = REF_ROUND.search(text)
    if m:
        record["reference_round_ms"] = {"wall": float(m.group(1)),
                                        "cpu": float(m.group(2))}
    m = WALL.search(text)
    if m:
        record["measured_wall"] = {"latency_p50_ms": float(m.group(1)),
                                   "latency_p99_ms": float(m.group(2)),
                                   "qps": float(m.group(3))}
    m = GROUPS.search(text)
    if m:
        record["query_medians_ms"] = {
            k: float(v) for k, v in
            (item.split("=") for item in m.group(1).split())}
    if proc.returncode != 0 or "result" not in record:
        sys.stderr.write(text[-2000:])
    return record


def append(path, record):
    records = []
    if os.path.exists(path):
        with open(path) as f:
            records = json.load(f)
    records.append(record)
    with open(path, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(runs, pairs, benchmark, queries):
    metrics = [(m["name"], m["better"]) for m in benchmark["end_to_end"]]
    by_side = {"parent": [], "change": []}
    for r in runs:
        by_side[r["side"]].append(r)

    def value(r, name):
        return r["result"]["metrics"][name]["value"]

    print("%-16s %-7s %12s %12s %s" % ("metric", "side", "median", "IQR",
                                       "wins"))
    for name, better in metrics:
        for side in ("parent", "change"):
            vals = [value(r, name) for r in by_side[side]
                    if "result" in r]
            if not vals:
                continue
            q1, q3 = quartiles(vals)
            wins = ""
            if side == "change":
                won = 0
                for p in range(pairs):
                    a = [r for r in by_side["parent"] if r["pair"] == p]
                    b = [r for r in by_side["change"] if r["pair"] == p]
                    if not a or not b or "result" not in a[0] or \
                            "result" not in b[0]:
                        continue
                    va, vb = value(a[0], name), value(b[0], name)
                    won += (vb < va) if better == "lower" else (vb > va)
                wins = "%d/%d" % (won, pairs)
            print("%-16s %-7s %12.5g %12.5g %s" % (
                name, side, statistics.median(vals), q3 - q1, wins))
    for side in ("parent", "change"):
        cpu = [r["reference_round_ms"]["cpu"] for r in by_side[side]
               if "reference_round_ms" in r]
        if cpu:
            print("reference median round (cpu ms), %s: %.1f (runs: %s)" % (
                side, statistics.median(cpu),
                " ".join("%.1f" % c for c in cpu)))
        wall = [r["measured_wall"]["latency_p50_ms"] for r in by_side[side]
                if "measured_wall" in r]
        if wall:
            print("measured wall p50 (ms, not normalized), %s: %.4g" % (
                side, statistics.median(wall)))
    for q in queries:
        row = []
        for side in ("parent", "change"):
            vals = [r["query_medians_ms"][q] for r in by_side[side]
                    if q in r.get("query_medians_ms", {})]
            row.append("%.4g" % statistics.median(vals) if vals else "-")
        print("query %-12s parent %s ms, change %s ms" % (q, row[0], row[1]))
    failed = [r for r in runs if r.get("returncode") != 0 or
              not r.get("result", {}).get("correct") or
              r["result"].get("failed", 1) != 0]
    print("runs not clean (nonzero exit, failed > 0 or wrong answer): %d" %
          len(failed))
    return 1 if failed else 0


def bound_failures(runs, benchmark):
    """End-to-end metrics whose change median is worse than the parent
    median by more than the metric's relative bound; prints one line per
    checked metric."""
    failures = []
    for m in benchmark["end_to_end"]:
        med = {}
        for side in ("parent", "change"):
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                    if r["side"] == side and "result" in r and
                    m["name"] in r["result"].get("metrics", {})]
            if vals:
                med[side] = statistics.median(vals)
        if len(med) < 2 or med["parent"] == 0:
            continue
        delta = (med["change"] - med["parent"]) / med["parent"]
        worse = delta if m["better"] == "lower" else -delta
        bad = worse > m["bound"]
        print("bound %-16s parent %.5g change %.5g worse by %+.1f%% "
              "(bound %.0f%%)%s" % (m["name"], med["parent"], med["change"],
                                    100 * worse, 100 * m["bound"],
                                    " EXCEEDED" if bad else ""))
        if bad:
            failures.append(m["name"])
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--parent-commit", help="label (default: git HEAD)")
    ap.add_argument("--change-commit", help="label (default: git HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--target-dir",
                    help="build root; each side builds in <dir>/<side> "
                    "(default: each checkout's own .bench_build)")
    ap.add_argument("--variant", help="free-text tag stored with each run")
    ap.add_argument("--queries", default="",
                    help="comma-separated query groups to summarize")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    ap.add_argument("--fail-on-bound", action="store_true",
                    help="exit 3 when a change median of an end-to-end "
                    "metric is worse than the parent's beyond its "
                    "BENCHMARK.json bound")
    args = ap.parse_args()

    sides = {}
    for side, checkout, label in (("parent", args.parent, args.parent_commit),
                                  ("change", args.change, args.change_commit)):
        checkout = os.path.abspath(checkout)
        target = (os.path.join(os.path.abspath(args.target_dir), side)
                  if args.target_dir else
                  os.path.join(checkout, ".bench_build"))
        sides[side] = (checkout, target, label or commit_of(checkout))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)

    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                             "parent")
        for side in order:
            checkout, target, label = sides[side]
            record = {"workload": args.workload, "seed": args.seed,
                      "side": side, "commit": label, "pair": pair,
                      "seconds": args.seconds}
            if args.variant:
                record["variant"] = args.variant
            record.update(run_once(checkout, target, args))
            append(args.out, record)
            runs.append(record)
            m = record.get("result", {}).get("metrics", {})
            print("pair %d %-6s geomean_ms %s p50 %s p99 %s qps %s" % (
                pair, side,
                *("%.5g" % m[k]["value"] if k in m else "-" for k in (
                    "geomean_ms", "latency_p50_ms", "latency_p99_ms",
                    "qps"))), flush=True)
    queries = [q for q in args.queries.split(",") if q]
    code = summarize(runs, args.pairs, benchmark, queries)
    if args.fail_on_bound and bound_failures(runs, benchmark) and code == 0:
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
