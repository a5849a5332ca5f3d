#!/usr/bin/env python3
"""Bench-regression gate for CI.

Diffs a google-benchmark-style JSON result (micro_bitops.json,
ablation_tp_cache.json, ...) against a checked-in baseline under
bench/baselines/ and fails when the geometric-mean slowdown across the
shared benchmark names exceeds the threshold (default 25%).

Only `run_type == "iteration"` entries with a time unit are compared;
aggregates (geomean speedups, unit "x") are derived numbers and skipped.
The geomean over many benchmarks damps single-benchmark noise, and the
generous default threshold absorbs runner-to-runner variance; a real
regression in the kernel layer moves most entries at once.

Usage:
  check_regression.py --baseline bench/baselines/micro_bitops.json \
                      --current build/micro_bitops.json [--max-slowdown 1.25]

Baselines are hardware-bound: after an intentional perf shift, or when the
gate trips on a new runner class with no code change, refresh them from
that CI run's `bench-json` artifact with bench/update_baselines.py (see
bench/README.md for the full procedure). Every JSON context records the
recording host's thread count (hardware_threads / num_cpus); when baseline
and current run disagree, a warning flags that ratios may be hardware, not
code. micro_bitops also records the dispatched kernel tier (`simd`); a
baseline without one, or with a different tier, draws the same kind of
warning. Both checks only warn; neither changes the threshold.

Exit codes: 0 ok, 1 regression, 2 unusable input. Unusable input is a
hard failure, never a skip: a missing file, unparseable JSON, a file with
zero comparable iteration entries (crashed or truncated bench run), or
baseline/current sharing no benchmark names all exit 2 so CI cannot
silently pass on a gate that never ran.
"""

import argparse
import json
import math
import sys


def load_benchmarks(path):
    """Returns ({name: real_time} for comparable entries, context dict)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for b in doc.get("benchmarks", []):
        name = b.get("name")
        if not name or b.get("run_type") == "aggregate":
            continue
        if b.get("time_unit") not in ("ns", "us", "ms", "s"):
            continue  # unit-less aggregates like speedup factors
        t = b.get("real_time")
        if isinstance(t, (int, float)) and t > 0:
            out[name] = float(t)
    if not out:
        # A present-but-empty result (crashed bench, truncated upload,
        # aggregates-only file) must fail the gate loudly, not slip through
        # as "nothing to compare".
        print(f"error: {path} contains no comparable iteration benchmarks "
              f"(empty, truncated, or aggregates-only); the gate cannot run.",
              file=sys.stderr)
        sys.exit(2)
    context = doc.get("context")
    return out, context if isinstance(context, dict) else {}


def hardware_threads(context):
    """Thread count recorded in a JSON context: our writers emit
    `hardware_threads` (bench_common.h JsonContext); google-benchmark files
    (micro_bitops) emit `num_cpus`. None when the file predates either."""
    for key in ("hardware_threads", "num_cpus"):
        v = context.get(key)
        if isinstance(v, int) and v > 0:
            return v
    return None


def warn_on_hardware_mismatch(base_ctx, cur_ctx):
    base_hw = hardware_threads(base_ctx)
    cur_hw = hardware_threads(cur_ctx)
    if base_hw is None:
        print("note: baseline records no hardware context; refresh "
              "bench/baselines/ to enable the hardware-mismatch check")
        return
    if cur_hw is not None and base_hw != cur_hw:
        print(f"warning: hardware differs — baseline recorded with "
              f"{base_hw} hardware thread(s), current run has {cur_hw}; "
              f"timing ratios may reflect the machine, not the code. "
              f"Consider refreshing bench/baselines/ from this run's "
              f"bench-json artifact (bench/README.md).")


def warn_on_simd_mismatch(base_ctx, cur_ctx):
    """The kernel tier (`simd`, recorded by micro_bitops) decides what the
    _Simd rows measure; only files that record it are checked."""
    cur_simd = cur_ctx.get("simd")
    if cur_simd is None:
        return
    base_simd = base_ctx.get("simd")
    if base_simd is None:
        print(f"warning: baseline records no kernel tier; current run "
              f"dispatched '{cur_simd}', so _Simd ratios may compare "
              f"different tiers. Refresh bench/baselines/ to enable the "
              f"tier check.")
    elif base_simd != cur_simd:
        print(f"warning: kernel tier differs — baseline ran '{base_simd}', "
              f"current run '{cur_simd}'; _Simd ratios compare different "
              f"tiers, not the code.")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, help="checked-in baseline JSON")
    ap.add_argument("--current", required=True, help="freshly produced JSON")
    ap.add_argument(
        "--max-slowdown",
        type=float,
        default=1.25,
        help="fail when geomean(current/baseline) exceeds this (default 1.25)",
    )
    args = ap.parse_args()

    base, base_ctx = load_benchmarks(args.baseline)
    cur, cur_ctx = load_benchmarks(args.current)
    warn_on_hardware_mismatch(base_ctx, cur_ctx)
    warn_on_simd_mismatch(base_ctx, cur_ctx)
    shared = sorted(set(base) & set(cur))
    missing = sorted(set(base) - set(cur))
    new = sorted(set(cur) - set(base))

    if missing:
        print(f"note: {len(missing)} baseline benchmark(s) absent from current "
              f"run (renamed or removed?): {', '.join(missing[:5])}"
              f"{' ...' if len(missing) > 5 else ''}")
    if new:
        print(f"note: {len(new)} new benchmark(s) without a baseline "
              f"(refresh bench/baselines/): {', '.join(new[:5])}"
              f"{' ...' if len(new) > 5 else ''}")
    if not shared:
        print("error: no benchmark names shared between baseline and current; "
              "the gate cannot run. Refresh the baseline files.",
              file=sys.stderr)
        sys.exit(2)

    worst = []
    log_sum = 0.0
    width = max(len(n) for n in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  ratio")
    for name in shared:
        ratio = cur[name] / base[name]
        log_sum += math.log(ratio)
        worst.append((ratio, name))
        print(f"{name:<{width}}  {base[name]:>12.1f}  {cur[name]:>12.1f}  "
              f"{ratio:>5.2f}x")
    geomean = math.exp(log_sum / len(shared))
    worst.sort(reverse=True)

    print(f"\ngeomean slowdown over {len(shared)} benchmark(s): "
          f"{geomean:.3f}x (limit {args.max_slowdown:.2f}x)")
    if geomean > args.max_slowdown:
        print("REGRESSION: geomean exceeds the limit; worst offenders:")
        for ratio, name in worst[:5]:
            print(f"  {name}: {ratio:.2f}x")
        sys.exit(1)
    print("ok")


if __name__ == "__main__":
    main()
