#!/usr/bin/env python3
"""Self-check of the benchmark harness at a tiny scale (about a minute).

    python3 perfbench/selfcheck.py

Checks, for every workload in BENCHMARK.json:
  1. an untraced run prints every end-to-end metric, and a traced run every
     per-layer metric, each with the unit BENCHMARK.json declares, both as a
     `metric` line and in the final JSON object (plus the failed_frac line);
  2. a deliberately wrong expected hash (--break-oracle) fails the run:
     non-zero exit and no result line;
  3. the same seed yields the same datasets and query stream (--digest),
     and another seed yields different ones.
Exits non-zero if any check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, *extra):
    args = RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
                  "1", "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def check_metrics(workload, trace, expected):
    code, lines = run(workload, 7, trace)
    result = result_of(lines)
    label = "%s --trace %d" % (workload, trace)
    check(code == 0 and result is not None and result.get("correct") is True,
          label + ": exits 0 with a correct result")
    if result is None:
        return
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for m in expected:
        got = result["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"] and
              printed.get(m["name"]) == m["unit"] and
              isinstance(got.get("value"), (int, float)),
              "%s: %s printed with unit %s" % (label, m["name"], m["unit"]))
    check(set(result["metrics"]) == {m["name"] for m in expected},
          label + ": no metric beyond BENCHMARK.json's list")
    if trace == 0:
        for name in ("failed_frac", "ttfa_ms"):
            check(any(l.startswith(name + " ") for l in lines),
                  "%s: %s printed" % (label, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # lubm-param is runnable by name but not in BENCHMARK.json (README.md
    # says why); it is checked all the same.
    names = [w["name"] for w in bench["workloads"]]
    if "lubm-param" not in names:
        names.append("lubm-param")
    for name in names:
        check_metrics(name, 0, bench["end_to_end"])
        check_metrics(name, 1, bench["per_layer"])

        code, lines = run(name, 7, 0, "--break-oracle")
        check(code != 0 and result_of(lines) is None,
              name + ": a wrong expected hash fails the run")

        digests = [run(name, seed, 0, "--digest") for seed in (7, 7, 8)]
        same = digests[0][0] == 0 and digests[0][1] and \
            digests[0][1] == digests[1][1]
        check(bool(same), name + ": same seed, same datasets and stream")
        check(digests[2][0] == 0 and digests[2][1] != digests[0][1],
              name + ": another seed, other datasets and stream")

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
