#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 10 --trace 0

Workloads: paper-mix, lubm-param, snapshot-batch (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. A wrong answer exits
non-zero without that line.

The engine is compiled from `src/`, and the frozen reference engine from
`perfbench/ref/` (README.md, The reference engine), with
perfbench/CMakeLists.txt into `$CARGO_TARGET_DIR/perfbench` (default
`.bench_build/perfbench`). Generated
datasets and snapshots live in a per-run directory under the build
directory and are removed afterwards; traced runs leave their spans in
`<build>/traces/`.
"""

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def call(cmd, timeout=None, **kwargs):
    """Runs `cmd` and returns its exit code. The child never outlives this
    process: on a timeout, an exception or SIGTERM it is killed and
    waited for."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        fail("engine sources not found under %s/src; run from a full checkout"
             % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    for attempt in range(2):
        # Build output goes to stderr: stdout carries only the report.
        ok = (call(configure, stdout=sys.stderr) == 0 and
              call(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr) == 0)
        if ok:
            return os.path.join(build_dir, "perfbench")
        if attempt == 0 and os.path.isdir(build_dir):
            # A cache from another source tree or a broken partial build:
            # start over once.
            shutil.rmtree(build_dir)
    fail("build failed")


def main(argv):
    signal.signal(signal.SIGTERM, on_sigterm)
    ap = argparse.ArgumentParser(
        description="Build and run the end-to-end benchmark; arguments not "
        "listed here (--tiny, --break-oracle, --digest) go to the program.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, _ = ap.parse_known_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.workload + args.seed):
        fail("malformed --workload or --seed")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)

    work_dir = os.path.join(build_root, "work",
                            "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary] + argv + ["--work-dir", work_dir]
    if args.trace == "1":
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%s.json" % (args.workload, args.seed))]
    try:
        code = call(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, code=4)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
