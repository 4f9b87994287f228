#!/usr/bin/env python3
"""Host-speed benchmark of the virtually-indexed-cache simulator.

Builds the simulator and the benchmark program from the sources of this
checkout (CMake, Release), runs the metric-arithmetic tests, then runs
one workload for a time budget and prints its metrics. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Exit status 0 iff the build, the tests and every
correctness check passed.

Run from the root of the checkout:

    python3 perfbench/run.py --workload paper-uni --seed 0 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); traced runs write their spans to
<build>/traces/<workload>-seed<N>.json. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-uni", "alias-fault", "smp-coherence", "sweep")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step with its output sent to stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target",
                      "perfbench", "perfbench_metrics_test"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    # A SIGTERM unwinds through subprocess.run, which kills and reaps
    # the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1
    if not run_quiet([os.path.join(build_dir, "perfbench_metrics_test")]):
        log("metric arithmetic tests failed")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("the benchmark printed no result")
        return 1
    if proc.returncode != 0 or not result["correct"]:
        log("correctness check failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
