#!/usr/bin/env python3
"""Perf gate: perfbench A/B of this checkout against its base commit.

The base is `git merge-base HEAD origin/main`, or HEAD~1 when that is
HEAD itself or predates the benchmark (has no perfbench/run.py). It is
checked out into a git worktree under build-perfgate-base/. Both trees
then run `python3 perfbench/run.py` on every workload BENCHMARK.json
lists, PAIRS times, in alternating order (base first in even pairs,
change first in odd ones), so a slow phase of a shared host falls on
both sides.

The gate fails when any run is not correct, when sim_cycles or
sim_cache_ops differ between the trees, or when a workload's median
per-pair refs_per_s ratio (change / base) is below 1 - bound, with the
bound taken from BENCHMARK.json's refs_per_s entry. The worktree is
removed on every exit, including SIGINT and SIGTERM.

Run from the root of the checkout (uncommitted changes are part of the
change side):

    python3 tools/perf_gate.py
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

PAIRS = 5
SECONDS = 2
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE_DIR = os.path.join(ROOT, "build-perfgate-base")
SAME = ("sim_cycles", "sim_cache_ops")


def log(msg):
    print(f"perf_gate: {msg}", flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def base_commit():
    head = git("rev-parse", "HEAD")
    try:
        base = git("merge-base", "HEAD", "origin/main")
    except subprocess.CalledProcessError:
        base = head
    has_bench = subprocess.run(
        ["git", "-C", ROOT, "cat-file", "-e", f"{base}:perfbench/run.py"],
        capture_output=True).returncode == 0
    if base == head or not has_bench:
        base = git("rev-parse", "HEAD~1")
    return base


def remove_worktree():
    subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                    BASE_DIR], capture_output=True)
    shutil.rmtree(BASE_DIR, ignore_errors=True)
    subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                   capture_output=True)


def perfbench(tree, workload):
    """One run.py invocation in @p tree; its metrics, or None on failure.

    run.py runs in a session of its own, so an interrupted gate kills
    its perfbench child too. CARGO_TARGET_DIR is dropped so each tree
    builds into its own .bench_build/."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            not result.get("correct"):
        sys.stdout.write(err[-4000:])
        return None
    return {k: m["value"] for k, m in result["metrics"].items()}


def gate_workload(workload, bound):
    """Run PAIRS alternating pairs of @p workload; True if it passes."""
    ratios = []
    for pair in range(PAIRS):
        order = [("base", BASE_DIR), ("change", ROOT)]
        if pair % 2:
            order.reverse()
        runs = {}
        for side, tree in order:
            runs[side] = perfbench(tree, workload)
            if runs[side] is None:
                log(f"{workload}: {side} run {pair} is not correct")
                return False
        for key in SAME:
            if runs["base"][key] != runs["change"][key]:
                log(f"{workload}: {key} differs: base "
                    f"{runs['base'][key]:.0f}, change "
                    f"{runs['change'][key]:.0f}")
                return False
        ratios.append(runs["change"]["refs_per_s"] /
                      runs["base"]["refs_per_s"])
    median = statistics.median(ratios)
    ok = median >= 1 - bound
    log(f"{workload}: refs_per_s change/base median {median:.3f} "
        f"(pairs {' '.join(f'{r:.3f}' for r in ratios)}; floor "
        f"{1 - bound:.2f}) -> {'ok' if ok else 'SLOWER'}")
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bound = next(m["bound"] for m in bench["end_to_end"]
                 if m["name"] == "refs_per_s")
    workloads = [w["name"] for w in bench["workloads"]]

    # The trap: SIGTERM and SIGHUP unwind like SIGINT, through the
    # finally below, which removes the worktree.
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda signum, _: sys.exit(128 + signum))
    base = base_commit()
    log(f"base {base[:12]}, {PAIRS} pairs of {SECONDS} s runs on "
        f"{', '.join(workloads)}")
    remove_worktree()
    try:
        git("worktree", "add", "--detach", BASE_DIR, base)
        results = [gate_workload(w, bound) for w in workloads]
    finally:
        remove_worktree()
    ok = all(results)
    log("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
