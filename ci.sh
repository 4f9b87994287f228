#!/usr/bin/env bash
# Continuous-integration driver. Thirteen numbered steps run in order
# and each one gates; step 13 gates only when its tools are installed:
#
#   1. tier-1: plain build + full ctest suite (the seed contract);
#   2. sanitizer: rebuild and rerun the suite under
#      AddressSanitizer + UndefinedBehaviorSanitizer;
#   3. protocol lint: verify_policy must prove every shipping policy
#      sound and the broken one unsound with a replaying
#      counterexample; the --necessity pass additionally proves every
#      cache op the shipping lazy policies issue load-bearing and
#      that no classic policy retains a fully-removable call site,
#      archiving the machine-readable verdicts (VERIFY_report.json);
#   4. interleaving exploration: verify_policy --interleave runs the
#      DPOR schedule explorer (src/mc) per shipping policy at a CI
#      budget — the guarded kernel orderings must be race- and
#      violation-free under every policy, the broken-ordering
#      exemplars must produce an oracle-confirmed race with a
#      replayable minimal schedule, and the machine-readable v4
#      report is archived (VERIFY_interleave.json);
#   5. weak-order exploration + fuzz smoke: the same explorer rerun
#      with --memory-order weak (per-CPU store buffers, drain events
#      in the schedule alphabet) at a CI budget, plus a seeded
#      schedule-fuzzing pass — the guarded choreographies must stay
#      clean under relaxation, the missing-fence exemplar must
#      produce an oracle-confirmed weak-order window, the fuzzer
#      must discover no trace DPOR missed, and the report is
#      archived (VERIFY_weak.json);
#   6. multiprocessor coherence exploration: verify_policy
#      --interleave --coherence runs the cross-cache catalog — the
#      sharing pairs must be benign (positively reported) on the
#      MESI machine and the non-coherent regression must yield an
#      oracle-confirmed race — archiving VERIFY_coherence.json;
#   7. bench smoke: vic_bench sweeps every suite at smoke scale
#      through the experiment engine, gated on zero oracle
#      violations, and archives the JSON artifact (BENCH_smoke.json);
#      the same sweep rerun serially must produce an artifact
#      equivalent to the parallel one modulo wall-clock — the
#      engine's determinism contract;
#   8. micro-benchmark smoke: micro_ops (google-benchmark rows for
#      each layer's hot path) runs once at a short min-time, gated on
#      its exit status only — the numbers are host-dependent, the
#      rows must simply keep building and running;
#   9. Release smoke: vic_bench --smoke rebuilt at Release (-O3), its
#      artifact asserted equivalent to the default build's (the
#      pipeline's functional behaviour must not depend on the
#      optimisation level);
#  10. perf gate: tools/perf_gate.py runs perfbench on this tree and
#      on its base commit in alternating pairs on every BENCHMARK.json
#      workload, failing on a simulated-work difference or a median
#      ratio of any BENCHMARK.json end_to_end metric worse than its
#      bound
#      (docs/BENCHMARKING.md, "The perf gate");
#  11. thread sanitizer: the threaded fan-outs (experiment engine
#      tests + the smoke sweep + the model checker's exploreMany +
#      the CoherenceBus head-to-head paths) rebuilt and rerun under
#      TSan;
#  12. static analysis: tools/vic_lint runs both invariant passes
#      (determinism, layering — see docs/STATIC_ANALYSIS.md) over the
#      tree, gating on zero diagnostics, and archives LINT_report.json
#      (schema v3) plus LINT_report.sarif for CI annotators;
#  13. style lint: clang-format / clang-tidy, gating when installed
#      and skipped with a notice otherwise (they are configs-first:
#      the repo must stay clean under gcc -Werror regardless).
#
# Usage: ./ci.sh [--full] [jobs]
#
# --full additionally runs the full-scale (non-smoke) Table 1 sweep
# with its calibrated shape checks gating — minutes of extra runtime,
# so it is opt-in rather than part of every CI pass.

set -euo pipefail
cd "$(dirname "$0")"

FULL=0
if [[ "${1:-}" == "--full" ]]; then
    FULL=1
    shift
fi
JOBS="${1:-$(nproc)}"

step() { printf '\n=== %s ===\n' "$*"; }

step "tier-1: build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

step "tier-1: ctest"
(cd build && ctest --output-on-failure -j "$JOBS")

step "sanitizer build (address;undefined)"
cmake -B build-asan -S . \
    -DVIC_SANITIZE="address;undefined" -DVIC_WERROR=ON >/dev/null
cmake --build build-asan -j "$JOBS"

step "sanitizer ctest"
(cd build-asan && ctest --output-on-failure -j "$JOBS")

step "protocol lint (verify_policy --necessity)"
./build/tools/verify_policy --necessity --json VERIFY_report.json
echo "artifact archived: VERIFY_report.json"

step "interleaving exploration (verify_policy --interleave)"
./build/tools/verify_policy --interleave --budget 5000 --jobs 2 \
    --json VERIFY_interleave.json
echo "artifact archived: VERIFY_interleave.json"

step "weak-order exploration + fuzz smoke (--memory-order weak)"
./build/tools/verify_policy --interleave --memory-order weak \
    --fuzz 200 --fuzz-seed 42 --budget 20000 --jobs 2 \
    --json VERIFY_weak.json
echo "artifact archived: VERIFY_weak.json"

step "multiprocessor coherence exploration (--coherence)"
./build/tools/verify_policy --interleave --coherence \
    --budget 5000 --jobs 2 --json VERIFY_coherence.json
echo "artifact archived: VERIFY_coherence.json"

step "bench smoke sweep (vic_bench, --jobs 2)"
./build/tools/vic_bench --smoke --jobs 2 --json BENCH_smoke.json
echo "artifact archived: BENCH_smoke.json"

step "bench determinism (--jobs 1 vs --jobs 2 artifacts)"
./build/tools/vic_bench --smoke --jobs 1 --json BENCH_smoke_j1.json \
    >/dev/null
./build/tools/vic_bench --diff BENCH_smoke_j1.json BENCH_smoke.json
rm -f BENCH_smoke_j1.json

step "micro-benchmark smoke (micro_ops, exit status only)"
./build/bench/micro_ops --benchmark_min_time=0.01

step "Release smoke (Release -O3, artifact equivalence)"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$JOBS" --target vic_bench
./build-release/tools/vic_bench --smoke --jobs 2 \
    --json BENCH_smoke_release.json
./build/tools/vic_bench --diff BENCH_smoke.json BENCH_smoke_release.json
rm -f BENCH_smoke_release.json

step "perf gate (perfbench A/B against the base commit)"
python3 tools/perf_gate.py

if [[ "$FULL" == 1 ]]; then
    step "full-scale Table 1 sweep (opt-in, calibrated shape checks)"
    ./build/tools/vic_bench --filter table1 --jobs "$JOBS" \
        --json BENCH_table1_full.json
    echo "artifact archived: BENCH_table1_full.json"

    step "full-scale coherence head-to-head (opt-in, Release)"
    # The hardware-vs-software suite at calibrated scale: its shape
    # checks (zero software ops on the HW rows, nonzero bus/snoop
    # work, lazy <= classic software cycles) gate rather than advise.
    # Release build — full-scale 2-CPU MESI runs are the most
    # expensive in the tree. Numbers are recorded in EXPERIMENTS.md.
    cmake --build build-release -j "$JOBS" --target vic_bench
    ./build-release/tools/vic_bench --filter coherence --jobs "$JOBS" \
        --json BENCH_coherence_full.json
    echo "artifact archived: BENCH_coherence_full.json"
fi

step "thread sanitizer build (experiment engine + model checker + coherence)"
cmake -B build-tsan -S . -DVIC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
    --target experiment_engine_test vic_bench mc_test \
             weak_order_test multiprocessor_test

step "thread sanitizer: engine tests + smoke sweep + explorer + coherence"
./build-tsan/tests/experiment_engine_test
./build-tsan/tools/vic_bench --smoke --jobs 4 --json /dev/null \
    >/dev/null
./build-tsan/tests/mc_test >/dev/null
./build-tsan/tests/weak_order_test >/dev/null
# The CoherenceBus paths from the multi-CPU PR, driven two ways: the
# MESI/kernel suites directly, and the engine fanning multi-CPU
# sweeps across worker threads.
./build-tsan/tests/multiprocessor_test >/dev/null
./build-tsan/tools/vic_bench --smoke --filter coherence --jobs 4 \
    --json /dev/null >/dev/null
echo "TSan: clean"

step "static analysis (vic_lint, all passes)"
cmake --build build -j "$JOBS" --target vic_lint >/dev/null
./build/tools/vic_lint --root . --json LINT_report.json \
    --sarif LINT_report.sarif
echo "artifacts archived: LINT_report.json LINT_report.sarif"

step "style lint"
if command -v clang-format >/dev/null 2>&1; then
    mapfile -t sources < <(git ls-files '*.cc' '*.hh')
    clang-format --dry-run --Werror "${sources[@]}"
    echo "clang-format: clean"
else
    echo "clang-format not installed — skipping (config: .clang-format)"
fi
if command -v clang-tidy >/dev/null 2>&1 && \
   command -v run-clang-tidy >/dev/null 2>&1; then
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    # Gating: any finding fails the build.
    run-clang-tidy -p build -quiet -warnings-as-errors='*' \
        "src/.*" "tools/.*"
    echo "clang-tidy: clean"
else
    echo "clang-tidy not installed — skipping (config: .clang-tidy)"
fi

step "OK"
