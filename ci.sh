#!/usr/bin/env bash
# CI entry point: build and test the normal and sanitized configurations.
#
#   ./ci.sh            all configs, full test suite under each
#   ./ci.sh fault      fault-tolerance suites only (ctest -L fault)
#   ./ci.sh perf       bench smoke gates only (ctest -L perf)
#   ./ci.sh obs        observability suites only (ctest -L obs)
#   ./ci.sh sched      step-graph scheduler suites only (ctest -L sched)
#   ./ci.sh pipeline   chunked streaming suites only (ctest -L pipeline)
#   ./ci.sh scale      1000-rank scale-out suites only (ctest -L scale)
#   ./ci.sh convergence  compressor-family convergence suites (ctest -L convergence)
#   ./ci.sh LABEL      any other ctest label the same way (ctest -L LABEL)
#   ./ci.sh bench      build the normal config only and regenerate the six
#                      BENCH_*.json files at the repo root (full, not smoke,
#                      runs; wall-clock numbers want an otherwise idle host)
#
# Every config builds with -DCOMPSO_WERROR=ON: the tree compiles without a
# warning under all three, and a new one fails CI.
#
# The sanitized config (-DCOMPSO_SANITIZE=ON) runs everything under
# AddressSanitizer + UBSan, which is what gives the fault/recovery paths
# their teeth: an out-of-bounds decode of a corrupted payload or a damaged
# checkpoint frame (test_ckpt_fuzz mutates every checkpoint section ≥1000
# times) fails the build's tests even if it happens not to crash.
#
# The fault lane (ctest -L fault) runs in all three configs and covers the
# recovery policies (test_fault), checkpoint round-trips (test_checkpoint),
# the membership/liveness ladder + rejoin re-sync (test_membership), the
# 200-step fault-storm bit-determinism soak (test_fault_storm), the
# checkpoint fuzz contract (test_ckpt_fuzz), and the end-to-end drill
# (example_fault_drill, which exits nonzero unless the crashed rank
# rejoins and the resumed run is bit-exact).
#
# The TSan config (-DCOMPSO_TSAN=ON) runs everything under
# ThreadSanitizer — that is what keeps the parallel compression engine
# (thread pool + engine batches in DistSgd/DistKfac) AND the blocked math
# engine's parallel_for_static row-block path (test_math, test_engine,
# bench_math_smoke, bench_train_smoke) honest. ASan and TSan cannot share
# a binary, hence the separate build directory.
#
# The obs lane (ctest -L obs) runs in all three configs: the normal
# config checks byte-identical trace/metrics exports across thread
# counts and save/resume, the ASan+UBSan config keeps the JSON exporter
# clean under the adversarial span-name fuzz, and the TSan config
# validates the metrics registry's sharded cross-thread accumulation.
# The bench_obs_smoke gate (micro_train_throughput --smoke --trace)
# additionally schema-validates the emitted trace.json and enforces the
# metrics-on vs metrics-off overhead budget.
#
# The sched lane (ctest -L sched) also runs in all three configs: the
# normal config checks the scheduler's deterministic order, bit-exact
# trajectories at any engine thread count (clean, fault-injected, and
# across checkpoint resume) and the trace-derived overlap/idle-gap gate;
# the ASan+UBSan and TSan configs keep the graph's submit/reap lifetime
# and cross-thread task handoff honest.
#
# The pipeline lane (ctest -L pipeline) also runs in all three configs
# (DESIGN.md §15): test_pipeline covers chunk-frame/cursor round trips
# and mid-stream resume, the >= 1000-mutation-per-category chunk fuzz
# (header, CRC, mid-chunk truncation, duplicate — whose OOB teeth come
# from the ASan+UBSan config), the chunk-scoped fault plan, the
# per-round chunk collective, and the chunked == unchunked bit-exact
# trajectory gates (clean, fault-injected + retried, and across
# checkpoint resume; the TSan config drives the per-round frame tasks
# on the engine pool). The bench_pipeline_smoke gate (ablation_overlap
# --smoke) enforces chunked >= 1.3x unchunked at Slingshot-10 plus
# byte-identity and transport/model agreement.
#
# The scale lane (ctest -L scale) also runs in all three configs
# (DESIGN.md §16): test_scale covers the Topology rank-map properties,
# per-algorithm collective byte-identity against the flat canonical
# reduction (adversarial world sizes, masked participation), the
# selection/time-model invariants (legacy formulas bit-for-bit with
# selection off; hierarchical beats the flat ring at >= 256 ranks), and
# the sharded preconditioning contract: sharded-vs-KAISA bit-identity at
# any engine thread count (TSan keeps the owner-grouped engine batches
# honest), deterministic owner reassignment on eviction, and bit-exact
# checkpoint resume between a reassignment and the next eigh refresh.
# The bench_scale_smoke gate (scale_sweep --smoke) re-proves the
# bit-identity and memory gates end to end and emits BENCH_scale.json —
# every gate is deterministic, so it holds under both sanitizers.
#
# The convergence lane (ctest -L convergence) also runs in all three
# configs (DESIGN.md §17): test_error_feedback covers the EF wrapper's
# residual properties (plateau bound, EF-over-identity == identity SGD
# bit-for-bit), the rollback-on-fallback / reset-on-rejoin lifecycle, the
# versioned EF CKPT section's typed validation (ASan+UBSan gives the
# damage paths their teeth), and the trainer determinism matrix for the
# EF families (engine threads x corrupt/drop/NaN faults x resume);
# test_sketch covers the sketch estimators' unbiasedness/variance over
# >= 1000 seeded draws, counter-derived seed-stream determinism (TSan
# keeps the concurrent per-stream counters honest), exact
# max_payload_bytes, and payload/state damage rejection. The
# bench_convergence_smoke gate fails unless EF-over-top-k beats plain
# top-k at equal compression budget and every family's curve is finite.
#
# The full default pass includes the two bench smoke gates
# (bench/micro_math_throughput --smoke, bench/micro_train_throughput
# --smoke): they enforce the blocked >= 4x naive gemm criterion at 512^3
# (uninstrumented configs) and serial == parallel bit-identity, and leave
# BENCH_math.json / BENCH_train.json in each build directory.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"
LABEL="${1:-}"

run_suite() {
  local dir="$1"; shift
  cmake -S . -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCOMPSO_WERROR=ON \
    "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  # An empty label selects every test.
  ctest --test-dir "$dir" -L "$LABEL" --output-on-failure -j "$JOBS"
}

if [ "$LABEL" = bench ]; then
  cmake -S . -B build-ci -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCOMPSO_WERROR=ON \
    >/dev/null
  cmake --build build-ci -j "$JOBS"
  root="$(pwd)"
  # Run from the build tree so anything else a bench writes stays there.
  cd build-ci/bench
  for spec in micro_compressor_throughput:BENCH_compress.json \
              micro_math_throughput:BENCH_math.json \
              micro_train_throughput:BENCH_train.json \
              ablation_overlap:BENCH_overlap.json \
              scale_sweep:BENCH_scale.json \
              bench_convergence:BENCH_convergence.json; do
    echo "=== ${spec%%:*} -> ${spec#*:} ==="
    "./${spec%%:*}" "$root/${spec#*:}"
  done
  echo "ci.sh: BENCH_*.json regenerated"
  exit 0
fi

echo "=== config 1/3: normal ==="
run_suite build-ci

echo "=== config 2/3: AddressSanitizer + UBSan ==="
run_suite build-asan -DCOMPSO_SANITIZE=ON

echo "=== config 3/3: ThreadSanitizer ==="
run_suite build-tsan -DCOMPSO_TSAN=ON

echo "ci.sh: all green"
