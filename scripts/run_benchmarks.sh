#!/usr/bin/env bash
# Concurrency verification + perf trajectory for the parallel histogram
# pipeline and the read-optimized serving layer:
#
#   1. Run scripts/check.sh --skip-tier1 --tsan: the ThreadSanitizer build
#      over the concurrency suites, whose list lives in check.sh only.
#   2. Build optimized and run bench/bench_json, which times serial vs
#      parallel batched construction, verifies the parallel results are
#      bit-identical to serial, and writes BENCH_histograms.json. The
#      headline cell (M = 100000, beta = 100) is timed 5 times; its 2x
#      gate holds only when the 25th-percentile speedup is >= 2, and reads
#      "not measured" below 4 pool threads.
#   3. Run bench/bench_estimation, which times the legacy decode-per-query
#      estimators against the compiled snapshot serving path and the §12
#      batched fast lane (Eytzinger multi-probe kernel + per-snapshot
#      estimate cache), verifies bit-identical estimates on every rep, and
#      writes BENCH_estimation.json.
#   4. Run bench/bench_refresh, which measures the adaptive refresh
#      subsystem (delta-apply throughput, batched rebuild latency, reader
#      p50/p99 while the daemon churns, and the §15 selftune axis: tuned
#      vs stale q-error on a drifting Zipf workload, cost per in-place change
#      vs a rebuild, tuning-off bit-identical) and writes
#      BENCH_refresh.json.
#   5. Run bench/bench_serving, which drives the epoll HTTP front-end over
#      loopback with a closed-loop load generator swept over concurrent
#      connections, compares the JSON and §12 binary framings on the same
#      batch, and writes BENCH_serving.json (requests/sec, p50/p99/p999
#      request latency per point, binary_vs_json axis).
#   6. Run bench/bench_storage, which times §13 durable storage: snapshot
#      write/load bandwidth, WAL append throughput across the fsync modes,
#      WAL replay rate, and the accept-path overhead of write-before-ack
#      durability on the serving /update path (target < 10%), and writes
#      BENCH_storage.json.
#
# Steps 2-6 each check the artifact they wrote against every gate declared
# for it in scripts/bench_gates.py (the schema and tier-1 gates check.sh
# holds, then the full-sweep gates).
#
# Usage: scripts/run_benchmarks.sh [--quick] [--skip-tsan]
#   --quick      restrict the bench sweep (CI smoke)
#   --skip-tsan  skip step 1 (e.g. when TSan is unavailable on the host)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK_ARGS=()
RUN_TSAN=1
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK_ARGS=(--quick) ;;
    --skip-tsan) RUN_TSAN=0 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

if [[ "$RUN_TSAN" == 1 ]]; then
  scripts/check.sh --skip-tier1 --tsan
fi

echo "== Optimized bench: serial vs parallel batched construction =="
# RelWithDebInfo is the repo's default optimized configuration (-O2); -O3
# Release trips a known GCC-12 -Wrestrict false positive in libstdc++'s
# std::string::replace under -Werror.
cmake -B build-release -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHOPS_BUILD_EXAMPLES=OFF
cmake --build build-release --target bench_json
./build-release/bench/bench_json BENCH_histograms.json "${QUICK_ARGS[@]}"
python3 scripts/bench_gates.py histograms

echo "== Optimized bench: legacy estimators vs compiled snapshot serving =="
cmake --build build-release --target bench_estimation
./build-release/bench/bench_estimation BENCH_estimation.json "${QUICK_ARGS[@]}"
python3 scripts/bench_gates.py estimation

echo "== Optimized bench: adaptive refresh subsystem =="
cmake --build build-release --target bench_refresh
./build-release/bench/bench_refresh BENCH_refresh.json "${QUICK_ARGS[@]}"
python3 scripts/bench_gates.py refresh

echo "== Optimized bench: HTTP serving front-end =="
cmake --build build-release --target bench_serving
./build-release/bench/bench_serving BENCH_serving.json "${QUICK_ARGS[@]}"
python3 scripts/bench_gates.py serving

echo "== Optimized bench: durable storage (snapshot + WAL + recovery) =="
cmake --build build-release --target bench_storage
./build-release/bench/bench_storage BENCH_storage.json "${QUICK_ARGS[@]}"
python3 scripts/bench_gates.py storage

echo "run_benchmarks.sh: all checks passed; wrote BENCH_histograms.json," \
     "BENCH_estimation.json, BENCH_refresh.json, BENCH_serving.json, and" \
     "BENCH_storage.json"
