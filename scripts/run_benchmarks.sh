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

# Sanity-check the emitted JSON (parses, has the headline block).
python3 - <<'EOF'
import json
with open("BENCH_histograms.json") as f:
    doc = json.load(f)
assert doc["bench"] == "histogram_construction", doc.get("bench")
assert isinstance(doc["runs"], list) and doc["runs"], "empty runs"
assert all(r["identical"] for r in doc["runs"]), "non-identical run"
head = doc["headline"]
gate = head["meets_2x_target"]
print(f"headline: M={head['m']} beta={head['beta']} speedup median "
      f"{head['speedup_median']:.2f}x, band p25-p75 "
      f"{head['speedup_p25']:.2f}-{head['speedup_p75']:.2f}x over "
      f"n={head['n']} runs, identical={head['identical']}, "
      f"meets_2x_target="
      f"{'not measured' if gate is None else gate} "
      f"(threads={doc['threads']})")
assert head["identical"]
assert head["n"] >= 5, head["n"]
assert head["speedup_p25"] <= head["speedup_median"] <= head["speedup_p75"]
if gate is not None:
    assert gate == (head["speedup_p25"] >= 2.0)
    assert gate, (f"2x target missed: p25 speedup "
                  f"{head['speedup_p25']:.2f}x < 2.0")
EOF

echo "== Optimized bench: legacy estimators vs compiled snapshot serving =="
cmake --build build-release --target bench_estimation
./build-release/bench/bench_estimation BENCH_estimation.json "${QUICK_ARGS[@]}"

# Sanity-check the emitted JSON (parses, bit-identical, headline gate).
python3 - <<'EOF'
import json
with open("BENCH_estimation.json") as f:
    doc = json.load(f)
assert doc["bench"] == "estimation_serving", doc.get("bench")
assert isinstance(doc["workloads"], list) and doc["workloads"], "no workloads"
assert all(w["identical"] for w in doc["workloads"]), "non-identical workload"
# The §12 ordering gate: the batched lane builds on the snapshot lane and
# must never lose to it.
for w in doc["workloads"]:
    assert w["speedup_batched"] >= w["speedup_snapshot"], (
        f"{w['name']}: batched lost to snapshot")
sweep = doc["eytzinger_vs_lower_bound"]
assert sweep["identical"], "eytzinger sweep: index mismatch"
head = doc["headline"]
print(f"headline: workload={head['workload']} m={head['m']} "
      f"speedup={head['speedup']:.2f}x identical={head['identical']} "
      f"meets_10x_target={head['meets_10x_target']} "
      f"(threads={doc['threads']})")
assert head["identical"]
assert head["meets_10x_target"]
point = doc["point_headline"]
print(f"point_headline: batched {point['speedup_batched']:.2f}x vs snapshot "
      f"{point['speedup_snapshot']:.2f}x, multiprobe sweep "
      f"{sweep['speedup_multiprobe']:.2f}x, "
      f"meets_1p5x_target={point['meets_1p5x_target']}")
assert point["batched_beats_snapshot"]
EOF

echo "== Optimized bench: adaptive refresh subsystem =="
cmake --build build-release --target bench_refresh
./build-release/bench/bench_refresh BENCH_refresh.json "${QUICK_ARGS[@]}"

# Sanity-check the emitted JSON (parses, well-formed estimates under churn,
# the daemon actually applied/rebuilt/republished while readers ran).
python3 - <<'EOF'
import json
with open("BENCH_refresh.json") as f:
    doc = json.load(f)
assert doc["bench"] == "refresh_subsystem", doc.get("bench")
assert doc["timestamp_utc"] and doc["git_rev"], "missing provenance"
apply_phase = doc["delta_apply"]
assert apply_phase["deltas"] > 0 and apply_phase["deltas_per_second"] > 0
reader = doc["reader_under_churn"]
assert reader["well_formed"], "malformed estimates under churn"
assert reader["p99_micros"] >= reader["p50_micros"] >= 0
assert reader["writer_deltas"] > 0, "no churn reached the readers"
stats = doc["refresh_stats"]
assert stats["deltas_applied"] > 0
assert stats["republish_count"] > 0
assert stats["log"]["drained"] <= stats["log"]["enqueued"]
# The §15 self-tuning axis: feedback-tuned estimates must beat the stale
# v-opt baseline on the drifting workload, each in-place adjustment must be
# far cheaper than a rebuild, and the tuning-off serving path must be
# bit-identical to a process that never saw feedback.
tune = doc["selftune"]
assert tune["rounds"] > 0 and tune["workload_queries"] > 0
assert tune["tuned_beats_stale"], (
    f"tuned median q-error {tune['tuned_median_qerror']:.4f} did not beat "
    f"stale {tune['stale_median_qerror']:.4f}")
assert tune["tuned_median_qerror"] < tune["stale_median_qerror"]
assert tune["adjustments"] > 0 and tune["observations"] > 0
assert tune["seconds_per_adjustment"] < tune["rebuild_seconds_per_column"], (
    "an in-place adjustment cost as much as a full rebuild")
assert tune["tuning_off_bit_identical"], (
    "tuning-off serving diverged from the never-fed baseline")
print(f"selftune: median q-error {tune['stale_median_qerror']:.4f} stale -> "
      f"{tune['tuned_median_qerror']:.4f} tuned over {tune['rounds']} rounds, "
      f"{tune['adjustments']} adjustments + {tune['promotions']} promotions "
      f"at {tune['seconds_per_adjustment']*1e6:.2f}us per change "
      f"({tune['adjustment_cost_vs_rebuild']:.2e} of a rebuild), "
      f"off-path bit-identical={tune['tuning_off_bit_identical']}")
print(f"refresh: {apply_phase['deltas_per_second']:.0f} deltas/s applied, "
      f"{doc['force_rebuild']['seconds_per_column']*1e3:.2f} ms/column "
      f"rebuild, reader p50 {reader['p50_micros']:.2f}us "
      f"p99 {reader['p99_micros']:.2f}us under "
      f"{stats['rebuilds_total']} rebuilds / "
      f"{stats['republish_count']} republishes")
EOF

echo "== Optimized bench: HTTP serving front-end =="
cmake --build build-release --target bench_serving
./build-release/bench/bench_serving BENCH_serving.json "${QUICK_ARGS[@]}"

# Sanity-check the emitted JSON (parses, sweep covers the connections
# axis, quantiles ordered, no client-visible errors).
python3 - <<'EOF'
import json
with open("BENCH_serving.json") as f:
    doc = json.load(f)
assert doc["bench"] == "http_serving", doc.get("bench")
assert doc["timestamp_utc"] and doc["git_rev"], "missing provenance"
sweep = doc["serving_sweep"]
assert isinstance(sweep, list) and sweep, "empty sweep"
for point in sweep:
    assert point["connections"] > 0
    assert point["requests"] > 0 and point["requests_per_second"] > 0
    assert point["p999_micros"] >= point["p99_micros"] >= point["p50_micros"]
    assert point["errors"] == 0, f"client errors at {point['connections']}"
head = sweep[0]
print(f"serving: connections axis {[p['connections'] for p in sweep]}, "
      f"{head['requests_per_second']:.0f} req/s at 1 connection, "
      f"p50 {head['p50_micros']:.1f}us p99 {head['p99_micros']:.1f}us "
      f"({doc['workers']} workers)")
bvj = doc["binary_vs_json"]
assert bvj["identical"], "binary framing not bit-identical to JSON"
assert bvj["errors"] == 0, "binary_vs_json client errors"
print(f"binary_vs_json: {bvj['json_rps']:.0f} req/s json vs "
      f"{bvj['binary_rps']:.0f} req/s binary "
      f"({bvj['binary_speedup']:.2f}x, identical={bvj['identical']})")
tracing = doc["tracing_overhead"]
assert tracing["identical"], "traced estimates not bit-identical"
assert tracing["errors"] == 0, "tracing_overhead client errors"
print(f"tracing_overhead: {tracing['overhead_percent']:.2f}% at 1/"
      f"{tracing['sample_one_in']} sampling "
      f"(target < {tracing['target_percent']:.0f}%, "
      f"identical={tracing['identical']})")
EOF

echo "== Optimized bench: durable storage (snapshot + WAL + recovery) =="
cmake --build build-release --target bench_storage
./build-release/bench/bench_storage BENCH_storage.json "${QUICK_ARGS[@]}"

# Sanity-check the emitted JSON (parses, every fsync mode measured, replay
# recovered records, the accept-path overhead gate holds).
python3 - <<'EOF'
import json
with open("BENCH_storage.json") as f:
    doc = json.load(f)
assert doc["bench"] == "durable_storage", doc.get("bench")
assert doc["timestamp_utc"] and doc["git_rev"], "missing provenance"
snap = doc["snapshot"]
assert snap["bytes"] > 0
assert snap["write_mb_per_second"] > 0 and snap["load_mb_per_second"] > 0
modes = {point["fsync"] for point in doc["wal_append"]}
assert modes == {"none", "batch", "every"}, f"fsync axis incomplete: {modes}"
for point in doc["wal_append"]:
    assert point["records"] > 0 and point["records_per_second"] > 0
recovery = doc["recovery"]
assert recovery, "empty recovery sweep"
for point in recovery:
    assert point["wal_records"] > 0 and point["records_per_second"] > 0
accept = doc["accept_overhead"]
assert accept["overhead_percent"] < accept["target_percent"], (
    f"accept-path overhead {accept['overhead_percent']:.2f}% exceeds the "
    f"{accept['target_percent']}% target")
print(f"storage: snapshot {snap['write_mb_per_second']:.0f} MB/s write / "
      f"{snap['load_mb_per_second']:.0f} MB/s load, wal replay "
      f"{recovery[-1]['records_per_second']:.0f} records/s, /update "
      f"overhead {accept['overhead_percent']:.2f}% "
      f"(target < {accept['target_percent']}%)")
EOF

echo "run_benchmarks.sh: all checks passed; wrote BENCH_histograms.json," \
     "BENCH_estimation.json, BENCH_refresh.json, BENCH_serving.json, and" \
     "BENCH_storage.json"
