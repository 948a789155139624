#!/usr/bin/env bash
# Full verification pipeline: configure, build, test, regenerate every
# table/figure. This is the same entrypoint CI runs (.github/workflows/ci.yml):
#   (no flag)  tier-1 job: configure, build, ctest, regenerate benches and
#              check their schemas and tier-1 gates (scripts/bench_gates.py)
#   --asan     also run the ASan+UBSan build + tests
#   --tsan     also run the ThreadSanitizer build over the concurrency
#              suites (thread_pool_test, parallel_build_test,
#              snapshot_concurrency_test, refresh_daemon_test,
#              telemetry_concurrency_test, trace_recorder_test,
#              refresh_soak_test — durability + daemon in one soak —,
#              http_parser_test, net_server_test, storage_test,
#              storage_crash_test)
#   --telemetry-smoke  build + run examples/feedback_loop and grep its
#              Prometheus dump for the expected metric families (the §9
#              end-to-end observability gate)
#   --probe-smoke  build + run bench_estimation --quick and assert the §12
#              tier-1 gates (scripts/bench_gates.py): eytzinger_vs_lower_bound
#              identical, every workload bit-identical, and batched >=
#              snapshot per workload
#   --daemon-smoke  one examples/serve_estimates lifecycle over loopback,
#              the end-to-end gate of §11 and §13–§15:
#                1. boot A with HOPS_SELFTUNE=on and a data dir; /estimate,
#                   then skewed /feedback on orders.item_id until the
#                   tuning counters move in /debug/columns
#                2. 40 /update deltas on orders.customer_id, then a
#                   settled customer_id=7 estimate
#                3. kill -9 A
#                4. boot B on the same dir with --trace-file: the settled
#                   estimate is bit-identical and /debug/wal is attached
#                5. on B: /metrics families, the traceparent echo,
#                   /debug/tracez, /debug/logz, /healthz
#                6. SIGTERM B and validate the dumped Chrome trace JSON
#   --skip-tier1  skip the default build+ctest+bench stage (used by the CI
#              sanitizer jobs so they only pay for their own build)
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_TIER1=1
RUN_ASAN=0
RUN_TSAN=0
RUN_TELEMETRY_SMOKE=0
RUN_PROBE_SMOKE=0
RUN_DAEMON_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --asan) RUN_ASAN=1 ;;
    --tsan) RUN_TSAN=1 ;;
    --telemetry-smoke) RUN_TELEMETRY_SMOKE=1 ;;
    --probe-smoke) RUN_PROBE_SMOKE=1 ;;
    --daemon-smoke) RUN_DAEMON_SMOKE=1 ;;
    --skip-tier1) RUN_TIER1=0 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

if [[ "$RUN_TIER1" == 1 ]]; then
  cmake -B build -G Ninja
  cmake --build build
  ctest --test-dir build --output-on-failure -j"$(nproc)"

  echo "== Regenerating paper tables/figures =="
  for b in build/bench/*; do
    "$b"
  done

  # Every BENCH_*.json schema and gate is declared once, in
  # scripts/bench_gates.py: the bench name, provenance, the schema fields
  # cross-PR perf tracking reads, and the tier-1 gates (§12 estimation
  # determinism and ordering, §14 tracing overhead).
  for artifact in refresh serving estimation storage; do
    echo "== Checking BENCH_$artifact.json schema and tier-1 gates =="
    python3 scripts/bench_gates.py --tier1 "$artifact"
  done
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== ASan+UBSan pass =="
  cmake -B build-asan -G Ninja -DHOPS_BUILD_BENCHMARKS=OFF \
    -DHOPS_BUILD_EXAMPLES=OFF -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== ThreadSanitizer pass =="
  cmake -B build-tsan -G Ninja -DHOPS_SANITIZE=thread \
    -DHOPS_BUILD_BENCHMARKS=OFF -DHOPS_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan --target thread_pool_test parallel_build_test \
    snapshot_concurrency_test refresh_daemon_test telemetry_concurrency_test \
    trace_recorder_test refresh_soak_test http_parser_test \
    net_server_test storage_test storage_crash_test
  # Oversubscribe the pool so TSan sees real interleavings even on small
  # CI machines.
  HOPS_THREADS=4 ./build-tsan/tests/thread_pool_test
  HOPS_THREADS=4 ./build-tsan/tests/parallel_build_test
  HOPS_THREADS=4 ./build-tsan/tests/snapshot_concurrency_test
  HOPS_THREADS=4 ./build-tsan/tests/refresh_daemon_test
  HOPS_THREADS=4 ./build-tsan/tests/telemetry_concurrency_test
  HOPS_THREADS=4 ./build-tsan/tests/trace_recorder_test
  # A RecoveryManager + the daemon, with a checkpoint mid-churn and a warm
  # restart.
  HOPS_THREADS=4 ./build-tsan/tests/refresh_soak_test
  HOPS_THREADS=4 ./build-tsan/tests/http_parser_test
  HOPS_THREADS=4 ./build-tsan/tests/net_server_test
  # The storage suites include the kill-9-under-churn soak: the crash child
  # runs instrumented too, so TSan watches the WAL accept path right up to
  # the SIGKILL.
  HOPS_THREADS=4 ./build-tsan/tests/storage_test
  HOPS_THREADS=4 ./build-tsan/tests/storage_crash_test
fi

if [[ "$RUN_TELEMETRY_SMOKE" == 1 ]]; then
  echo "== Telemetry smoke (feedback_loop example) =="
  cmake -B build -G Ninja
  cmake --build build --target feedback_loop
  SMOKE_OUT=$(./build/examples/feedback_loop)
  # The example exits nonzero itself if the feedback loop produced no
  # accuracy signal; additionally require the exported families that every
  # dashboard would scrape.
  for family in hops_estimates_total hops_estimate_qerror_bucket \
      hops_span_duration_seconds_bucket hops_snapshot_publish_total \
      hops_histogram_builds_total; do
    if ! grep -q "$family" <<<"$SMOKE_OUT"; then
      echo "telemetry smoke: family '$family' missing from export" >&2
      exit 1
    fi
  done
  echo "telemetry smoke: all expected metric families exported."
fi

if [[ "$RUN_PROBE_SMOKE" == 1 ]]; then
  echo "== Probe smoke (bench_estimation --quick, §12 gates) =="
  cmake -B build -G Ninja
  cmake --build build --target bench_estimation
  PROBE_OUT=$(mktemp /tmp/probe_smoke.XXXXXX.json)
  ./build/bench/bench_estimation "$PROBE_OUT" --quick
  python3 scripts/bench_gates.py --tier1 estimation "$PROBE_OUT"
  rm -f "$PROBE_OUT"
  echo "probe smoke: all §12 gates hold."
fi

if [[ "$RUN_DAEMON_SMOKE" == 1 ]]; then
  echo "== Daemon smoke (one serve_estimates lifecycle: §11, §13, §14, §15) =="
  cmake -B build -G Ninja
  cmake --build build --target serve_estimates
  SMOKE_DIR=$(mktemp -d /tmp/daemon_smoke.XXXXXX)
  SMOKE_LOG="$SMOKE_DIR/serve.log"
  TRACE_OUT="$SMOKE_DIR/trace.json"
  DATA_DIR="$SMOKE_DIR/data"
  SERVE_PID=""
  cleanup_daemon() {
    [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null || true
    rm -rf "$SMOKE_DIR"
  }
  trap cleanup_daemon EXIT
  fail() {
    echo "daemon smoke: $1" >&2
    [[ $# -gt 1 ]] && echo "$2" >&2
    exit 1
  }

  # Boots serve_estimates with the given flags (environment from the
  # caller) and waits for the ephemeral port it prints on its first line.
  boot_daemon() {
    : >"$SMOKE_LOG"
    ./build/examples/serve_estimates --port=0 --max-seconds=120 \
      --data-dir="$DATA_DIR" "$@" >"$SMOKE_LOG" 2>&1 &
    SERVE_PID=$!
    SERVE_PORT=""
    for _ in $(seq 1 50); do
      SERVE_PORT=$(grep -oE 'serving on 127.0.0.1:[0-9]+' "$SMOKE_LOG" \
        | grep -oE '[0-9]+$' || true)
      [[ -n "$SERVE_PORT" ]] && break
      sleep 0.1
    done
    [[ -n "$SERVE_PORT" ]] || fail "server never reported a port" \
      "$(cat "$SMOKE_LOG")"
    BASE="http://127.0.0.1:$SERVE_PORT"
  }

  ESTIMATE_BODY='{"specs":[{"kind":"equality","table":"orders","column":"customer_id","value":7}]}'
  # The refresh daemon folds accepted deltas into a published snapshot on
  # its own tick; sample only once two reads 0.3s apart agree, so both
  # sides of the restart comparison see a settled histogram.
  settled_estimate() {
    local prev="" cur=""
    for _ in $(seq 1 30); do
      cur=$(curl -sf -X POST "$BASE/estimate" -d "$ESTIMATE_BODY")
      [[ -n "$prev" && "$cur" == "$prev" ]] && { echo "$cur"; return 0; }
      prev="$cur"
      sleep 0.3
    done
    echo "$cur"
  }

  # 1. Daemon A: durable, self-tuning.
  HOPS_SELFTUNE=on boot_daemon
  ESTIMATE_OUT=$(curl -sf -X POST "$BASE/estimate" -d "$ESTIMATE_BODY")
  grep -q '"estimate"' <<<"$ESTIMATE_OUT" ||
    fail "/estimate returned no estimate: $ESTIMATE_OUT"
  # Heavily skewed outcomes, so the tuner has real error to fold in. They
  # name item_id only: tuning after the last checkpoint is not in the WAL,
  # and customer_id must survive the kill -9 below bit for bit.
  FEEDBACK_OUT=$(curl -sf -X POST "$BASE/feedback" -d '{"reports":[
      {"kind":"equality","table":"orders","column":"item_id","value":3,"estimated":2.0,"actual":600.0},
      {"kind":"equality","table":"orders","column":"item_id","value":7,"estimated":4.0,"actual":450.0},
      {"kind":"equality","table":"orders","column":"item_id","value":11,"estimated":1.0,"actual":300.0}
    ]}')
  grep -q '"accepted": 3' <<<"$FEEDBACK_OUT" ||
    fail "/feedback did not accept all records: $FEEDBACK_OUT"
  # The refresh daemon ticks every 10ms and folds buffered outcomes into
  # the histograms; poll /debug/columns until the tuning counters move.
  COLUMNS_OUT=""
  TUNED=0
  for _ in $(seq 1 50); do
    COLUMNS_OUT=$(curl -sf "$BASE/debug/columns")
    if grep -qE '"observations": [1-9]' <<<"$COLUMNS_OUT"; then
      TUNED=1
      break
    fi
    sleep 0.1
  done
  grep -q '"selftune_enabled": true' <<<"$COLUMNS_OUT" ||
    fail "HOPS_SELFTUNE=on not reflected in /debug/columns" "$COLUMNS_OUT"
  [[ "$TUNED" == 1 ]] ||
    fail "tuning counters never moved after feedback" "$COLUMNS_OUT"
  # Hot default-bucket values get promoted to explicit entries; explicit
  # hits get damped in-place adjustments. Either way the histogram moved.
  grep -qE '"(adjustments|promotions)": [1-9]' <<<"$COLUMNS_OUT" ||
    fail "observations consumed but histogram never moved" "$COLUMNS_OUT"

  # 2. Accepted updates give recovery real WAL state to replay, not just
  # the seed catalog. Weight 7's bucket so the estimate visibly moves.
  for i in $(seq 1 40); do
    curl -sf -X POST "$BASE/update" \
      -d "{\"updates\":[{\"table\":\"orders\",\"column\":\"customer_id\",\"value\":$((i % 64)),\"weight\":2.5}]}" \
      >/dev/null
  done
  BEFORE=$(settled_estimate)

  # 3. No SIGTERM courtesy: the point is surviving an unclean death.
  kill -9 "$SERVE_PID"
  wait "$SERVE_PID" 2>/dev/null || true
  SERVE_PID=""

  # 4. Daemon B: warm restart on the same dir, traced.
  HOPS_SELFTUNE=on boot_daemon --trace-file="$TRACE_OUT"
  AFTER=$(settled_estimate)
  # Compare the estimate values only: snapshot_version is a process-local
  # RCU counter and legitimately differs across the restart.
  BEFORE_EST=$(grep -o '"estimate": *[0-9.eE+-]*' <<<"$BEFORE" || true)
  AFTER_EST=$(grep -o '"estimate": *[0-9.eE+-]*' <<<"$AFTER" || true)
  [[ -n "$BEFORE_EST" && -n "$AFTER_EST" ]] ||
    fail "/estimate returned no estimate" "before: $BEFORE
after:  $AFTER"
  [[ "$BEFORE_EST" == "$AFTER_EST" ]] ||
    fail "estimate changed across kill -9 + warm restart" \
      "before: $BEFORE_EST
after:  $AFTER_EST"
  curl -sf "$BASE/debug/wal" | grep -q '"attached": true' ||
    fail "/debug/wal does not report attached storage after restart"

  # 5. The serving and observability surface of B.
  METRICS_OUT=$(curl -sf "$BASE/metrics")
  for family in hops_http_requests_total hops_http_request_seconds_bucket \
      hops_http_connections_total hops_span_duration_seconds_bucket; do
    grep -q "$family" <<<"$METRICS_OUT" ||
      fail "family '$family' missing from /metrics"
  done
  # A W3C-traced request: sampled flag 01 forces recording regardless of
  # the head-sampling rate, and the trace id must come back in the echo
  # header so a caller can find its own spans.
  TRACE_ID="4bf92f3577b34da6a3ce929d0e0e4736"
  TRACED_OUT=$(curl -si -X POST "$BASE/estimate" \
    -H "traceparent: 00-$TRACE_ID-00f067aa0ba902b7-01" -d "$ESTIMATE_BODY")
  grep -qi "x-hops-trace-id: $TRACE_ID" <<<"$TRACED_OUT" ||
    fail "trace id not echoed in x-hops-trace-id" "$TRACED_OUT"
  # Mixed untraced load so the dump holds more than one request's spans.
  for i in $(seq 1 64); do
    curl -sf -X POST "$BASE/estimate" \
      -d "{\"specs\":[{\"kind\":\"equality\",\"table\":\"orders\",\"column\":\"customer_id\",\"value\":$((i % 32))}]}" \
      >/dev/null
  done
  curl -sf "$BASE/debug/tracez" | grep -q "$TRACE_ID" ||
    fail "traced request's spans missing from /debug/tracez"
  curl -sf "$BASE/debug/logz" | grep -q '"lines"' ||
    fail "/debug/logz returned no lines array"
  curl -sf "$BASE/healthz" | grep -q '"ok"' || fail "/healthz not ready"

  # 6. The shutdown dump must be a well-formed Chrome trace: complete ("X")
  # events sorted by start time, carrying the span tree a viewer needs.
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  SERVE_PID=""
  python3 - "$TRACE_OUT" "$TRACE_ID" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "trace dump is empty"
assert all(e["ph"] == "X" for e in events), "non-complete event in dump"
ts = [e["ts"] for e in events]
assert ts == sorted(ts), "events not sorted by start time"
names = {e["name"] for e in events}
for expected in ("Net.Request", "Serving.EstimateBatch"):
    assert expected in names, f"span {expected} missing from dump"
traced = [e for e in events if e["args"].get("trace_id") == sys.argv[2]]
assert traced, "forced-sample trace id missing from dump"
print(f"trace dump: {len(events)} events, {len(names)} span names, "
      f"{len(traced)} spans under the forced trace id.")
PY
  trap - EXIT
  cleanup_daemon
  echo "daemon smoke: tuned on feedback, estimate bit-identical across" \
    "kill -9 ($BEFORE_EST), metrics/trace/logz/healthz live, dump valid."
fi

echo "All checks passed."
