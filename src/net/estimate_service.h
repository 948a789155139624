// HTTP endpoint layer of the serving front-end (DESIGN.md §11): routes the
// epoll server's complete requests into the estimation subsystems. Routing
// is one table of {path, method, handler} rows; a wrong method is 405, an
// unknown path 404.
//
// Endpoint contracts:
//
//   GET  /metrics       Prometheus text format (the §9 exporter) over the
//                       service registry. text/plain; version=0.0.4.
//   GET  /metrics.json  The same snapshot as JSON — the export that carries
//                       slow-request exemplars (Prometheus v0.0.4 cannot).
//   GET  /healthz       Liveness + readiness: 200 {"status":"ok", ...} once
//                       the first real snapshot is published, 503
//                       {"status":"starting"} before that (load balancers
//                       hold traffic until statistics exist). The body
//                       reports snapshot version/age/columns and, when
//                       durable storage is attached, recovery state.
//   GET  /debug/tracez  Chrome trace-event JSON (Perfetto-loadable) from
//                       the installed TraceRecorder: the span trees of
//                       recently sampled requests. 503 when no recorder.
//   GET  /debug/logz    {"total":N,"lines":[...]} — the in-memory
//                       structured-log ring, newest last.
//   GET  /debug/columns Per-column introspection: histogram class, bucket
//                       counts, staleness score (refresh advisor), q-error
//                       quantiles (AccuracyTracker) — the "which column is
//                       lying to the optimizer" drill-down.
//   GET  /debug/snapshots  Snapshot version, age, publish count, estimate
//                       cache occupancy and hit/miss totals.
//   GET  /debug/wal     Durable-storage state via the storage_debug
//                       provider: durability mode, LSN high-water mark,
//                       segment and fsync counts. {"attached":false} when
//                       the process runs without --data-dir.
//   POST /estimate      One pipeline for both framings. Decode by
//                       Content-Type: a JSON {"specs":[...]} body, or with
//                       Content-Type: application/x-hops-batch the binary
//                       frame of net/wire_format.h (IN-lists and chains
//                       stay JSON-only). Read the RCU CatalogSnapshot
//                       ONCE, resolve each entry into one slot-aligned
//                       batch (a spec, or the reason it failed), run one
//                       EstimateBatch, and encode in the request's
//                       framing. A failed slot never aborts the batch.
//                       JSON estimates render with 17 significant digits
//                       and binary ones as raw IEEE-754 doubles, so both
//                       round-trip bit-identically to the in-process
//                       double (bench_serving proves this).
//   POST /feedback      {"reports":[{...spec, "estimated":e, "actual":a}]}
//                       → ReportEstimateOutcome into the configured
//                       feedback sink (the §8/§9 accuracy tracker), closing
//                       the self-tuning loop over HTTP.
//   POST /update        {"updates":[{"table":t, "column":c, "value":v,
//                       "weight":w?}]} → tuple-level statistics deltas into
//                       the refresh manager's update log. The whole request
//                       admits all-or-nothing (one RecordBatch), and when
//                       durable storage is attached (DESIGN.md §13) the
//                       batch is in the WAL before the 200 is sent —
//                       acknowledged updates survive kill -9. A weight
//                       outside ±kMaxDeltaWeight (refresh/update_log.h)
//                       is a 400 naming the entry.
//
// The three POST endpoints answer 400 to a body that does not parse or
// lacks its array, and 413 to more than 4096 entries, before any work.
//
// Spec JSON (one object per estimate; "kind" selects the shape):
//   {"kind":"equality",  "table":t, "column":c, "value":v}
//   {"kind":"not_equals","table":t, "column":c, "value":v}
//   {"kind":"in",        "table":t, "column":c, "values":[v, ...]}
//   {"kind":"range",     "table":t, "column":c, "low":lo, "high":hi,
//                        "include_low":bool?, "include_high":bool?}
//   {"kind":"join",      "left":{"table":t,"column":c},
//                        "right":{"table":t,"column":c}}
//   {"kind":"chain",     "steps":[{"left":{...},"right":{...}}, ...]}
// Values are JSON integers or strings (the engine's two Value types).
//
// Every endpoint is instrumented: hops_http_requests_total{endpoint,code},
// per-endpoint latency histograms with slow-request exemplars attached,
// and a Net.Request trace span per endpoint.
// Handle() is thread-safe — the event-loop workers call it concurrently.
//
// Request tracing (DESIGN.md §14): Handle() adopts an incoming W3C
// `traceparent` header (or mints a fresh TraceContext), decides sampling
// once (deterministic in the trace id; an explicit sampled flag on the
// incoming header forces recording), installs the context for the
// request's extent so every TraceSpan below joins the trace, and echoes
// the trace id in an `x-hops-trace-id` response header. Requests slower
// than slow_request_seconds — or answered 5xx — get a tail-keep event in
// the recorder even when unsampled, plus a structured warn log line.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "engine/catalog_snapshot.h"
#include "estimator/serving.h"
#include "net/http.h"
#include "net/server.h"
#include "refresh/refresh_manager.h"
#include "telemetry/accuracy.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "telemetry/trace_context.h"
#include "telemetry/trace_recorder.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace hops::net {

/// \brief What GET /debug/wal (and the healthz recovery block) reports.
/// Filled by a caller-supplied provider — the net layer deliberately does
/// not depend on hops_storage; the serving daemon adapts
/// storage::RecoveryManager into this struct (same seam as the serving
/// stack's post-drain hook).
struct WalDebugInfo {
  bool attached = false;
  std::string durability;  ///< "none" | "batch" | "every"
  bool warm_restart = false;  ///< recovered a previous process's snapshot
  uint64_t recovered_snapshot_seq = 0;
  uint64_t recovered_high_water = 0;
  uint64_t replayed_deltas = 0;
  uint64_t replayed_registrations = 0;
  uint64_t next_lsn = 0;  ///< high-water mark + 1
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t fsyncs = 0;
  uint64_t writeback_kicks = 0;
  uint64_t segments_created = 0;
  uint64_t segments_retired = 0;
};

/// \brief Wiring for the endpoint layer.
struct EstimateServiceOptions {
  /// RCU snapshot source for /estimate and /feedback. Required.
  SnapshotStore* store = nullptr;
  /// Ignored: EstimateBatch runs on the calling event-loop worker. Kept
  /// only because the repository benchmark (perfbench/src/stack.cc) still
  /// sets it; it goes with that use.
  ThreadPool* pool = nullptr;
  /// Receiver for /feedback outcomes (e.g. telemetry::AccuracyTracker).
  /// nullptr disables /feedback with a 503.
  EstimationFeedbackSink* feedback = nullptr;
  /// Receiver for /update deltas (resolved by name, admitted all-or-nothing
  /// through RefreshManager::RecordBatch so the durability hook persists the
  /// whole request before it is acknowledged). nullptr disables /update
  /// with a 503.
  RefreshManager* updates = nullptr;
  /// Registry /metrics renders and the endpoint metrics record into;
  /// nullptr = MetricRegistry::Global().
  telemetry::MetricRegistry* registry = nullptr;
  /// AccuracyTracker whose per-column q-error quantiles /debug/columns
  /// renders. nullptr omits the accuracy block (feedback may still flow —
  /// options.feedback is a separate, more general sink).
  telemetry::AccuracyTracker* accuracy = nullptr;
  /// Span-event sink for request tracing. nullptr = whatever
  /// TraceRecorder::Current() says at each request (the common wiring:
  /// install one process-wide recorder at startup).
  telemetry::TraceRecorder* recorder = nullptr;
  /// Provider for /debug/wal and the healthz recovery block; an empty
  /// function reports {"attached": false}.
  std::function<WalDebugInfo()> storage_debug;
  /// Requests at or above this wall time get a tail-keep trace event and
  /// a structured warn log line even when head-sampling skipped them.
  double slow_request_seconds = 0.25;
};

/// \brief The HttpHandler the serving stack mounts on the HttpServer.
class EstimateService {
 public:
  explicit EstimateService(EstimateServiceOptions options);

  EstimateService(const EstimateService&) = delete;
  EstimateService& operator=(const EstimateService&) = delete;

  /// Routes one complete request. Thread-safe.
  HttpResponse Handle(const HttpRequest& request);

  /// Handle bound as the server's handler functor.
  HttpHandler AsHandler() {
    return [this](const HttpRequest& request) { return Handle(request); };
  }

 private:
  using Handler = HttpResponse (EstimateService::*)(const HttpRequest&) const;

  /// One row of the route table: the path and method it answers, its
  /// handler, and the endpoint's latency histogram and Net.Request span.
  struct Endpoint {
    std::string path;
    std::string method;
    Handler handler = nullptr;
    telemetry::LatencyHistogram* latency = nullptr;
    telemetry::SpanSite* span = nullptr;
  };

  /// Finds the request's row, opens its span, guards the method (405), and
  /// calls the handler; 404 under "other" when no row matches.
  HttpResponse Route(const HttpRequest& request,
                     const Endpoint** endpoint) const;
  HttpResponse HandleMetrics(const HttpRequest& request) const;
  HttpResponse HandleMetricsJson(const HttpRequest& request) const;
  HttpResponse HandleHealthz(const HttpRequest& request) const;
  HttpResponse HandleEstimate(const HttpRequest& request) const;
  HttpResponse HandleFeedback(const HttpRequest& request) const;
  HttpResponse HandleUpdate(const HttpRequest& request) const;
  HttpResponse HandleTracez(const HttpRequest& request) const;
  HttpResponse HandleLogz(const HttpRequest& request) const;
  HttpResponse HandleColumns(const HttpRequest& request) const;
  HttpResponse HandleSnapshots(const HttpRequest& request) const;
  HttpResponse HandleWal(const HttpRequest& request) const;

  Endpoint MakeEndpoint(std::string path, std::string method,
                        Handler handler);
  void CountRequest(const std::string& endpoint, int status);
  /// options.recorder, else the process-wide one (may be null).
  telemetry::TraceRecorder* recorder() const;

  const EstimateServiceOptions options_;
  telemetry::MetricRegistry* registry_;  // resolved (never null)
  const std::vector<Endpoint> endpoints_;
  const Endpoint other_;  // unmatched targets: 404, counted as "other"
};

}  // namespace hops::net
