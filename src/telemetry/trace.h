// Lightweight trace spans (DESIGN.md §9): scoped timers over the hot paths
// — EstimateBatch, BuildHistogramBatch, the RefreshManager tick phases
// (drain / apply / score / rebuild / republish), UpdateLog backpressure
// waits, SnapshotStore publication.
//
// A TraceSpan is a stack object timing one dynamic extent. Spans nest via a
// thread-local stack: when a span closes it charges its wall time to its
// parent's child-time, so every span site accumulates both *total* time
// (inclusive of children) and *self* time (exclusive). A request's spans
// all open on the thread that serves it — EstimateBatch's kernel spans nest
// under its batch span — so one request is one span stack. Spans opened on
// other threads (e.g. the refresh daemon's tick) are independent roots; for
// *request tracing* a thread's outermost span parents under the span id of
// the TraceContext it installed (TraceContextScope, DESIGN.md §14).
//
// Since PR 9 every span is also a potential trace event: when the
// thread-local TraceContext (trace_context.h) is valid and head-sampled
// and a TraceRecorder is installed, the destructor appends one TraceEvent
// — span name, trace/span/parent ids, wall interval, and an optional
// SetDetail attribute string — to the recorder's per-thread ring. The
// unsampled path adds one thread-local read to the constructor.
//
// Cost model: when telemetry is disabled (HOPS_TELEMETRY=off or
// SetEnabled(false)) constructing a span is one relaxed bool load and two
// null stores; when enabled it is two steady_clock reads plus four relaxed
// sharded-atomic folds at close. Span sites materialize as ordinary metric
// families in a MetricRegistry, labeled {span="<name>"}:
//
//   hops_span_total                (counter)   completed spans
//   hops_span_duration_nanos_total (counter)   total wall nanos, children included
//   hops_span_self_nanos_total     (counter)   wall nanos minus child spans
//   hops_span_duration_seconds     (histogram) per-span latency, log buckets
//
// so the Prometheus/JSON exporters render them with no extra plumbing, and
// p50/p95/p99 per site come from the histogram snapshot.
//
// Usage — cache the site, then scope the span:
//
//   static telemetry::SpanSite& site = telemetry::GetSpanSite("Refresh.Tick");
//   telemetry::TraceSpan span(site);

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "telemetry/metrics.h"
#include "telemetry/trace_context.h"
#include "telemetry/trace_recorder.h"

namespace hops::telemetry {

/// \brief One instrumentation point's accumulators (metrics owned by a
/// MetricRegistry; the site is a stable bundle of pointers).
struct SpanSite {
  std::string name;
  Counter* count = nullptr;
  Counter* total_nanos = nullptr;
  Counter* self_nanos = nullptr;
  LatencyHistogram* duration_seconds = nullptr;
};

/// \brief Get-or-create the site named \p name in \p registry (default: the
/// process-wide registry). Stable reference; call once per site and cache
/// (instrumentation sites use a function-local static).
SpanSite& GetSpanSite(std::string_view name,
                      MetricRegistry* registry = &MetricRegistry::Global());

/// \brief Labeled variant: the site's metric families carry
/// {span="<name>"} plus \p extra_labels — e.g. the §11 estimate service
/// instruments Net.Request once per endpoint with {endpoint="<path>"}, so
/// per-endpoint latency splits out in the exporters with no extra plumbing.
/// Sites are keyed by (registry, name, extra_labels); cardinality is the
/// caller's responsibility (the endpoint table is small and fixed). Cache
/// the reference per (site, label) pair — do NOT call per span on a hot
/// path.
SpanSite& GetSpanSite(std::string_view name, const LabelSet& extra_labels,
                      MetricRegistry* registry = &MetricRegistry::Global());

namespace internal {

/// Drops every cached span site whose metrics \p registry owns. Called by
/// ~MetricRegistry: a later registry allocated at the same address must not
/// alias a stale site whose counters point into freed memory. Callers that
/// cache a SpanSite& must not outlive the registry they resolved it from.
void DropSpanSitesForRegistry(MetricRegistry* registry);

}  // namespace internal

/// \brief Scoped span over \p site. Non-copyable, stack-only; destruction
/// order must be LIFO per thread (guaranteed by scoping).
class TraceSpan {
 public:
  explicit TraceSpan(SpanSite& site);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Whether this span is live (telemetry enabled at construction).
  bool recording() const { return site_ != nullptr; }

  /// Whether this span will emit a TraceEvent at close (the thread's
  /// context was sampled and a recorder was installed at construction).
  /// Gate any work done only to decorate the trace on this.
  bool emitting() const { return span_id_ != 0; }

  /// Attaches a short attribute string ("k=v k=v") to the emitted event,
  /// truncated to TraceEvent::kDetailBytes-1. No-op when !emitting().
  void SetDetail(std::string_view detail);

 private:
  SpanSite* site_;     // null when telemetry was disabled at construction
  TraceSpan* parent_;  // enclosing span on this thread, if any
  int64_t start_nanos_ = 0;
  int64_t child_nanos_ = 0;
  // Event emission state (zero span_id_ = not emitting).
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  TraceContext context_;            // inherited thread context
  TraceRecorder* recorder_ = nullptr;
  char detail_[TraceEvent::kDetailBytes] = {};
};

}  // namespace hops::telemetry
