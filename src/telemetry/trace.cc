#include "telemetry/trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

namespace hops::telemetry {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The innermost open span on this thread (parent of the next span opened).
thread_local TraceSpan* t_current_span = nullptr;
TraceSpan** CurrentSpanSlot() { return &t_current_span; }

// Sites are keyed by (registry, name, extra labels): tests with local
// registries get isolated sites; the global registry gets process-wide
// ones; labeled sites (e.g. Net.Request{endpoint="/estimate"}) are distinct
// accumulators under one span name. The map is leaked (never destroyed)
// so sites stay valid through static teardown; entries for a *local*
// registry are dropped by its destructor via DropSpanSitesForRegistry.
using SiteKey = std::tuple<MetricRegistry*, std::string, LabelSet>;
using SiteMap = std::map<SiteKey, std::unique_ptr<SpanSite>>;

std::mutex& SitesMutex() {
  // Leaked: ~MetricRegistry may run during static teardown in another TU.
  static std::mutex* mutex = new std::mutex();
  return *mutex;
}

SiteMap& Sites() {
  static SiteMap* sites = new SiteMap();
  return *sites;
}

}  // namespace

SpanSite& GetSpanSite(std::string_view name, const LabelSet& extra_labels,
                      MetricRegistry* registry) {
  std::lock_guard<std::mutex> lock(SitesMutex());
  SiteMap& sites = Sites();
  auto key = std::make_tuple(registry, std::string(name), extra_labels);
  auto it = sites.find(key);
  if (it != sites.end()) return *it->second;

  auto site = std::make_unique<SpanSite>();
  site->name = std::string(name);
  LabelSet labels = {{"span", site->name}};
  labels.insert(labels.end(), extra_labels.begin(), extra_labels.end());
  site->count = registry->GetCounter(
      "hops_span_total", "Completed trace spans per instrumentation site.",
      labels);
  site->total_nanos = registry->GetCounter(
      "hops_span_duration_nanos_total",
      "Total span wall time in nanoseconds, child spans included.", labels);
  site->self_nanos = registry->GetCounter(
      "hops_span_self_nanos_total",
      "Span wall time in nanoseconds, child spans on the same thread "
      "excluded.",
      labels);
  site->duration_seconds = registry->GetHistogram(
      "hops_span_duration_seconds",
      "Per-span wall time in seconds (log-spaced buckets).",
      LogBucketSpec::Latency(), labels);
  SpanSite& ref = *site;
  sites.emplace(std::move(key), std::move(site));
  return ref;
}

SpanSite& GetSpanSite(std::string_view name, MetricRegistry* registry) {
  return GetSpanSite(name, LabelSet{}, registry);
}

namespace internal {

void DropSpanSitesForRegistry(MetricRegistry* registry) {
  std::lock_guard<std::mutex> lock(SitesMutex());
  SiteMap& sites = Sites();
  for (auto it = sites.begin(); it != sites.end();) {
    if (std::get<0>(it->first) == registry) {
      it = sites.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace internal

TraceSpan::TraceSpan(SpanSite& site) {
  if (!Enabled()) {
    site_ = nullptr;
    parent_ = nullptr;
    return;
  }
  site_ = &site;
  TraceSpan** slot = CurrentSpanSlot();
  parent_ = *slot;
  *slot = this;
  // Event emission (DESIGN.md §14): only when the thread carries a sampled
  // request context AND a recorder is installed. The recorder pointer is
  // captured here so an Install() mid-span cannot tear the close.
  const TraceContext& context = CurrentTraceContext();
  if (context.sampled && context.valid()) {
    recorder_ = TraceRecorder::Current();
    if (recorder_ != nullptr) {
      context_ = context;
      span_id_ = MintSpanId();
      // Same-thread nesting wins (the enclosing span is by construction
      // the nearest ancestor); a thread's outermost span parents under the
      // span id its installed context carries.
      parent_span_id_ = (parent_ != nullptr && parent_->span_id_ != 0)
                            ? parent_->span_id_
                            : context.span_id;
    }
  }
  start_nanos_ = NowNanos();
}

void TraceSpan::SetDetail(std::string_view detail) {
  if (span_id_ == 0) return;
  const size_t n = std::min(detail.size(), sizeof(detail_) - 1);
  std::memcpy(detail_, detail.data(), n);
  detail_[n] = '\0';
}

TraceSpan::~TraceSpan() {
  if (site_ == nullptr) return;
  const int64_t end_nanos = NowNanos();
  const int64_t nanos = end_nanos - start_nanos_;
  *CurrentSpanSlot() = parent_;
  if (parent_ != nullptr) parent_->child_nanos_ += nanos;
  site_->count->Increment();
  site_->total_nanos->Increment(static_cast<uint64_t>(nanos < 0 ? 0 : nanos));
  const int64_t self = nanos - child_nanos_;
  site_->self_nanos->Increment(static_cast<uint64_t>(self < 0 ? 0 : self));
  site_->duration_seconds->Record(static_cast<double>(nanos) * 1e-9);
  if (span_id_ != 0) {
    TraceEvent event;
    event.trace_hi = context_.trace_hi;
    event.trace_lo = context_.trace_lo;
    event.span_id = span_id_;
    event.parent_span_id = parent_span_id_;
    event.start_nanos = start_nanos_;
    event.end_nanos = end_nanos;
    const size_t name_len =
        std::min(site_->name.size(), TraceEvent::kNameBytes - 1);
    std::memcpy(event.name, site_->name.data(), name_len);
    std::memcpy(event.detail, detail_, sizeof(detail_));
    recorder_->Record(event);
  }
}

}  // namespace hops::telemetry
