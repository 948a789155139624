#include "histogram/parallel_build.h"

#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace hops {

const char* HistogramBuilderKindToString(HistogramBuilderKind kind) {
  switch (kind) {
    case HistogramBuilderKind::kTrivial:
      return "trivial";
    case HistogramBuilderKind::kEquiWidth:
      return "equi-width";
    case HistogramBuilderKind::kEquiDepth:
      return "equi-depth";
    case HistogramBuilderKind::kVOptEndBiased:
      return "v-opt-end-biased";
    case HistogramBuilderKind::kVOptEndBiasedGrouped:
      return "v-opt-end-biased-grouped";
    case HistogramBuilderKind::kVOptSerialDP:
      return "v-opt-serial-dp";
    case HistogramBuilderKind::kVOptSerialDPFast:
      return "v-opt-serial-dp-fast";
    case HistogramBuilderKind::kVOptSerialExhaustive:
      return "v-opt-serial";
  }
  return "unknown";
}

Result<Histogram> BuildHistogram(FrequencySet set, HistogramBuilderKind kind,
                                 size_t num_buckets,
                                 VOptDiagnostics* diagnostics) {
  if (diagnostics != nullptr) *diagnostics = VOptDiagnostics{};
  switch (kind) {
    case HistogramBuilderKind::kTrivial:
      return BuildTrivialHistogram(std::move(set));
    case HistogramBuilderKind::kEquiWidth:
      return BuildEquiWidthHistogram(std::move(set), num_buckets);
    case HistogramBuilderKind::kEquiDepth:
      return BuildEquiDepthHistogram(std::move(set), num_buckets);
    case HistogramBuilderKind::kVOptEndBiased:
      return BuildVOptEndBiased(std::move(set), num_buckets);
    case HistogramBuilderKind::kVOptEndBiasedGrouped:
      return BuildVOptEndBiasedGrouped(std::move(set), num_buckets);
    case HistogramBuilderKind::kVOptSerialDP:
      return BuildVOptSerialDP(std::move(set), num_buckets, diagnostics);
    case HistogramBuilderKind::kVOptSerialDPFast:
      return BuildVOptSerialDPFast(std::move(set), num_buckets, diagnostics);
    case HistogramBuilderKind::kVOptSerialExhaustive:
      return BuildVOptSerialExhaustive(std::move(set), num_buckets, {},
                                       diagnostics);
  }
  return Status::InvalidArgument("unknown histogram builder kind");
}

std::vector<Result<Histogram>> BuildHistogramBatch(
    std::vector<HistogramBuildRequest> requests,
    const ParallelBuildOptions& options) {
  std::vector<Result<Histogram>> results(
      requests.size(), Result<Histogram>(Status::Internal("not built")));
  if (requests.empty()) return results;
  // Telemetry (DESIGN.md §9): one span + one counter add per batch.
  static telemetry::SpanSite& span_site =
      telemetry::GetSpanSite("Construction.BuildHistogramBatch");
  telemetry::TraceSpan span(span_site);
  if (span.recording()) {
    static telemetry::Counter* builds_total =
        telemetry::MetricRegistry::Global().GetCounter(
            "hops_histogram_builds_total",
            "Histogram build requests run through BuildHistogramBatch.");
    builds_total->Increment(requests.size());
  }
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::Global();
  pool.ParallelFor(0, requests.size(), /*grain=*/1,
                   [&](size_t begin, size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       results[i] = BuildHistogram(
                           std::move(requests[i].set), requests[i].kind,
                           requests[i].num_buckets, requests[i].diagnostics);
                     }
                   });
  return results;
}

}  // namespace hops
