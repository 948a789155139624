// Batched, pool-parallel histogram construction.
//
// A statistics pipeline rebuilding per-column histograms for a whole schema
// (or sweeping bucket counts / builder kinds in an experiment) has many
// *independent* build problems. BuildHistogramBatch fans them across the
// process-wide ThreadPool; each build may additionally parallelize
// internally (sort, prefix sums, DP layers) via the same pool — nested
// fork-join is supported by the pool's help-waiting scheduler.
//
// Determinism contract: for every request, the parallel result is
// bit-identical to the serial builder's result (enforced by
// tests/histogram/parallel_build_test.cc). Results align with requests;
// per-request failures surface as the corresponding Result's Status without
// aborting the rest of the batch.

#pragma once

#include <cstddef>
#include <vector>

#include "histogram/builders.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hops {

/// \brief Which construction algorithm a build request runs.
enum class HistogramBuilderKind {
  kTrivial,
  kEquiWidth,
  kEquiDepth,
  kVOptEndBiased,
  kVOptEndBiasedGrouped,
  kVOptSerialDP,
  kVOptSerialDPFast,
  kVOptSerialExhaustive,
};

/// \brief Stable lowercase name ("v-opt-serial-dp-fast", ...).
const char* HistogramBuilderKindToString(HistogramBuilderKind kind);

/// \brief One independent (frequency set × bucket count × builder kind)
/// build problem.
struct HistogramBuildRequest {
  FrequencySet set;
  size_t num_buckets = 10;
  HistogramBuilderKind kind = HistogramBuilderKind::kVOptEndBiased;
  /// Optional out-param, filled by the v-opt serial builders (zeroed by the
  /// others). Must stay valid until the batch call returns.
  VOptDiagnostics* diagnostics = nullptr;
};

/// \brief Controls for BuildHistogramBatch.
struct ParallelBuildOptions {
  /// Pool to fan out on; nullptr means ThreadPool::Global(). A ScopedSerial
  /// region on the calling thread runs the whole batch inline instead.
  ThreadPool* pool = nullptr;
};

/// \brief Dispatches to the builder selected by \p kind. \p diagnostics is
/// filled by the v-opt serial builders and zeroed by the others.
Result<Histogram> BuildHistogram(FrequencySet set, HistogramBuilderKind kind,
                                 size_t num_buckets,
                                 VOptDiagnostics* diagnostics = nullptr);

/// \brief Runs every request (consuming its set) and returns results in
/// request order. Independent requests execute concurrently on the pool;
/// each build may itself use intra-build parallelism.
std::vector<Result<Histogram>> BuildHistogramBatch(
    std::vector<HistogramBuildRequest> requests,
    const ParallelBuildOptions& options = {});

}  // namespace hops
