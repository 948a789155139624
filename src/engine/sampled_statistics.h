// Sampling-based statistics collection (Section 4.2's "efficient
// alternative"): identify candidate high-frequency values from a small
// sample, count exactly those candidates in one scan, and build the
// end-biased histogram with only *high* univalued buckets.
//
// The paper's caveats are preserved deliberately: this pipeline cannot find
// the *lowest* frequencies, so for reverse-Zipf-style distributions (many
// high frequencies, few low ones) the resulting histogram is inferior to the
// full V-OptBiasHist — tests pin down both the success and the failure mode.

#pragma once

#include <cstdint>
#include <string>

#include "engine/catalog.h"
#include "engine/relation.h"
#include "util/status.h"

namespace hops {

/// \brief Controls for the sampled ANALYZE.
struct SampledStatisticsOptions {
  size_t sample_size = 500;
  size_t num_buckets = 11;  ///< beta: up to beta-1 explicit high values.
  uint64_t seed = 0xDB2;
  /// Candidates whose exact frequency does not exceed this multiple of the
  /// average remaining frequency are not worth a univalued bucket.
  double keep_ratio = 1.5;
};

/// \brief One-sample + one-scan statistics:
///  1. sample \p sample_size tuples, rank values by sampled frequency;
///  2. take the top beta-1 candidates, count them exactly in one scan;
///  3. store candidates that pass keep_ratio explicitly, everything else in
///     the default bucket.
/// Costs O(sample) + one scan, versus algorithm Matrix's full hash
/// aggregation of every distinct value.
Result<ColumnStatistics> AnalyzeColumnSampled(
    const Relation& relation, const std::string& column,
    const SampledStatisticsOptions& options = {});

}  // namespace hops
