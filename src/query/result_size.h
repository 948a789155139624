// Estimated result sizes of chain queries under per-relation histograms.
//
// Given a bucketization of each relation's frequency matrix cells, the
// optimizer sees the *approximate* matrices (Section 2.3's histogram
// matrices) and computes the chain product over those. The error |S - S'| of
// that estimate is what the paper's experiments measure.

#pragma once

#include <span>

#include "histogram/bucketization.h"
#include "histogram/histogram.h"
#include "query/chain_query.h"
#include "util/status.h"

namespace hops {

/// \brief Estimated size S' when relation j's matrix cells are bucketized by
/// \p bucketizations[j]. Requires one bucketization per relation with the
/// right item count.
Result<double> EstimateResultSize(
    const ChainQuery& query, std::span<const Bucketization> bucketizations,
    BucketAverageMode mode = BucketAverageMode::kExact);

/// \brief Estimated size S' from already-approximate matrices.
Result<double> EstimateResultSizeFromMatrices(
    std::span<const FrequencyMatrix> approximate_matrices);

/// \brief Both sizes and their errors for one query instance.
struct SizeEstimate {
  double exact = 0.0;        ///< S.
  double estimated = 0.0;    ///< S'.
  double error = 0.0;        ///< S - S' (signed).
  double absolute_error = 0.0;
  /// |S - S'| / S; 0 when S == 0 and S' == 0, infinity when only S == 0.
  double relative_error = 0.0;
};

/// \brief Convenience: computes exact and estimated size plus error metrics.
Result<SizeEstimate> EvaluateEstimate(
    const ChainQuery& query, std::span<const Bucketization> bucketizations,
    BucketAverageMode mode = BucketAverageMode::kExact);

}  // namespace hops
