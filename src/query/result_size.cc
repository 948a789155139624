#include "query/result_size.h"

#include <cmath>
#include <limits>

#include "histogram/matrix_histogram.h"

namespace hops {

Result<double> EstimateResultSize(
    const ChainQuery& query, std::span<const Bucketization> bucketizations,
    BucketAverageMode mode) {
  if (bucketizations.size() != query.num_relations()) {
    return Status::InvalidArgument(
        "need one bucketization per relation: got " +
        std::to_string(bucketizations.size()) + " for " +
        std::to_string(query.num_relations()) + " relations");
  }
  std::vector<FrequencyMatrix> approx;
  approx.reserve(query.num_relations());
  for (size_t j = 0; j < query.num_relations(); ++j) {
    HOPS_ASSIGN_OR_RETURN(
        MatrixHistogram mh,
        MatrixHistogram::Make(query.matrix(j), bucketizations[j]));
    HOPS_ASSIGN_OR_RETURN(FrequencyMatrix am, mh.ApproximateMatrix(mode));
    approx.push_back(std::move(am));
  }
  return ChainResultSize(approx);
}

Result<double> EstimateResultSizeFromMatrices(
    std::span<const FrequencyMatrix> approximate_matrices) {
  return ChainResultSize(approximate_matrices);
}

Result<SizeEstimate> EvaluateEstimate(
    const ChainQuery& query, std::span<const Bucketization> bucketizations,
    BucketAverageMode mode) {
  SizeEstimate out;
  HOPS_ASSIGN_OR_RETURN(out.exact, query.ExactResultSize());
  HOPS_ASSIGN_OR_RETURN(out.estimated,
                        EstimateResultSize(query, bucketizations, mode));
  out.error = out.exact - out.estimated;
  out.absolute_error = std::fabs(out.error);
  if (out.exact > 0) {
    out.relative_error = out.absolute_error / out.exact;
  } else {
    out.relative_error = out.estimated == 0
                             ? 0.0
                             : std::numeric_limits<double>::infinity();
  }
  return out;
}

}  // namespace hops
