#include "estimator/sampling_estimator.h"

#include <algorithm>
#include <unordered_map>

#include "util/math.h"
#include "util/random.h"

namespace hops {

Result<SamplingJoinEstimate> EstimateJoinSizeBySampling(
    const Relation& left, const std::string& column_left,
    const Relation& right, const std::string& column_right,
    const SamplingJoinOptions& options) {
  HOPS_ASSIGN_OR_RETURN(size_t lcol,
                        left.schema().ColumnIndex(column_left));
  HOPS_ASSIGN_OR_RETURN(size_t rcol,
                        right.schema().ColumnIndex(column_right));
  if (left.num_tuples() == 0 || right.num_tuples() == 0) {
    return SamplingJoinEstimate{};
  }
  if (options.left_sample == 0 || options.right_sample == 0) {
    return Status::InvalidArgument("sample sizes must be positive");
  }
  const size_t nl = std::min(options.left_sample, left.num_tuples());
  const size_t nr = std::min(options.right_sample, right.num_tuples());
  Rng rng(options.seed);
  std::vector<size_t> lrows =
      rng.SampleWithoutReplacement(left.num_tuples(), nl);
  std::vector<size_t> rrows =
      rng.SampleWithoutReplacement(right.num_tuples(), nr);

  std::unordered_map<Value, double, ValueHash> build;
  build.reserve(nl);
  for (size_t row : lrows) {
    build[left.tuple(row)[lcol]] += 1.0;
  }
  KahanSum matches;
  for (size_t row : rrows) {
    auto it = build.find(right.tuple(row)[rcol]);
    if (it != build.end()) matches.Add(it->second);
  }
  SamplingJoinEstimate out;
  out.sample_matches = matches.Value();
  out.left_sampled = nl;
  out.right_sampled = nr;
  const double scale =
      (static_cast<double>(left.num_tuples()) / static_cast<double>(nl)) *
      (static_cast<double>(right.num_tuples()) / static_cast<double>(nr));
  out.estimate = out.sample_matches * scale;
  return out;
}

}  // namespace hops
