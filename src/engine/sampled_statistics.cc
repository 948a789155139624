#include "engine/sampled_statistics.h"

#include <algorithm>
#include <unordered_map>

#include "engine/sampling.h"
#include "util/random.h"

namespace hops {

Result<ColumnStatistics> AnalyzeColumnSampled(
    const Relation& relation, const std::string& column,
    const SampledStatisticsOptions& options) {
  if (relation.num_tuples() == 0) {
    return Status::InvalidArgument("cannot analyze an empty relation");
  }
  if (options.num_buckets == 0) {
    return Status::InvalidArgument("num_buckets must be positive");
  }
  HOPS_ASSIGN_OR_RETURN(size_t col, relation.schema().ColumnIndex(column));
  const double total = static_cast<double>(relation.num_tuples());
  const size_t top_k = options.num_buckets - 1;

  // Pass 1 (sample): candidate heavy hitters + distinct-count estimate.
  const size_t sample_size =
      std::min(options.sample_size, relation.num_tuples());
  Rng rng(options.seed);
  std::vector<size_t> rows =
      rng.SampleWithoutReplacement(relation.num_tuples(), sample_size);
  std::unordered_map<Value, double, ValueHash> sample_counts;
  for (size_t row : rows) {
    sample_counts[relation.tuple(row)[col]] += 1.0;
  }
  // Chao1 distinct estimate from sample singletons/doubletons, clamped to
  // [observed distinct, relation size].
  double f1 = 0, f2 = 0;
  for (const auto& [value, count] : sample_counts) {
    if (count == 1) f1 += 1;
    if (count == 2) f2 += 1;
  }
  double distinct_estimate = static_cast<double>(sample_counts.size());
  if (f1 > 0) {
    distinct_estimate += f2 > 0 ? (f1 * f1) / (2.0 * f2) : f1 * (f1 - 1) / 2.0;
  }
  distinct_estimate = std::min(distinct_estimate, total);
  distinct_estimate =
      std::max(distinct_estimate, static_cast<double>(sample_counts.size()));

  // Rank candidates by sampled frequency.
  std::vector<std::pair<double, Value>> ranked;
  ranked.reserve(sample_counts.size());
  for (const auto& [value, count] : sample_counts) {
    ranked.emplace_back(count, value);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  if (ranked.size() > top_k) ranked.resize(std::max<size_t>(top_k, 1));
  if (top_k == 0) ranked.clear();

  // Pass 2 (one scan): exact counts for the candidates.
  std::vector<Value> candidates;
  candidates.reserve(ranked.size());
  for (const auto& [count, value] : ranked) candidates.push_back(value);
  HOPS_ASSIGN_OR_RETURN(std::vector<ValueFrequency> exact,
                        CountExactFrequencies(relation, column, candidates));

  // Keep a candidate only if its exact frequency clears the keep_ratio bar
  // against the average frequency of what would remain implicit.
  std::sort(exact.begin(), exact.end(),
            [](const ValueFrequency& a, const ValueFrequency& b) {
              return a.frequency > b.frequency;
            });
  std::vector<std::pair<int64_t, double>> explicit_entries;
  double explicit_mass = 0;
  for (const auto& vf : exact) {
    double remaining_values =
        std::max(1.0, distinct_estimate -
                          static_cast<double>(explicit_entries.size()) - 1);
    double remaining_avg =
        std::max(0.0, total - explicit_mass - vf.frequency) /
        remaining_values;
    if (vf.frequency >= options.keep_ratio * std::max(remaining_avg, 1.0)) {
      explicit_entries.emplace_back(CatalogKeyFor(vf.value), vf.frequency);
      explicit_mass += vf.frequency;
    }
  }
  double num_default = std::max(
      0.0, distinct_estimate - static_cast<double>(explicit_entries.size()));
  double default_freq =
      num_default > 0 ? std::max(0.0, total - explicit_mass) / num_default
                      : 0.0;

  ColumnStatistics stats;
  stats.num_tuples = total;
  stats.num_distinct = static_cast<uint64_t>(distinct_estimate + 0.5);
  // Domain bounds from the sample (an approximation, like everything here).
  bool first = true;
  for (const auto& [value, count] : sample_counts) {
    int64_t key = CatalogKeyFor(value);
    if (first || key < stats.min_value) stats.min_value = key;
    if (first || key > stats.max_value) stats.max_value = key;
    first = false;
  }
  HOPS_ASSIGN_OR_RETURN(
      stats.histogram,
      CatalogHistogram::Make(std::move(explicit_entries), default_freq,
                             static_cast<uint64_t>(num_default + 0.5)));
  return stats;
}

}  // namespace hops
