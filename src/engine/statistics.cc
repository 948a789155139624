#include "engine/statistics.h"

#include <algorithm>

#include "engine/hash_agg.h"

namespace hops {

const char* StatisticsHistogramClassToString(StatisticsHistogramClass c) {
  switch (c) {
    case StatisticsHistogramClass::kTrivial:
      return "trivial";
    case StatisticsHistogramClass::kEquiWidth:
      return "equi-width";
    case StatisticsHistogramClass::kEquiDepth:
      return "equi-depth";
    case StatisticsHistogramClass::kVOptEndBiased:
      return "v-opt-end-biased";
    case StatisticsHistogramClass::kVOptSerialDP:
      return "v-opt-serial-dp";
  }
  return "unknown";
}

Result<ColumnStatistics> AnalyzeColumn(const Relation& relation,
                                       const std::string& column,
                                       const StatisticsOptions& options) {
  if (relation.num_tuples() == 0) {
    return Status::InvalidArgument("cannot analyze an empty relation");
  }
  // Algorithm Matrix: one scan + hash table -> per-value frequencies.
  HOPS_ASSIGN_OR_RETURN(std::vector<ValueFrequency> table,
                        ComputeFrequencyTable(relation, column));
  std::vector<Frequency> freqs;
  std::vector<int64_t> value_ids;
  freqs.reserve(table.size());
  value_ids.reserve(table.size());
  for (const auto& vf : table) {
    freqs.push_back(vf.frequency);
    value_ids.push_back(CatalogKeyFor(vf.value));
  }
  HOPS_ASSIGN_OR_RETURN(FrequencySet set,
                        FrequencySet::Make(std::move(freqs)));

  const size_t beta =
      std::max<size_t>(1, std::min(options.num_buckets, set.size()));
  Result<Histogram> hist =
      BuildHistogram(std::move(set),
                     BuilderKindForStatisticsClass(options.histogram_class),
                     beta);
  HOPS_RETURN_NOT_OK(hist.status());

  ColumnStatistics stats;
  stats.num_tuples = static_cast<double>(relation.num_tuples());
  stats.num_distinct = table.size();
  // Domain bounds for int64 columns; strings get hash-key bounds (unused by
  // range estimation, which requires int64 semantics anyway).
  stats.min_value = value_ids.empty() ? 0 : value_ids[0];
  stats.max_value = stats.min_value;
  for (int64_t id : value_ids) {
    stats.min_value = std::min(stats.min_value, id);
    stats.max_value = std::max(stats.max_value, id);
  }
  HOPS_ASSIGN_OR_RETURN(
      stats.histogram,
      CatalogHistogram::FromHistogram(*hist, value_ids,
                                      options.average_mode));
  return stats;
}

Status AnalyzeAndStore(const Relation& relation, const std::string& column,
                       Catalog* catalog, const StatisticsOptions& options) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("catalog must not be null");
  }
  HOPS_ASSIGN_OR_RETURN(ColumnStatistics stats,
                        AnalyzeColumn(relation, column, options));
  return catalog->PutColumnStatistics(relation.name(), column, stats);
}

HistogramBuilderKind BuilderKindForStatisticsClass(
    StatisticsHistogramClass c) {
  switch (c) {
    case StatisticsHistogramClass::kTrivial:
      return HistogramBuilderKind::kTrivial;
    case StatisticsHistogramClass::kEquiWidth:
      return HistogramBuilderKind::kEquiWidth;
    case StatisticsHistogramClass::kEquiDepth:
      return HistogramBuilderKind::kEquiDepth;
    case StatisticsHistogramClass::kVOptEndBiased:
      return HistogramBuilderKind::kVOptEndBiased;
    case StatisticsHistogramClass::kVOptSerialDP:
      return HistogramBuilderKind::kVOptSerialDP;
  }
  return HistogramBuilderKind::kVOptEndBiased;
}

}  // namespace hops
