// Statistics collection: the ANALYZE pipeline gluing the engine to the
// histogram library (the paper's Matrix algorithm followed by a histogram
// construction, Section 3.3 / Section 4).

#pragma once

#include <string>

#include "engine/catalog.h"
#include "engine/relation.h"
#include "histogram/builders.h"
#include "histogram/parallel_build.h"
#include "util/status.h"

namespace hops {

/// \brief Which construction ANALYZE uses.
enum class StatisticsHistogramClass {
  kTrivial,
  kEquiWidth,
  kEquiDepth,
  kVOptEndBiased,   ///< The paper's recommended "affordable" histogram.
  kVOptSerialDP,
};

const char* StatisticsHistogramClassToString(StatisticsHistogramClass c);

/// \brief ANALYZE options.
struct StatisticsOptions {
  StatisticsHistogramClass histogram_class =
      StatisticsHistogramClass::kVOptEndBiased;
  size_t num_buckets = 10;  ///< beta; capped at the column's distinct count.
  BucketAverageMode average_mode = BucketAverageMode::kExact;
};

/// \brief Runs algorithm Matrix on (relation, column) and builds the
/// configured histogram. Does not touch the catalog.
Result<ColumnStatistics> AnalyzeColumn(const Relation& relation,
                                       const std::string& column,
                                       const StatisticsOptions& options = {});

/// \brief AnalyzeColumn + store in \p catalog under (relation.name, column).
Status AnalyzeAndStore(const Relation& relation, const std::string& column,
                       Catalog* catalog,
                       const StatisticsOptions& options = {});

/// \brief Maps the ANALYZE histogram class to the batch-builder kind.
HistogramBuilderKind BuilderKindForStatisticsClass(
    StatisticsHistogramClass c);

}  // namespace hops
