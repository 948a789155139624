#include "engine/statistics.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace hops {
namespace {

Relation ZipfIntRelation(size_t num_values, size_t tuples_per_rank_base,
                         uint64_t /*seed*/) {
  // value v in [0, num_values) appears roughly (num_values - v) times:
  // a simple deterministic skewed column.
  auto schema = Schema::Make({{"a", ValueType::kInt64}});
  auto rel = Relation::Make("Z", *std::move(schema));
  EXPECT_TRUE(rel.ok());
  for (size_t v = 0; v < num_values; ++v) {
    size_t count = tuples_per_rank_base * (num_values - v);
    for (size_t i = 0; i < count; ++i) {
      rel->AppendUnchecked({Value(static_cast<int64_t>(v))});
    }
  }
  return *std::move(rel);
}

TEST(StatisticsTest, AnalyzeColumnBasicCounts) {
  Relation rel = ZipfIntRelation(10, 1, 0);  // 10+9+...+1 = 55 tuples
  auto stats = AnalyzeColumn(rel, "a");
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->num_tuples, 55.0);
  EXPECT_EQ(stats->num_distinct, 10u);
  EXPECT_EQ(stats->min_value, 0);
  EXPECT_EQ(stats->max_value, 9);
  EXPECT_EQ(stats->histogram.num_values(), 10u);
}

TEST(StatisticsTest, EndBiasedKeepsExactTopFrequencies) {
  Relation rel = ZipfIntRelation(20, 2, 0);
  StatisticsOptions options;
  options.histogram_class = StatisticsHistogramClass::kVOptEndBiased;
  options.num_buckets = 5;
  auto stats = AnalyzeColumn(rel, "a", options);
  ASSERT_TRUE(stats.ok());
  // Value 0 is the most frequent (40 tuples); end-biased statistics store
  // it exactly.
  bool is_explicit = false;
  double f = stats->histogram.LookupFrequency(0, &is_explicit);
  EXPECT_TRUE(is_explicit);
  EXPECT_DOUBLE_EQ(f, 40.0);
}

TEST(StatisticsTest, HistogramTotalsApproximateRelationSize) {
  Relation rel = ZipfIntRelation(30, 1, 0);
  for (auto cls : {StatisticsHistogramClass::kTrivial,
                   StatisticsHistogramClass::kEquiWidth,
                   StatisticsHistogramClass::kEquiDepth,
                   StatisticsHistogramClass::kVOptEndBiased,
                   StatisticsHistogramClass::kVOptSerialDP}) {
    StatisticsOptions options;
    options.histogram_class = cls;
    options.num_buckets = 4;
    auto stats = AnalyzeColumn(rel, "a", options);
    ASSERT_TRUE(stats.ok()) << StatisticsHistogramClassToString(cls);
    EXPECT_NEAR(stats->histogram.EstimatedTotal(), stats->num_tuples,
                1e-6 * stats->num_tuples)
        << StatisticsHistogramClassToString(cls);
  }
}

TEST(StatisticsTest, BucketCountCappedAtDistinct) {
  Relation rel = ZipfIntRelation(3, 1, 0);
  StatisticsOptions options;
  options.num_buckets = 50;
  auto stats = AnalyzeColumn(rel, "a", options);
  ASSERT_TRUE(stats.ok());
  // With beta capped at 3, the end-biased histogram is exact.
  for (int64_t v = 0; v < 3; ++v) {
    bool is_explicit = false;
    double f = stats->histogram.LookupFrequency(v, &is_explicit);
    EXPECT_DOUBLE_EQ(f, static_cast<double>(3 - v));
  }
}

TEST(StatisticsTest, EmptyRelationFails) {
  auto schema = Schema::Make({{"a", ValueType::kInt64}});
  auto rel = Relation::Make("E", *std::move(schema));
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(AnalyzeColumn(*rel, "a").status().IsInvalidArgument());
}

TEST(StatisticsTest, AnalyzeAndStoreRoundTripsThroughCatalog) {
  Relation rel = ZipfIntRelation(12, 1, 0);
  Catalog catalog;
  ASSERT_TRUE(AnalyzeAndStore(rel, "a", &catalog).ok());
  ASSERT_TRUE(catalog.HasColumnStatistics("Z", "a"));
  auto stats = catalog.GetColumnStatistics("Z", "a");
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->num_tuples, 78.0);  // 12+11+...+1
  EXPECT_EQ(stats->num_distinct, 12u);
}

TEST(StatisticsTest, AnalyzeAndStoreRequiresCatalog) {
  Relation rel = ZipfIntRelation(3, 1, 0);
  EXPECT_TRUE(AnalyzeAndStore(rel, "a", nullptr).IsInvalidArgument());
}

TEST(StatisticsTest, ClassNamesAreStable) {
  EXPECT_STREQ(
      StatisticsHistogramClassToString(StatisticsHistogramClass::kTrivial),
      "trivial");
  EXPECT_STREQ(StatisticsHistogramClassToString(
                   StatisticsHistogramClass::kVOptEndBiased),
               "v-opt-end-biased");
}

}  // namespace
}  // namespace hops
