// Full-pipeline integration tests: load relations into the engine, ANALYZE
// into the catalog, estimate with the optimizer-facing API, and compare
// against executed ground truth.

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/hash_join.h"
#include "engine/statistics.h"
#include "histogram/maintenance.h"
#include "estimator/join_estimator.h"
#include "estimator/selectivity.h"
#include "stats/nba_data.h"
#include "stats/zipf.h"
#include "util/random.h"

namespace hops {
namespace {

// A WorksFor-like relation: employees working in departments, with a skewed
// department-size distribution.
Relation MakeWorksFor(uint64_t seed, size_t num_employees) {
  auto schema = Schema::Make({{"ename", ValueType::kString},
                              {"dname", ValueType::kString},
                              {"year", ValueType::kInt64}});
  auto rel = Relation::Make("WorksFor", *std::move(schema));
  EXPECT_TRUE(rel.ok());
  const std::vector<std::string> departments = {"toy", "jewelry", "shoe",
                                                "candy"};
  // Zipf-ish department sizes: toy gets ~half the employees.
  const std::vector<double> weights = {0.5, 0.25, 0.15, 0.1};
  Rng rng(seed);
  for (size_t i = 0; i < num_employees; ++i) {
    double draw = rng.NextDouble();
    size_t dept = 0;
    double acc = 0;
    for (size_t d = 0; d < weights.size(); ++d) {
      acc += weights[d];
      if (draw < acc) {
        dept = d;
        break;
      }
    }
    int64_t year = 1990 + rng.NextInt(0, 4);
    rel->AppendUnchecked({Value("e" + std::to_string(i)),
                          Value(departments[dept]), Value(year)});
  }
  return *std::move(rel);
}

TEST(EndToEndTest, SelectionEstimatesMatchTruthForExplicitValues) {
  Relation rel = MakeWorksFor(7, 2000);
  Catalog catalog;
  StatisticsOptions options;
  options.histogram_class = StatisticsHistogramClass::kVOptEndBiased;
  options.num_buckets = 3;
  ASSERT_TRUE(AnalyzeAndStore(rel, "dname", &catalog, options).ok());
  auto stats = catalog.GetColumnStatistics("WorksFor", "dname");
  ASSERT_TRUE(stats.ok());

  // Count truth directly.
  double toy_truth = 0;
  for (const auto& t : rel.tuples()) {
    if (t[1] == Value("toy")) toy_truth += 1;
  }
  // "toy" is the dominant department; the end-biased histogram stores its
  // frequency exactly.
  double toy_est = EstimateEqualitySelection(*stats, Value("toy"));
  EXPECT_DOUBLE_EQ(toy_est, toy_truth);
  // Complement estimate is consistent.
  EXPECT_DOUBLE_EQ(EstimateNotEqualsSelection(*stats, Value("toy")),
                   2000.0 - toy_truth);
}

TEST(EndToEndTest, YearRangeEstimateIsReasonable) {
  Relation rel = MakeWorksFor(11, 3000);
  Catalog catalog;
  StatisticsOptions options;
  options.num_buckets = 3;
  ASSERT_TRUE(AnalyzeAndStore(rel, "year", &catalog, options).ok());
  auto stats = catalog.GetColumnStatistics("WorksFor", "year");
  ASSERT_TRUE(stats.ok());
  double truth = 0;
  for (const auto& t : rel.tuples()) {
    int64_t y = t[2].AsInt64();
    if (y >= 1991 && y <= 1993) truth += 1;
  }
  auto est = EstimateRangeSelection(*stats, RangeBounds{1991, 1993});
  ASSERT_TRUE(est.ok());
  // Years are near-uniform; a 3-bucket histogram should land close.
  EXPECT_NEAR(*est, truth, 0.15 * truth);
}

TEST(EndToEndTest, JoinEstimateTracksExecutedTruth) {
  // Employees join Departments through dname; Departments has one tuple
  // per department name plus a few extinct departments.
  Relation works = MakeWorksFor(13, 2500);
  auto dschema = Schema::Make({{"dname", ValueType::kString}});
  auto depts = Relation::Make("Departments", *std::move(dschema));
  ASSERT_TRUE(depts.ok());
  for (const char* d :
       {"toy", "jewelry", "shoe", "candy", "hat", "umbrella"}) {
    ASSERT_TRUE(depts->Append({Value(d)}).ok());
  }

  Catalog catalog;
  StatisticsOptions options;
  options.num_buckets = 5;
  ASSERT_TRUE(AnalyzeAndStore(works, "dname", &catalog, options).ok());
  ASSERT_TRUE(AnalyzeAndStore(*depts, "dname", &catalog, options).ok());

  auto ls = catalog.GetColumnStatistics("WorksFor", "dname");
  auto rs = catalog.GetColumnStatistics("Departments", "dname");
  ASSERT_TRUE(ls.ok() && rs.ok());
  double est = EstimateEquiJoinSize(*ls, *rs);

  auto truth = HashJoinCount(works, "dname", *depts, "dname");
  ASSERT_TRUE(truth.ok());
  // Every employee matches exactly one department: truth = 2500.
  EXPECT_DOUBLE_EQ(*truth, 2500.0);
  EXPECT_NEAR(est, *truth, 0.25 * *truth);
}

TEST(EndToEndTest, ChainEstimateAgainstExecutedChain) {
  // R0(a) -- R1(a, b) -- R2(b) with skewed columns; compare the catalog
  // estimate against execution.
  Rng rng(17);
  auto schema0 = Schema::Make({{"a", ValueType::kInt64}});
  auto r0 = Relation::Make("R0", *std::move(schema0));
  ASSERT_TRUE(r0.ok());
  for (int i = 0; i < 600; ++i) {
    // Skewed toward small values.
    int64_t v = static_cast<int64_t>(
        std::min(rng.NextBounded(10), rng.NextBounded(10)));
    r0->AppendUnchecked({Value(v)});
  }
  auto schema1 = Schema::Make({{"a", ValueType::kInt64},
                               {"b", ValueType::kInt64}});
  auto r1 = Relation::Make("R1", *std::move(schema1));
  ASSERT_TRUE(r1.ok());
  for (int i = 0; i < 400; ++i) {
    r1->AppendUnchecked({Value(static_cast<int64_t>(rng.NextBounded(10))),
                         Value(static_cast<int64_t>(rng.NextBounded(8)))});
  }
  auto schema2 = Schema::Make({{"b", ValueType::kInt64}});
  auto r2 = Relation::Make("R2", *std::move(schema2));
  ASSERT_TRUE(r2.ok());
  for (int i = 0; i < 300; ++i) {
    r2->AppendUnchecked({Value(static_cast<int64_t>(
        std::min(rng.NextBounded(8), rng.NextBounded(8))))});
  }

  Catalog catalog;
  StatisticsOptions options;
  options.num_buckets = 10;
  ASSERT_TRUE(AnalyzeAndStore(*r0, "a", &catalog, options).ok());
  ASSERT_TRUE(AnalyzeAndStore(*r1, "a", &catalog, options).ok());
  ASSERT_TRUE(AnalyzeAndStore(*r1, "b", &catalog, options).ok());
  ASSERT_TRUE(AnalyzeAndStore(*r2, "b", &catalog, options).ok());

  std::vector<ChainJoinSpec> specs = {
      {"R0", "", "a"}, {"R1", "a", "b"}, {"R2", "b", ""}};
  auto est = EstimateChainJoinSize(catalog, specs);
  ASSERT_TRUE(est.ok());

  std::vector<ChainJoinStep> steps = {
      {&*r0, "", "a"}, {&*r1, "a", "b"}, {&*r2, "b", ""}};
  auto truth = ExecuteChainJoinCount(steps);
  ASSERT_TRUE(truth.ok());
  ASSERT_GT(*truth, 0.0);
  // The chain estimate relies on attribute independence (which holds here
  // by construction) and fine histograms: expect within 2x.
  EXPECT_GT(*est, *truth / 2);
  EXPECT_LT(*est, *truth * 2);
}

TEST(EndToEndTest, MaintainedStatisticsServeFreshEstimates) {
  // ANALYZE once, then keep the catalog entry fresh through a stream of
  // inserts with the maintenance machinery; equality estimates for
  // explicitly stored values must track the live relation exactly.
  Relation rel = MakeWorksFor(31, 1500);
  StatisticsOptions options;
  options.num_buckets = 3;
  auto stats = AnalyzeColumn(rel, "dname", options);
  ASSERT_TRUE(stats.ok());
  HistogramMaintainer maintainer(stats->histogram, stats->num_tuples);

  // Stream 300 new toy-department hires.
  double toy_before = EstimateEqualitySelection(*stats, Value("toy"));
  for (int i = 0; i < 300; ++i) {
    rel.AppendUnchecked({Value("n" + std::to_string(i)), Value("toy"),
                         Value(int64_t{1994})});
    ASSERT_TRUE(maintainer.ApplyInsert(CatalogKeyFor(Value("toy"))).ok());
  }
  ColumnStatistics live = *stats;
  live.histogram = maintainer.current();
  live.num_tuples = maintainer.num_tuples();
  double toy_after = EstimateEqualitySelection(live, Value("toy"));
  EXPECT_DOUBLE_EQ(toy_after, toy_before + 300.0);

  double truth = 0;
  for (const auto& t : rel.tuples()) {
    if (t[1] == Value("toy")) truth += 1;
  }
  EXPECT_DOUBLE_EQ(toy_after, truth);
  // 300/1500 churn exceeds the default 10% drift threshold.
  EXPECT_TRUE(maintainer.NeedsRebuild());
}

TEST(EndToEndTest, NbaWorkloadSelectionsFromCatalog) {
  auto ds = NbaDataset::Generate(1000, 23);
  ASSERT_TRUE(ds.ok());
  auto schema = Schema::Make({{"points", ValueType::kInt64},
                              {"minutes", ValueType::kInt64},
                              {"games", ValueType::kInt64}});
  auto rel = Relation::Make("Players", *std::move(schema));
  ASSERT_TRUE(rel.ok());
  for (const PlayerSeason& p : ds->players()) {
    rel->AppendUnchecked({Value(static_cast<int64_t>(p.points)),
                          Value(static_cast<int64_t>(p.minutes)),
                          Value(static_cast<int64_t>(p.games))});
  }
  Catalog catalog;
  StatisticsOptions options;
  options.num_buckets = 11;  // DB2-style: 10 frequent values + default
  for (const char* col : {"points", "minutes", "games"}) {
    ASSERT_TRUE(AnalyzeAndStore(*rel, col, &catalog, options).ok());
  }
  // Every explicit (top-10) value estimates exactly.
  for (const char* col : {"points", "minutes", "games"}) {
    auto stats = catalog.GetColumnStatistics("Players", col);
    ASSERT_TRUE(stats.ok());
    for (const auto& [value, freq] : stats->histogram.explicit_entries()) {
      double truth = 0;
      auto col_idx = rel->schema().ColumnIndex(col);
      ASSERT_TRUE(col_idx.ok());
      for (const auto& t : rel->tuples()) {
        if (t[*col_idx].AsInt64() == value) truth += 1;
      }
      EXPECT_DOUBLE_EQ(freq, truth) << col << "=" << value;
    }
    // And total estimated mass equals the relation size.
    EXPECT_NEAR(stats->histogram.EstimatedTotal(), 1000.0, 1.0);
  }
}

}  // namespace
}  // namespace hops
