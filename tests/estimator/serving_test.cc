// Serving-path estimators: every compiled function must be bit-identical to
// its Catalog/ColumnStatistics counterpart, and EstimateOne/EstimateBatch
// must validate ids and preserve spec order.

#include "estimator/serving.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "engine/predicate.h"
#include "estimator/join_estimator.h"
#include "estimator/predicate_estimator.h"
#include "estimator/selectivity.h"
#include "util/thread_pool.h"

namespace hops {
namespace {

ColumnStatistics MakeStats(double num_tuples,
                           std::vector<std::pair<int64_t, double>> entries,
                           double default_frequency, uint64_t num_default,
                           int64_t min_value, int64_t max_value) {
  ColumnStatistics stats;
  stats.num_tuples = num_tuples;
  stats.num_distinct = entries.size() + num_default;
  stats.min_value = min_value;
  stats.max_value = max_value;
  stats.histogram = *CatalogHistogram::Make(std::move(entries),
                                            default_frequency, num_default);
  return stats;
}

struct Fixture {
  Catalog catalog;
  std::shared_ptr<const CatalogSnapshot> snapshot;
  ColumnStatistics r_a, r_b, s_a, s_b;
  ColumnId r_a_id = 0, r_b_id = 0, s_a_id = 0, s_b_id = 0;

  Fixture() {
    r_a = MakeStats(100.0, {{1, 30.0}, {2, 20.0}, {7, 6.0}}, 6.25, 8, 1, 10);
    // Fractional frequencies: exercises the non-exact prefix fallback.
    r_b = MakeStats(90.0, {{3, 40.5}, {5, 10.25}}, 3.125, 12, 0, 15);
    s_a = MakeStats(60.0, {{2, 25.0}, {7, 9.0}}, 2.0, 13, 1, 20);
    s_b = MakeStats(60.0, {{4, 12.0}}, 4.0, 11, 0, 12);
    catalog.PutColumnStatistics("R", "a", r_a).Check();
    catalog.PutColumnStatistics("R", "b", r_b).Check();
    catalog.PutColumnStatistics("S", "a", s_a).Check();
    catalog.PutColumnStatistics("S", "b", s_b).Check();
    snapshot = *CatalogSnapshot::Compile(catalog);
    r_a_id = *snapshot->Resolve("R", "a");
    r_b_id = *snapshot->Resolve("R", "b");
    s_a_id = *snapshot->Resolve("S", "a");
    s_b_id = *snapshot->Resolve("S", "b");
  }
};

TEST(ServingTest, EqualityMatchesLegacyBitForBit) {
  Fixture f;
  for (int64_t v = -3; v <= 25; ++v) {
    const Value probe(v);
    EXPECT_EQ(EstimateEqualitySelection(f.snapshot->stats(f.r_a_id), probe),
              EstimateEqualitySelection(f.r_a, probe))
        << v;
    EXPECT_EQ(EstimateNotEqualsSelection(f.snapshot->stats(f.r_b_id), probe),
              EstimateNotEqualsSelection(f.r_b, probe))
        << v;
  }
}

TEST(ServingTest, DisjunctiveMatchesLegacyBitForBit) {
  Fixture f;
  std::vector<Value> values = {Value(int64_t{2}), Value(int64_t{9}),
                               Value(int64_t{2}), Value(int64_t{1}),
                               Value(int64_t{9}), Value(int64_t{-4})};
  EXPECT_EQ(EstimateDisjunctiveSelection(f.snapshot->stats(f.r_a_id), values),
            EstimateDisjunctiveSelection(f.r_a, values));
  EXPECT_EQ(EstimateDisjunctiveSelection(f.snapshot->stats(f.r_b_id), values),
            EstimateDisjunctiveSelection(f.r_b, values));
}

TEST(ServingTest, RangeMatchesLegacyBitForBit) {
  Fixture f;
  for (int64_t lo = -2; lo <= 12; ++lo) {
    for (int64_t hi = lo - 1; hi <= 14; ++hi) {
      for (int mask = 0; mask < 4; ++mask) {
        const RangeBounds bounds{lo, hi, (mask & 1) != 0, (mask & 2) != 0};
        for (auto [stats, id] :
             {std::pair{&f.r_a, f.r_a_id}, std::pair{&f.r_b, f.r_b_id}}) {
          auto legacy = EstimateRangeSelectionLinear(*stats, bounds);
          auto serving =
              EstimateRangeSelection(f.snapshot->stats(id), bounds);
          ASSERT_EQ(legacy.ok(), serving.ok());
          if (legacy.ok()) {
            EXPECT_EQ(*legacy, *serving)
                << "[" << lo << "," << hi << "] mask " << mask;
          }
        }
      }
    }
  }
}

TEST(ServingTest, EquiJoinMatchesLegacyBitForBit) {
  Fixture f;
  EXPECT_EQ(EstimateEquiJoinSize(f.snapshot->stats(f.r_a_id),
                                 f.snapshot->stats(f.s_a_id)),
            EstimateEquiJoinSize(f.r_a, f.s_a));
  EXPECT_EQ(EstimateEquiJoinSize(f.snapshot->stats(f.r_b_id),
                                 f.snapshot->stats(f.s_b_id)),
            EstimateEquiJoinSize(f.r_b, f.s_b));
}

TEST(ServingTest, ChainMatchesLegacyBitForBit) {
  Fixture f;
  std::vector<ChainJoinSpec> specs = {
      {"R", "", "b"}, {"S", "a", "b"}, {"R", "a", ""}};
  auto legacy = ExplainChainJoinSize(f.catalog, specs);
  ASSERT_TRUE(legacy.ok());

  auto steps = ResolveChain(*f.snapshot, specs);
  ASSERT_TRUE(steps.ok());
  auto served = ExplainChainJoinSize(*f.snapshot, *steps);
  ASSERT_TRUE(served.ok());
  ASSERT_EQ(legacy->pairwise_sizes.size(), served->pairwise_sizes.size());
  for (size_t i = 0; i < legacy->pairwise_sizes.size(); ++i) {
    EXPECT_EQ(legacy->pairwise_sizes[i], served->pairwise_sizes[i]);
    EXPECT_EQ(legacy->running_sizes[i], served->running_sizes[i]);
  }
  EXPECT_EQ(legacy->final_size, served->final_size);
}

TEST(ServingTest, ResolveChainValidatesLikeLegacy) {
  Fixture f;
  // Too short.
  std::vector<ChainJoinSpec> one = {{"R", "", ""}};
  EXPECT_FALSE(ResolveChain(*f.snapshot, one).ok());
  // Outer columns must be empty.
  std::vector<ChainJoinSpec> outer = {{"R", "a", "b"}, {"S", "a", ""}};
  EXPECT_FALSE(ResolveChain(*f.snapshot, outer).ok());
  // Interior columns must be non-empty.
  std::vector<ChainJoinSpec> interior = {{"R", "", ""}, {"S", "a", ""}};
  EXPECT_FALSE(ResolveChain(*f.snapshot, interior).ok());
  // Unknown column.
  std::vector<ChainJoinSpec> unknown = {{"R", "", "zzz"}, {"S", "a", ""}};
  EXPECT_FALSE(ResolveChain(*f.snapshot, unknown).ok());
}

TEST(ServingTest, EstimateOneRejectsBadIds) {
  Fixture f;
  const ColumnId bad = static_cast<ColumnId>(f.snapshot->num_columns());
  EXPECT_FALSE(
      EstimateOne(*f.snapshot, EstimateSpec::Equality(bad, Value(int64_t{1})))
          .ok());
  EXPECT_FALSE(
      EstimateOne(*f.snapshot, EstimateSpec::Join(f.r_a_id, bad)).ok());
  EXPECT_FALSE(EstimateOne(*f.snapshot,
                           EstimateSpec::Chain({SnapshotChainStep{bad, bad}}))
                   .ok());
  EXPECT_FALSE(EstimateOne(*f.snapshot, EstimateSpec::Chain({})).ok());
}

TEST(ServingTest, EstimateBatchMatchesSerialLoop) {
  Fixture f;
  std::vector<EstimateSpec> specs;
  specs.push_back(EstimateSpec::Equality(f.r_a_id, Value(int64_t{2})));
  specs.push_back(EstimateSpec::NotEquals(f.r_b_id, Value(int64_t{3})));
  specs.push_back(EstimateSpec::In(
      f.r_a_id, {Value(int64_t{1}), Value(int64_t{7}), Value(int64_t{1})}));
  specs.push_back(EstimateSpec::Range(f.r_a_id, RangeBounds{1, 8, true, false}));
  specs.push_back(EstimateSpec::Join(f.r_a_id, f.s_a_id));
  std::vector<ChainJoinSpec> chain_specs = {
      {"R", "", "b"}, {"S", "a", "b"}, {"R", "a", ""}};
  specs.push_back(EstimateSpec::Chain(*ResolveChain(*f.snapshot, chain_specs)));
  // One failing spec in the middle: the batch must not abort.
  specs.insert(specs.begin() + 2,
               EstimateSpec::Equality(static_cast<ColumnId>(999),
                                      Value(int64_t{0})));

  std::vector<Result<double>> batched = EstimateBatch(*f.snapshot, specs);
  ASSERT_EQ(batched.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    Result<double> serial = EstimateOne(*f.snapshot, specs[i]);
    ASSERT_EQ(serial.ok(), batched[i].ok()) << "spec " << i;
    if (serial.ok()) {
      EXPECT_EQ(*serial, *batched[i]) << "spec " << i;
    }
  }
  EXPECT_FALSE(batched[2].ok());
}

// EstimateBatch runs on its calling thread and leaves a pool it is handed
// alone. Both workers are parked first, so a task handed to the pool would
// stay queued where Help() finds it.
TEST(ServingTest, EstimateBatchEmptyAndExplicitPool) {
  Fixture f;
  EXPECT_TRUE(EstimateBatch(*f.snapshot, {}).empty());
  ThreadPool pool(2);
  Latch release(1);
  std::atomic<int> parked{0};
  for (int worker = 0; worker < 2; ++worker) {
    pool.Submit([&] {
      parked.fetch_add(1);
      release.Wait();
    });
  }
  while (parked.load() < 2) std::this_thread::yield();

  // Every lane has two independent units of work: point probes and range
  // probes on two columns each, and a join beside an IN list.
  const std::vector<EstimateSpec> specs = {
      EstimateSpec::Equality(f.r_a_id, Value(int64_t{1})),
      EstimateSpec::Equality(f.s_b_id, Value(int64_t{4})),
      EstimateSpec::Range(f.r_a_id, RangeBounds{1, 8, true, false}),
      EstimateSpec::Range(f.r_b_id, RangeBounds{0, 12, true, true}),
      EstimateSpec::Join(f.r_a_id, f.s_a_id),
      EstimateSpec::In(f.s_a_id, {Value(int64_t{2}), Value(int64_t{7})}),
  };
  const std::vector<Result<double>> results =
      EstimateBatch(*f.snapshot, specs, &pool);
  const bool queued = pool.Help();
  release.CountDown();

  EXPECT_FALSE(queued) << "EstimateBatch handed work to the pool";
  ASSERT_EQ(results.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const Result<double> serial = EstimateOne(*f.snapshot, specs[i]);
    ASSERT_TRUE(serial.ok()) << "spec " << i;
    ASSERT_TRUE(results[i].ok()) << "spec " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(*results[i]),
              std::bit_cast<uint64_t>(*serial))
        << "spec " << i;
  }
}

TEST(ServingTest, PredicateCardinalityMatchesCatalogOverload) {
  Fixture f;
  Predicate predicate = Predicate::Of(
      {Comparison{"a", PredicateOp::kEqual, Value(int64_t{2}), {}},
       Comparison{"b", PredicateOp::kLess, Value(int64_t{9}), {}}});
  auto legacy = EstimatePredicateCardinality(f.catalog, "R", predicate);
  auto served = EstimatePredicateCardinality(*f.snapshot, "R", predicate);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(*legacy, *served);
}

// --- Feedback hook (EstimationFeedbackSink / ReportEstimateOutcome) -------

class RecordingSink : public EstimationFeedbackSink {
 public:
  struct Report {
    std::string table;
    std::string column;
    double estimated;
    double actual;
  };

  void ReportPredicateOutcome(std::string_view table, std::string_view column,
                              const PredicateOutcome& outcome) override {
    reports.push_back(Report{std::string(table), std::string(column),
                             outcome.estimated, outcome.actual});
  }

  std::vector<Report> reports;
};

TEST(ServingFeedbackTest, SelectionReportsItsColumn) {
  Fixture f;
  RecordingSink sink;
  EstimateSpec spec = EstimateSpec::Equality(f.r_a_id, Value(int64_t{2}));
  ASSERT_TRUE(
      ReportEstimateOutcome(*f.snapshot, spec, 20.0, 25.0, &sink).ok());
  ASSERT_EQ(sink.reports.size(), 1u);
  EXPECT_EQ(sink.reports[0].table, "R");
  EXPECT_EQ(sink.reports[0].column, "a");
  EXPECT_DOUBLE_EQ(sink.reports[0].estimated, 20.0);
  EXPECT_DOUBLE_EQ(sink.reports[0].actual, 25.0);
}

TEST(ServingFeedbackTest, JoinReportsBothSidesOnce) {
  Fixture f;
  RecordingSink sink;
  EstimateSpec spec = EstimateSpec::Join(f.r_a_id, f.s_a_id);
  ASSERT_TRUE(
      ReportEstimateOutcome(*f.snapshot, spec, 100.0, 80.0, &sink).ok());
  ASSERT_EQ(sink.reports.size(), 2u);
  // Ids are deduplicated and reported in id order.
  EXPECT_EQ(sink.reports[0].table, "R");
  EXPECT_EQ(sink.reports[1].table, "S");

  // A self-join consults one column: exactly one report.
  sink.reports.clear();
  EstimateSpec self_join = EstimateSpec::Join(f.r_a_id, f.r_a_id);
  ASSERT_TRUE(
      ReportEstimateOutcome(*f.snapshot, self_join, 9.0, 9.0, &sink).ok());
  EXPECT_EQ(sink.reports.size(), 1u);
}

TEST(ServingFeedbackTest, ChainReportsEveryDistinctColumn) {
  Fixture f;
  RecordingSink sink;
  std::vector<SnapshotChainStep> steps = {{f.r_a_id, f.s_a_id},
                                          {f.s_b_id, f.r_b_id}};
  EstimateSpec spec = EstimateSpec::Chain(std::move(steps));
  ASSERT_TRUE(
      ReportEstimateOutcome(*f.snapshot, spec, 50.0, 60.0, &sink).ok());
  EXPECT_EQ(sink.reports.size(), 4u);
}

TEST(ServingFeedbackTest, ValidatesSinkAndIds) {
  Fixture f;
  RecordingSink sink;
  EstimateSpec spec = EstimateSpec::Equality(f.r_a_id, Value(int64_t{2}));
  EXPECT_TRUE(ReportEstimateOutcome(*f.snapshot, spec, 1.0, 1.0, nullptr)
                  .IsInvalidArgument());
  EstimateSpec bad = EstimateSpec::Equality(
      static_cast<ColumnId>(f.snapshot->num_columns()), Value(int64_t{2}));
  EXPECT_TRUE(ReportEstimateOutcome(*f.snapshot, bad, 1.0, 1.0, &sink)
                  .IsInvalidArgument());
  EXPECT_TRUE(sink.reports.empty());  // nothing reported on failure
}

TEST(ServingFeedbackTest, RejectsNonFiniteAndNegativeMagnitudes) {
  // Regression: a NaN or infinity forwarded into a sink's EWMA poisons it
  // permanently (alpha*x + (1-alpha)*inf stays inf), so the boundary must
  // reject bad magnitudes before any sink sees them.
  Fixture f;
  RecordingSink sink;
  EstimateSpec spec = EstimateSpec::Equality(f.r_a_id, Value(int64_t{2}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -inf, -1.0}) {
    EXPECT_TRUE(ReportEstimateOutcome(*f.snapshot, spec, bad, 25.0, &sink)
                    .IsInvalidArgument());
    EXPECT_TRUE(ReportEstimateOutcome(*f.snapshot, spec, 20.0, bad, &sink)
                    .IsInvalidArgument());
  }
  EXPECT_TRUE(sink.reports.empty());  // the sink never saw a bad value

  // Zero is a legitimate result size (empty result), not an error; the
  // q-error tracker clamps it to the one-tuple floor downstream.
  EXPECT_TRUE(ReportEstimateOutcome(*f.snapshot, spec, 0.0, 0.0, &sink).ok());
  EXPECT_EQ(sink.reports.size(), 1u);
}

}  // namespace
}  // namespace hops
