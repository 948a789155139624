#include "query/result_size.h"

#include <gtest/gtest.h>

#include <cmath>

#include "histogram/builders.h"

namespace hops {
namespace {

ChainQuery TwoWayQuery() {
  auto r0 = FrequencyMatrix::HorizontalVector({10, 20, 30, 40});
  auto r1 = FrequencyMatrix::VerticalVector({4, 3, 2, 1});
  EXPECT_TRUE(r0.ok() && r1.ok());
  auto q = ChainQuery::Make({*r0, *r1});
  EXPECT_TRUE(q.ok());
  return *std::move(q);
}

TEST(ResultSizeTest, PerfectHistogramsReproduceExactSize) {
  ChainQuery q = TwoWayQuery();
  // One bucket per cell: the approximation is exact.
  std::vector<Bucketization> bz;
  bz.push_back(*Bucketization::FromAssignments({0, 1, 2, 3}, 4));
  bz.push_back(*Bucketization::FromAssignments({0, 1, 2, 3}, 4));
  auto est = EstimateResultSize(q, bz);
  ASSERT_TRUE(est.ok());
  auto exact = q.ExactResultSize();
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(*est, *exact);
}

TEST(ResultSizeTest, TrivialHistogramsUseUniformAssumption) {
  ChainQuery q = TwoWayQuery();
  std::vector<Bucketization> bz;
  bz.push_back(*Bucketization::SingleBucket(4));
  bz.push_back(*Bucketization::SingleBucket(4));
  auto est = EstimateResultSize(q, bz);
  ASSERT_TRUE(est.ok());
  // Uniform: each cell of R0 -> 25, each of R1 -> 2.5: S' = 4 * 62.5.
  EXPECT_DOUBLE_EQ(*est, 250.0);
}

TEST(ResultSizeTest, WrongBucketizationCountFails) {
  ChainQuery q = TwoWayQuery();
  std::vector<Bucketization> bz;
  bz.push_back(*Bucketization::SingleBucket(4));
  EXPECT_TRUE(EstimateResultSize(q, bz).status().IsInvalidArgument());
}

TEST(ResultSizeTest, WrongBucketizationSizeFails) {
  ChainQuery q = TwoWayQuery();
  std::vector<Bucketization> bz;
  bz.push_back(*Bucketization::SingleBucket(4));
  bz.push_back(*Bucketization::SingleBucket(3));
  EXPECT_FALSE(EstimateResultSize(q, bz).ok());
}

TEST(ResultSizeTest, EvaluateEstimateComputesErrorMetrics) {
  ChainQuery q = TwoWayQuery();
  std::vector<Bucketization> bz;
  bz.push_back(*Bucketization::SingleBucket(4));
  bz.push_back(*Bucketization::SingleBucket(4));
  auto ev = EvaluateEstimate(q, bz);
  ASSERT_TRUE(ev.ok());
  EXPECT_DOUBLE_EQ(ev->exact, 200.0);  // 40+60+60+40
  EXPECT_DOUBLE_EQ(ev->estimated, 250.0);
  EXPECT_DOUBLE_EQ(ev->error, -50.0);
  EXPECT_DOUBLE_EQ(ev->absolute_error, 50.0);
  EXPECT_DOUBLE_EQ(ev->relative_error, 0.25);
}

TEST(ResultSizeTest, ZeroExactSizeHandled) {
  auto r0 = FrequencyMatrix::HorizontalVector({1, 0});
  auto r1 = FrequencyMatrix::VerticalVector({0, 1});
  auto q = ChainQuery::Make({*r0, *r1});
  ASSERT_TRUE(q.ok());
  std::vector<Bucketization> bz;
  bz.push_back(*Bucketization::SingleBucket(2));
  bz.push_back(*Bucketization::SingleBucket(2));
  auto ev = EvaluateEstimate(*q, bz);
  ASSERT_TRUE(ev.ok());
  EXPECT_DOUBLE_EQ(ev->exact, 0.0);
  EXPECT_TRUE(std::isinf(ev->relative_error));
}

TEST(ResultSizeTest, RoundingModeChangesEstimate) {
  // Cells {1, 2} in one bucket: exact avg 1.5, rounded avg 2.
  auto r0 = FrequencyMatrix::HorizontalVector({1, 2});
  auto r1 = FrequencyMatrix::VerticalVector({1, 1});
  auto q = ChainQuery::Make({*r0, *r1});
  ASSERT_TRUE(q.ok());
  std::vector<Bucketization> bz;
  bz.push_back(*Bucketization::SingleBucket(2));
  bz.push_back(*Bucketization::SingleBucket(2));
  auto exact_mode = EstimateResultSize(*q, bz, BucketAverageMode::kExact);
  auto round_mode =
      EstimateResultSize(*q, bz, BucketAverageMode::kRoundToInteger);
  ASSERT_TRUE(exact_mode.ok());
  ASSERT_TRUE(round_mode.ok());
  EXPECT_DOUBLE_EQ(*exact_mode, 3.0);
  EXPECT_DOUBLE_EQ(*round_mode, 4.0);
}

TEST(ResultSizeTest, FromMatricesPassThrough) {
  std::vector<FrequencyMatrix> ms;
  ms.push_back(*FrequencyMatrix::HorizontalVector({2, 2}));
  ms.push_back(*FrequencyMatrix::VerticalVector({3, 3}));
  auto s = EstimateResultSizeFromMatrices(ms);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(*s, 12.0);
}

}  // namespace
}  // namespace hops
