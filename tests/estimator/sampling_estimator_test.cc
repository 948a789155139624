#include "estimator/sampling_estimator.h"

#include <gtest/gtest.h>

#include "engine/hash_join.h"
#include "util/random.h"

namespace hops {
namespace {

Relation IntRelation(const std::string& name, std::vector<int64_t> values) {
  auto schema = Schema::Make({{"a", ValueType::kInt64}});
  auto rel = Relation::Make(name, *std::move(schema));
  EXPECT_TRUE(rel.ok());
  for (int64_t v : values) {
    rel->AppendUnchecked({Value(v)});
  }
  return *std::move(rel);
}

TEST(SamplingEstimatorTest, FullSampleIsExact) {
  Relation r = IntRelation("R", {1, 1, 2, 3});
  Relation s = IntRelation("S", {1, 2, 2, 4});
  SamplingJoinOptions options;
  options.left_sample = 100;  // clamped to full relations
  options.right_sample = 100;
  auto est = EstimateJoinSizeBySampling(r, "a", s, "a", options);
  ASSERT_TRUE(est.ok());
  auto truth = HashJoinCount(r, "a", s, "a");
  ASSERT_TRUE(truth.ok());
  EXPECT_DOUBLE_EQ(est->estimate, *truth);
  EXPECT_EQ(est->left_sampled, 4u);
  EXPECT_EQ(est->right_sampled, 4u);
}

TEST(SamplingEstimatorTest, AccurateWithinNoiseOnLargeJoin) {
  Rng rng(515);
  std::vector<int64_t> lv, rv;
  for (int i = 0; i < 5000; ++i) {
    lv.push_back(static_cast<int64_t>(
        std::min(rng.NextBounded(50), rng.NextBounded(50))));
    rv.push_back(static_cast<int64_t>(rng.NextBounded(50)));
  }
  Relation r = IntRelation("R", lv);
  Relation s = IntRelation("S", rv);
  auto truth = HashJoinCount(r, "a", s, "a");
  ASSERT_TRUE(truth.ok());
  // Average several seeds: the estimator is unbiased, so the mean should
  // land close to truth.
  double sum = 0;
  const int reps = 10;
  for (int rep = 0; rep < reps; ++rep) {
    SamplingJoinOptions options;
    options.left_sample = 500;
    options.right_sample = 500;
    options.seed = 1000 + rep;
    auto est = EstimateJoinSizeBySampling(r, "a", s, "a", options);
    ASSERT_TRUE(est.ok());
    sum += est->estimate;
  }
  EXPECT_NEAR(sum / reps, *truth, 0.15 * *truth);
}

TEST(SamplingEstimatorTest, EmptyRelationsEstimateZero) {
  auto schema = Schema::Make({{"a", ValueType::kInt64}});
  auto empty = Relation::Make("E", *schema);
  ASSERT_TRUE(empty.ok());
  Relation s = IntRelation("S", {1});
  auto est = EstimateJoinSizeBySampling(*empty, "a", s, "a");
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->estimate, 0.0);
}

TEST(SamplingEstimatorTest, Validation) {
  Relation r = IntRelation("R", {1});
  Relation s = IntRelation("S", {1});
  SamplingJoinOptions options;
  options.left_sample = 0;
  EXPECT_TRUE(EstimateJoinSizeBySampling(r, "a", s, "a", options)
                  .status()
                  .IsInvalidArgument());
  EXPECT_FALSE(EstimateJoinSizeBySampling(r, "zzz", s, "a").ok());
}

TEST(SamplingEstimatorTest, DeterministicForSeed) {
  Relation r = IntRelation("R", {1, 2, 3, 4, 5, 6, 7, 8});
  Relation s = IntRelation("S", {2, 4, 6, 8, 10, 12, 14, 16});
  SamplingJoinOptions options;
  options.left_sample = 4;
  options.right_sample = 4;
  options.seed = 5;
  auto a = EstimateJoinSizeBySampling(r, "a", s, "a", options);
  auto b = EstimateJoinSizeBySampling(r, "a", s, "a", options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->estimate, b->estimate);
}

}  // namespace
}  // namespace hops
