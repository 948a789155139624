// StalenessAdvisor: ideal-frequency moments, the Proposition 3.1 self-join
// staleness error, and the scoring policy.

#include "refresh/staleness.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "histogram/serialization.h"

namespace hops {
namespace {

CatalogHistogram MakeHistogram(
    std::vector<std::pair<int64_t, double>> explicit_entries,
    double default_frequency, uint64_t num_default) {
  return *CatalogHistogram::Make(std::move(explicit_entries),
                                 default_frequency, num_default);
}

TEST(IdealMomentsTest, ClassifiesExplicitVersusDefault) {
  // Values 10 and 20 are explicit (singleton buckets); 1, 2, 3 default.
  CatalogHistogram histogram =
      MakeHistogram({{10, 50.0}, {20, 40.0}}, 5.0, 3);
  std::vector<std::pair<int64_t, double>> ideal = {
      {1, 4.0}, {2, 5.0}, {3, 6.0}, {10, 50.0}, {20, 40.0}};
  IdealColumnMoments moments = ComputeIdealMoments(histogram, ideal);
  EXPECT_DOUBLE_EQ(moments.default_count, 3.0);
  EXPECT_DOUBLE_EQ(moments.default_sum, 15.0);
  EXPECT_DOUBLE_EQ(moments.default_sum_sq, 16.0 + 25.0 + 36.0);
  EXPECT_DOUBLE_EQ(moments.total_sum_sq,
                   16.0 + 25.0 + 36.0 + 2500.0 + 1600.0);
}

TEST(IdealMomentsTest, EmptyIdealSetIsAllZero) {
  CatalogHistogram histogram = MakeHistogram({{1, 2.0}}, 0.0, 0);
  IdealColumnMoments moments = ComputeIdealMoments(histogram, {});
  EXPECT_DOUBLE_EQ(moments.default_count, 0.0);
  EXPECT_DOUBLE_EQ(moments.total_sum_sq, 0.0);
  EXPECT_DOUBLE_EQ(SelfJoinStalenessError(moments), 0.0);
}

TEST(SelfJoinStalenessErrorTest, MatchesPropositionThreeOne) {
  // Default bucket holds frequencies {4, 5, 6}: P = 3, mean = 5,
  // V = ((4-5)^2 + 0 + (6-5)^2) / 3 = 2/3, so P*V = 2.
  IdealColumnMoments moments;
  moments.default_count = 3;
  moments.default_sum = 15;
  moments.default_sum_sq = 77;
  moments.total_sum_sq = 77;
  EXPECT_DOUBLE_EQ(SelfJoinStalenessError(moments), 77.0 - 225.0 / 3.0);
}

TEST(SelfJoinStalenessErrorTest, UniformDefaultBucketIsExact) {
  // Equal frequencies in the default bucket: V = 0 → zero error. This is
  // the v-optimal invariant right after a rebuild.
  IdealColumnMoments moments;
  moments.default_count = 4;
  moments.default_sum = 20;      // four values of frequency 5
  moments.default_sum_sq = 100;  // 4 * 25
  moments.total_sum_sq = 100;
  EXPECT_DOUBLE_EQ(SelfJoinStalenessError(moments), 0.0);
}

TEST(SelfJoinStalenessErrorTest, ClampsFloatingPointCancellation) {
  IdealColumnMoments moments;
  moments.default_count = 3;
  moments.default_sum = 15;
  moments.default_sum_sq = 75.0 - 1e-9;  // just below sum^2 / count
  EXPECT_DOUBLE_EQ(SelfJoinStalenessError(moments), 0.0);
}

TEST(StalenessAdvisorTest, CleanColumnScoresZero) {
  StalenessAdvisor advisor;
  StalenessScore score = advisor.Score(StalenessSignals{});
  EXPECT_DOUBLE_EQ(score.total, 0.0);
  EXPECT_FALSE(score.rebuild_recommended);
  EXPECT_EQ(score.reason, RebuildReason::kNone);
}

TEST(StalenessAdvisorTest, TotalIsWeightedSumOfNormalizedSignals) {
  StalenessOptions options;
  options.weight_drift = 2.0;
  options.weight_self_join = 3.0;
  options.weight_feedback = 5.0;
  StalenessAdvisor advisor(options);
  StalenessSignals signals;
  signals.drift_fraction = 0.01;
  signals.self_join_relative = 0.02;
  signals.feedback_error = 0.03;
  StalenessScore score = advisor.Score(signals);
  EXPECT_NEAR(score.total, 2.0 * 0.01 + 3.0 * 0.02 + 5.0 * 0.03, 1e-12);
}

TEST(StalenessAdvisorTest, ThresholdGatesTheRecommendation) {
  StalenessOptions options;
  options.rebuild_score_threshold = 0.10;
  StalenessAdvisor advisor(options);

  StalenessSignals below;
  below.drift_fraction = 0.09;
  EXPECT_FALSE(advisor.Score(below).rebuild_recommended);

  StalenessSignals at;
  at.drift_fraction = 0.10;
  StalenessScore score = advisor.Score(at);
  EXPECT_TRUE(score.rebuild_recommended);
  EXPECT_EQ(score.reason, RebuildReason::kDrift);

  // A column unchanged since its build keeps its score but is never
  // recommended, not even by the maintainer's verdict: a rebuild would
  // reproduce the same histogram.
  StalenessSignals unchanged = at;
  unchanged.maintainer_wants_rebuild = true;
  unchanged.unchanged_since_build = true;
  const StalenessScore kept = advisor.Score(unchanged);
  EXPECT_EQ(kept.total, score.total);
  EXPECT_FALSE(kept.rebuild_recommended);
  EXPECT_EQ(kept.reason, RebuildReason::kNone);
}

TEST(StalenessAdvisorTest, MaintainerVerdictForcesRecommendation) {
  StalenessAdvisor advisor;
  StalenessSignals signals;
  signals.maintainer_wants_rebuild = true;  // legacy drift policy fires
  StalenessScore score = advisor.Score(signals);
  EXPECT_TRUE(score.rebuild_recommended);
  EXPECT_EQ(score.reason, RebuildReason::kDrift);
}

TEST(StalenessAdvisorTest, ReasonTracksTheDominantWeightedSignal) {
  StalenessAdvisor advisor;  // unit weights, threshold 0.10

  StalenessSignals self_join_heavy;
  self_join_heavy.drift_fraction = 0.05;
  self_join_heavy.self_join_relative = 0.20;
  EXPECT_EQ(advisor.Score(self_join_heavy).reason, RebuildReason::kSelfJoin);

  StalenessSignals feedback_heavy;
  feedback_heavy.drift_fraction = 0.05;
  feedback_heavy.feedback_error = 0.30;
  EXPECT_EQ(advisor.Score(feedback_heavy).reason, RebuildReason::kFeedback);

  StalenessSignals drift_heavy;
  drift_heavy.drift_fraction = 0.40;
  drift_heavy.self_join_relative = 0.01;
  EXPECT_EQ(advisor.Score(drift_heavy).reason, RebuildReason::kDrift);
}

TEST(StalenessAdvisorTest, WeightsCanDisableASignal) {
  StalenessOptions options;
  options.weight_feedback = 0.0;
  StalenessAdvisor advisor(options);
  StalenessSignals signals;
  signals.feedback_error = 100.0;  // huge, but weighted out
  StalenessScore score = advisor.Score(signals);
  EXPECT_DOUBLE_EQ(score.total, 0.0);
  EXPECT_FALSE(score.rebuild_recommended);
}

TEST(StalenessAdvisorTest, TuningRecencyRelievesTheScore) {
  StalenessAdvisor advisor;  // tuning_relief 0.5
  StalenessSignals signals;
  signals.drift_fraction = 0.20;

  const double untouched = advisor.Score(signals).total;
  EXPECT_DOUBLE_EQ(untouched, 0.20);

  // A column tuned this instant (recency 1) scores at half priority; a
  // half-decayed one at three quarters. Zero recency is exactly untouched.
  signals.tuning_recency = 1.0;
  EXPECT_DOUBLE_EQ(advisor.Score(signals).total, 0.10);
  signals.tuning_recency = 0.5;
  EXPECT_DOUBLE_EQ(advisor.Score(signals).total, 0.15);
  signals.tuning_recency = 0.0;
  EXPECT_DOUBLE_EQ(advisor.Score(signals).total, untouched);
}

TEST(StalenessAdvisorTest, TuningReliefIsBoundedAndOptional) {
  // Relief never drives a score negative, and weighting it to zero turns
  // the mechanism off entirely.
  StalenessOptions options;
  options.tuning_relief = 5.0;  // aggressive: clamped at full relief
  StalenessAdvisor aggressive(options);
  StalenessSignals signals;
  signals.drift_fraction = 0.20;
  signals.tuning_recency = 1.0;
  EXPECT_DOUBLE_EQ(aggressive.Score(signals).total, 0.0);

  options.tuning_relief = 0.0;
  StalenessAdvisor disabled(options);
  EXPECT_DOUBLE_EQ(disabled.Score(signals).total, 0.20);
}

TEST(RebuildReasonTest, StringNamesAreStable) {
  EXPECT_STREQ(RebuildReasonToString(RebuildReason::kNone), "none");
  EXPECT_STREQ(RebuildReasonToString(RebuildReason::kDrift), "drift");
  EXPECT_STREQ(RebuildReasonToString(RebuildReason::kSelfJoin), "self_join");
  EXPECT_STREQ(RebuildReasonToString(RebuildReason::kFeedback), "feedback");
  EXPECT_STREQ(RebuildReasonToString(RebuildReason::kForced), "forced");
}

}  // namespace
}  // namespace hops
