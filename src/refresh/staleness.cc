#include "refresh/staleness.h"

#include <algorithm>

#include "histogram/serialization.h"

namespace hops {

IdealColumnMoments ComputeIdealMoments(
    const CatalogHistogram& maintained,
    std::span<const std::pair<int64_t, double>> ideal) {
  IdealColumnMoments m;
  for (const auto& [value, freq] : ideal) {
    m.total_sum_sq += freq * freq;
    bool is_explicit = false;
    maintained.LookupFrequency(value, &is_explicit);
    if (!is_explicit) {
      m.default_count += 1.0;
      m.default_sum += freq;
      m.default_sum_sq += freq * freq;
    }
  }
  return m;
}

double SelfJoinStalenessError(const IdealColumnMoments& moments) {
  if (moments.default_count <= 0) return 0.0;
  const double error =
      moments.default_sum_sq -
      moments.default_sum * moments.default_sum / moments.default_count;
  // sum_i P_i V_i is >= 0 analytically; clamp residual cancellation noise.
  return std::max(0.0, error);
}

const char* RebuildReasonToString(RebuildReason reason) {
  switch (reason) {
    case RebuildReason::kNone:
      return "none";
    case RebuildReason::kDrift:
      return "drift";
    case RebuildReason::kSelfJoin:
      return "self_join";
    case RebuildReason::kFeedback:
      return "feedback";
    case RebuildReason::kForced:
      return "forced";
  }
  return "unknown";
}

StalenessScore StalenessAdvisor::Score(const StalenessSignals& signals) const {
  StalenessScore score;
  score.signals = signals;
  const double drift = options_.weight_drift * signals.drift_fraction;
  const double self_join =
      options_.weight_self_join * signals.self_join_relative;
  const double feedback = options_.weight_feedback * signals.feedback_error;
  score.total = drift + self_join + feedback;
  // Recently self-tuned columns already folded their feedback back into the
  // histogram in place; relieve the score so the rebuild budget goes to
  // columns the tuner cannot help. Recency 0 (the untuned steady state)
  // multiplies by exactly 1.0 — scores are bit-identical with tuning off.
  if (signals.tuning_recency > 0 && options_.tuning_relief > 0) {
    const double relief = std::clamp(
        1.0 - options_.tuning_relief * signals.tuning_recency, 0.0, 1.0);
    score.total *= relief;
  }
  // An unchanged column would rebuild into the same histogram: whatever its
  // score, a rebuild cannot lower it.
  score.rebuild_recommended =
      !signals.unchanged_since_build &&
      (signals.maintainer_wants_rebuild ||
       score.total >= options_.rebuild_score_threshold);
  if (score.rebuild_recommended) {
    // Attribute to the dominant weighted component; the maintainer's own
    // policy is a drift signal.
    if (self_join >= drift && self_join >= feedback && self_join > 0) {
      score.reason = RebuildReason::kSelfJoin;
    } else if (feedback >= drift && feedback > 0) {
      score.reason = RebuildReason::kFeedback;
    } else {
      score.reason = RebuildReason::kDrift;
    }
  }
  return score;
}

}  // namespace hops
