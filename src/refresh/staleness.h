// Staleness scoring for maintained histograms (DESIGN.md §8, the advisor
// half of the refresh subsystem).
//
// Incremental maintenance (histogram/maintenance.h) keeps per-value counts
// current but cannot move bucket boundaries: a value drifting from the
// default bucket into heavy-hitter territory stays mis-bucketed until a
// full rebuild. Proposition 3.1 quantifies exactly how much that costs: for
// a self-join served from bucket averages, the estimation error is
//
//     S - S' = sum_i P_i * V_i
//
// with P_i the number of attribute values in bucket i and V_i the
// population variance of their *true* frequencies. Under the compact
// catalog form every explicit entry is a singleton bucket (V = 0), so the
// whole error concentrates in the implicit default bucket — the score is
// the default bucket's count times the variance of the ideal frequencies
// that live there. Right after a v-optimal build it sits at a floor, the
// least error β buckets can reach on the column, which is not always small
// (a low-skew column with few buckets keeps unequal frequencies in its
// default bucket), and it grows when the bucketization goes stale. A
// rebuild of an unchanged column would reproduce the same histogram
// (construction is deterministic in the frequency set), so the advisor
// never recommends one (StalenessSignals::unchanged_since_build).
//
// The advisor combines three signals into one priority:
//   drift      — tuple churn since the last build (the existing
//                MaintenanceOptions policy, normalized);
//   self-join  — the Prop 3.1 error above, normalized by the ideal
//                self-join size so columns of different scale compare;
//   feedback   — an EWMA of observed relative estimation error reported by
//                EstimateBatch callers (estimator/serving.h's
//                EstimationFeedbackSink), the query-feedback loop of
//                self-tuning histograms.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace hops {

class CatalogHistogram;

/// \brief Moments of the ideal (true) frequencies, classified against a
/// maintained histogram's bucketization. `default_*` cover the values with
/// a positive ideal count that fall into the implicit default bucket (a
/// value whose count is zero is not in the column); `total_sum_sq` is the
/// exact self-join size of the whole ideal set (Theorem 2.1, S = sum f^2).
/// Maintainable incrementally under ±1 deltas (all quantities are sums of
/// integer-valued terms, exact in double below 2^53).
struct IdealColumnMoments {
  double default_count = 0;    ///< P_d: ideal values in the default bucket
  double default_sum = 0;      ///< sum of their ideal frequencies
  double default_sum_sq = 0;   ///< sum of their squared ideal frequencies
  double total_sum_sq = 0;     ///< S: exact self-join size of the ideal set
};

/// \brief Computes the moments from scratch: every (value, ideal frequency)
/// pair is classified explicit-vs-default against \p maintained, so \p ideal
/// must hold positive counts only. Used at registration, after every
/// rebuild and on restore; deltas update the result incrementally in
/// O(log n) per record.
IdealColumnMoments ComputeIdealMoments(
    const CatalogHistogram& maintained,
    std::span<const std::pair<int64_t, double>> ideal);

/// \brief Proposition 3.1 self-join error sum_i P_i V_i of the maintained
/// bucketization against the ideal frequencies: default_sum_sq -
/// default_sum^2 / default_count (singleton buckets contribute zero).
/// Clamped at 0 against floating-point cancellation.
double SelfJoinStalenessError(const IdealColumnMoments& moments);

/// \brief Advisor knobs. Weights are unitless multipliers over normalized
/// signals; a column whose weighted total reaches rebuild_score_threshold
/// is rebuild-worthy.
struct StalenessOptions {
  double weight_drift = 1.0;
  double weight_self_join = 1.0;
  double weight_feedback = 1.0;
  /// Total score at or above this recommends a rebuild.
  double rebuild_score_threshold = 0.10;
  /// How much a recently self-tuned column's score is relieved: the total
  /// is multiplied by (1 - tuning_relief * tuning_recency). A fresh tuning
  /// pass already folded the observed error back into the histogram, so
  /// spending a full rebuild on the same signal right away is wasteful; as
  /// the recency decays (refresh/self_tuner.h) the relief fades and a
  /// genuinely stale column still rebuilds. 0 disables relief entirely.
  double tuning_relief = 0.5;
};

/// \brief The three normalized staleness signals for one column.
struct StalenessSignals {
  /// Tuple churn since the last build / tuples at build ([0, inf)).
  double drift_fraction = 0;
  /// Absolute Prop 3.1 error sum_i P_i V_i.
  double self_join_error = 0;
  /// self_join_error / max(ideal self-join size, 1) — scale-free.
  double self_join_relative = 0;
  /// EWMA of observed |estimate - actual| / max(actual, 1) from feedback.
  double feedback_error = 0;
  /// How recently the self-tuner adjusted this column in place: 1 right
  /// after a tuning pass, decaying toward (exactly) 0 per tick. Scores
  /// recently-tuned columns lower — their feedback signal was just folded
  /// back into the histogram.
  double tuning_recency = 0;
  /// The maintainer's own drift policy verdict (HistogramMaintainer::
  /// NeedsRebuild) — an OR-in, so the legacy policy still fires.
  bool maintainer_wants_rebuild = false;
  /// Nothing changed the column since its histogram was built from its
  /// ideal frequencies: no delta was applied and no tuning pass moved it.
  /// A rebuild would then produce the same histogram, so while this is set
  /// the advisor never recommends one; the score still reports the error
  /// that remains (tuning, not rebuilding, is what can lower it).
  bool unchanged_since_build = false;
};

/// \brief Which signal dominated a rebuild decision (for RefreshStats).
enum class RebuildReason {
  kNone = 0,
  kDrift,     ///< churn / the maintainer's legacy policy
  kSelfJoin,  ///< Prop 3.1 bucketization error
  kFeedback,  ///< observed estimation error
  kForced,    ///< explicit ForceRebuild call
};

const char* RebuildReasonToString(RebuildReason reason);

/// \brief A scored column.
struct StalenessScore {
  double total = 0;  ///< weighted sum of the normalized signals
  StalenessSignals signals;
  bool rebuild_recommended = false;
  /// Dominant weighted component when rebuild_recommended (kNone otherwise).
  RebuildReason reason = RebuildReason::kNone;
};

/// \brief Joint (cross-shard) rebuild budgeting — the DESIGN.md §10 half of
/// the staleness policy. Splits \p total_budget rebuild slots across shards
/// in proportion to \p shard_heat (how stale/hot each shard's relations are
/// under the joint staleness signal), capped by \p shard_demand (how many
/// rebuild-recommended columns the shard actually has). Guarantees:
///   - result[i] <= shard_demand[i] and sum(result) <= total_budget;
///   - when sum(demand) <= total_budget every shard gets its full demand
///     (budgeting only bites under pressure);
///   - under pressure, slots go by largest-remainder apportionment of
///     heat-proportional shares (floors first, leftovers by fractional
///     remainder, ties to the lower shard index — deterministic);
///   - a shard with zero heat but positive demand can still win leftover
///     slots only after every positive-heat shard's share is satisfied;
///     when ALL heat is zero the split falls back to demand-proportional,
///     so FIFO starvation cannot happen.
/// Pure function: both spans must have equal length.
std::vector<size_t> AllocateRebuildBudget(std::span<const double> shard_heat,
                                          std::span<const size_t> shard_demand,
                                          size_t total_budget);

/// \brief Stateless policy object turning signals into a score + verdict.
class StalenessAdvisor {
 public:
  explicit StalenessAdvisor(StalenessOptions options = {})
      : options_(options) {}

  StalenessScore Score(const StalenessSignals& signals) const;

  const StalenessOptions& options() const { return options_; }

 private:
  StalenessOptions options_;
};

}  // namespace hops
