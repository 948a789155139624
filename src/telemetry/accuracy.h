// Estimator accuracy tracking (DESIGN.md §9): per-column q-error
// distributions fed by the serving layer's EstimationFeedbackSink, making
// estimation *quality* a first-class runtime signal next to the Prop 3.1
// staleness score.
//
// The q-error of an estimate e for an actual result size a is the
// symmetric multiplicative error
//
//   q(e, a) = max(e', a') / min(e', a'),   e' = max(e, 1), a' = max(a, 1)
//
// (the standard metric of the cardinality-estimation literature; clamping
// at one tuple keeps empty results from producing infinities and means
// "off by less than one tuple" counts as exact). q >= 1 always; q = 1 is a
// perfect estimate; the paper's Σ P_i·V_i error bounds *expected* absolute
// error while q-error captures the worst-case multiplicative error that
// join plans amplify (docs/ALGORITHMS.md "Q-error").
//
// The tracker is an EstimationFeedbackSink, so it drops into the exact
// place RefreshManager does (estimator/serving.h's ReportEstimateOutcome);
// the optional `next` sink is forwarded every report, letting one report
// both *measure* accuracy here and *drive* the adaptive refresh loop —
// examples/feedback_loop.cpp chains AccuracyTracker -> RefreshManager.
//
// Per (table, column) the tracker maintains, as registry metric families
// (labels {table=...,column=...}):
//
//   hops_estimate_feedback_total       (counter)   reports received
//   hops_estimate_underestimate_total  (counter)   e' < a'
//   hops_estimate_overestimate_total   (counter)   e' > a'
//   hops_estimate_qerror               (histogram) q-error, log buckets >= 1
//
// Reporting is thread-safe and lock-free after the first report for a
// column (one shared-mutex read lock + relaxed atomics).

#pragma once

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "estimator/serving.h"
#include "telemetry/metrics.h"

namespace hops::telemetry {

/// \brief The q-error of estimate \p estimated against \p actual, both
/// clamped to >= 1 tuple. Always >= 1; non-finite inputs return 1 (ignored
/// upstream).
double QError(double estimated, double actual);

/// \brief Point-in-time accuracy summary for one column.
struct ColumnAccuracy {
  std::string table;
  std::string column;
  uint64_t reports = 0;
  uint64_t underestimates = 0;  ///< clamped estimate below clamped actual
  uint64_t overestimates = 0;   ///< clamped estimate above clamped actual
  double max_qerror = 0;        ///< largest observed q-error (0 if none)
  double mean_qerror = 0;
  double p50_qerror = 0;        ///< bucket-boundary quantiles (see
  double p95_qerror = 0;        ///<  HistogramSnapshot::Quantile)
  double p99_qerror = 0;
};

/// \brief EstimationFeedbackSink that turns (estimated, actual) outcomes
/// into per-column q-error distributions. Thread-safe.
class AccuracyTracker : public EstimationFeedbackSink {
 public:
  /// \p registry receives the metric families (nullptr = the process-wide
  /// registry); \p next, when non-null, is forwarded every report *after*
  /// recording (chain the refresh subsystem behind the tracker). Both must
  /// outlive the tracker.
  explicit AccuracyTracker(MetricRegistry* registry = nullptr,
                           EstimationFeedbackSink* next = nullptr);

  ~AccuracyTracker() override = default;

  AccuracyTracker(const AccuracyTracker&) = delete;
  AccuracyTracker& operator=(const AccuracyTracker&) = delete;

  /// Records the outcome's q-error metrics, then forwards the report to
  /// `next` intact — so a self-tuning RefreshManager chained behind the
  /// tracker still sees the probed value interval.
  void ReportPredicateOutcome(std::string_view table, std::string_view column,
                              const PredicateOutcome& outcome) override;

  /// Summary for one tracked column; NotFound before its first report.
  Result<ColumnAccuracy> ColumnReport(std::string_view table,
                                      std::string_view column) const;

  /// Every tracked column, sorted by (table, column).
  std::vector<ColumnAccuracy> Report() const;

  /// Columns with at least one report.
  size_t num_columns() const;

 private:
  struct PerColumn {
    Counter* reports = nullptr;
    Counter* underestimates = nullptr;
    Counter* overestimates = nullptr;
    LatencyHistogram* qerror = nullptr;
  };

  const PerColumn* FindOrCreate(std::string_view table,
                                std::string_view column);
  ColumnAccuracy Summarize(const std::string& table, const std::string& column,
                           const PerColumn& state) const;

  MetricRegistry* const registry_;
  EstimationFeedbackSink* const next_;

  mutable std::shared_mutex mutex_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<PerColumn>>
      columns_;
};

}  // namespace hops::telemetry
