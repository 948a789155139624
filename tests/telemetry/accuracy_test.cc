// AccuracyTracker: q-error math, per-column distributions, and sink
// chaining (DESIGN.md §9).

#include "telemetry/accuracy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "telemetry/metrics.h"

namespace hops::telemetry {
namespace {

TEST(QErrorTest, SymmetricMultiplicativeError) {
  EXPECT_DOUBLE_EQ(QError(10.0, 10.0), 1.0);   // perfect
  EXPECT_DOUBLE_EQ(QError(10.0, 100.0), 10.0);  // 10x under
  EXPECT_DOUBLE_EQ(QError(100.0, 10.0), 10.0);  // 10x over: symmetric
  EXPECT_DOUBLE_EQ(QError(2.0, 3.0), 1.5);
}

TEST(QErrorTest, ClampsAtOneTuple) {
  // Sub-tuple magnitudes count as exact: max(e,1)/max(a,1).
  EXPECT_DOUBLE_EQ(QError(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.2, 0.9), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.0, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(QError(50.0, 0.0), 50.0);
  EXPECT_DOUBLE_EQ(QError(-3.0, 4.0), 4.0);  // negatives clamp to 1 too
}

TEST(QErrorTest, NonFiniteInputsReturnOne) {
  EXPECT_DOUBLE_EQ(QError(std::nan(""), 10.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(10.0, std::numeric_limits<double>::infinity()), 1.0);
}

TEST(QErrorTest, AlwaysAtLeastOne) {
  for (double e : {0.0, 0.5, 1.0, 3.0, 1e6}) {
    for (double a : {0.0, 0.5, 1.0, 3.0, 1e6}) {
      EXPECT_GE(QError(e, a), 1.0) << "e=" << e << " a=" << a;
    }
  }
}

// An outcome that pins down no value interval: only the error magnitude.
PredicateOutcome Outcome(double estimated, double actual) {
  PredicateOutcome outcome;
  outcome.estimated = estimated;
  outcome.actual = actual;
  return outcome;
}

TEST(AccuracyTrackerTest, TracksUnderAndOverEstimates) {
  MetricRegistry registry;
  AccuracyTracker tracker(&registry);
  tracker.ReportPredicateOutcome("t0", "a",
                                 Outcome(/*estimated=*/10, /*actual=*/100));
  tracker.ReportPredicateOutcome("t0", "a",
                                 Outcome(/*estimated=*/100, /*actual=*/10));
  tracker.ReportPredicateOutcome("t0", "a",
                                 Outcome(/*estimated=*/40, /*actual=*/40));
  EXPECT_EQ(tracker.num_columns(), 1u);

  const Result<ColumnAccuracy> report = tracker.ColumnReport("t0", "a");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->table, "t0");
  EXPECT_EQ(report->column, "a");
  EXPECT_EQ(report->reports, 3u);
  EXPECT_EQ(report->underestimates, 1u);
  EXPECT_EQ(report->overestimates, 1u);
  EXPECT_DOUBLE_EQ(report->max_qerror, 10.0);
  // Mean of {10, 10, 1}.
  EXPECT_DOUBLE_EQ(report->mean_qerror, 7.0);
  // p50 rank 2 of sorted {1, 10, 10}: true value 10, bucket boundary 16,
  // clamped to the observed max 10.
  EXPECT_DOUBLE_EQ(report->p50_qerror, 10.0);
  EXPECT_DOUBLE_EQ(report->p99_qerror, 10.0);
}

TEST(AccuracyTrackerTest, ColumnsAreIndependentAndSorted) {
  MetricRegistry registry;
  AccuracyTracker tracker(&registry);
  tracker.ReportPredicateOutcome("t1", "b", Outcome(1, 1));
  tracker.ReportPredicateOutcome("t0", "a", Outcome(5, 10));
  tracker.ReportPredicateOutcome("t0", "a", Outcome(5, 10));
  const std::vector<ColumnAccuracy> all = tracker.Report();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].table, "t0");
  EXPECT_EQ(all[0].column, "a");
  EXPECT_EQ(all[0].reports, 2u);
  EXPECT_EQ(all[0].underestimates, 2u);
  EXPECT_EQ(all[1].table, "t1");
  EXPECT_EQ(all[1].reports, 1u);
  EXPECT_EQ(all[1].underestimates, 0u);
  EXPECT_EQ(all[1].overestimates, 0u);
}

TEST(AccuracyTrackerTest, UnknownColumnIsNotFound) {
  MetricRegistry registry;
  AccuracyTracker tracker(&registry);
  const Result<ColumnAccuracy> report = tracker.ColumnReport("t9", "z");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST(AccuracyTrackerTest, RegistersLabeledFamilies) {
  MetricRegistry registry;
  AccuracyTracker tracker(&registry);
  tracker.ReportPredicateOutcome("orders", "price", Outcome(8, 64));
  const MetricsSnapshot snap = registry.Collect();
  const LabelSet labels = {{"table", "orders"}, {"column", "price"}};
  const MetricSnapshot* reports =
      snap.Find("hops_estimate_feedback_total", labels);
  ASSERT_NE(reports, nullptr);
  EXPECT_DOUBLE_EQ(reports->value, 1.0);
  const MetricSnapshot* qerror = snap.Find("hops_estimate_qerror", labels);
  ASSERT_NE(qerror, nullptr);
  EXPECT_EQ(qerror->histogram.count, 1u);
  EXPECT_DOUBLE_EQ(qerror->histogram.max, 8.0);
}

// A recording sink that remembers every report, to prove chaining.
class RecordingSink : public EstimationFeedbackSink {
 public:
  void ReportPredicateOutcome(std::string_view table, std::string_view column,
                              const PredicateOutcome& outcome) override {
    reports.push_back({std::string(table), std::string(column), outcome});
  }
  struct Report {
    std::string table, column;
    PredicateOutcome outcome;
  };
  std::vector<Report> reports;
};

TEST(AccuracyTrackerTest, ForwardsEveryReportToTheNextSink) {
  MetricRegistry registry;
  RecordingSink next;
  AccuracyTracker tracker(&registry, &next);
  PredicateOutcome ranged = Outcome(10, 20);
  ranged.kind = EstimateKind::kRange;
  ranged.has_range = true;
  ranged.lo = 3;
  ranged.hi = 9;
  tracker.ReportPredicateOutcome("t0", "a", ranged);
  // Non-finite reports are not *recorded* but still forwarded (the next
  // sink decides its own policy).
  tracker.ReportPredicateOutcome("t0", "a", Outcome(std::nan(""), 20));
  ASSERT_EQ(next.reports.size(), 2u);
  EXPECT_EQ(next.reports[0].table, "t0");
  EXPECT_DOUBLE_EQ(next.reports[0].outcome.estimated, 10.0);
  EXPECT_DOUBLE_EQ(next.reports[0].outcome.actual, 20.0);
  // The probed interval reaches the next sink intact.
  EXPECT_EQ(next.reports[0].outcome.kind, EstimateKind::kRange);
  EXPECT_TRUE(next.reports[0].outcome.has_range);
  EXPECT_EQ(next.reports[0].outcome.lo, 3);
  EXPECT_EQ(next.reports[0].outcome.hi, 9);
  EXPECT_FALSE(next.reports[1].outcome.has_range);
  const Result<ColumnAccuracy> report = tracker.ColumnReport("t0", "a");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->reports, 1u);  // the NaN report was skipped here
}

}  // namespace
}  // namespace hops::telemetry
