// RefreshManager: registration, delta application through the maintenance
// hooks, Prop 3.1 staleness scoring against the tracked ideal frequencies,
// rebuild policy, feedback loop, and RCU republication.

#include "refresh/refresh_manager.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "estimator/serving.h"
#include "refresh/durability.h"
#include "stats/zipf.h"
#include "telemetry/metrics.h"

namespace hops {
namespace {

// A small skewed column: two heavy hitters plus a flat tail. The v-optimal
// end-biased build stores the heavy values explicitly and pools the tail in
// the default bucket.
struct Fixture {
  Catalog catalog;
  SnapshotStore store;
};

std::vector<int64_t> TailValues(int64_t first, size_t count) {
  std::vector<int64_t> values;
  values.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    values.push_back(first + static_cast<int64_t>(i));
  }
  return values;
}

Result<RefreshColumnId> RegisterSkewed(RefreshManager* manager,
                                       const std::string& table,
                                       const std::string& column) {
  // Values 1..20: value 1 → 400, value 2 → 200, values 3..20 → 10 each.
  std::vector<int64_t> values = TailValues(1, 20);
  std::vector<double> freqs(20, 10.0);
  freqs[0] = 400.0;
  freqs[1] = 200.0;
  return manager->RegisterColumn(table, column, values, freqs);
}

// Options and column for which a fresh build already scores at or above
// the rebuild threshold: a Zipf(0.5) column over 1000 values built with
// β = 16 leaves unequal frequencies in the default bucket, so its Prop 3.1
// error right after a build stays above 0.10. A rebuild reproduces the
// same histogram, so it must never be scheduled while the column is
// unchanged.
RefreshOptions FloorOptions() {
  RefreshOptions options;
  options.statistics.num_buckets = 16;
  return options;
}

Result<RefreshColumnId> RegisterFloorColumn(RefreshManager* manager,
                                            const std::string& table,
                                            const std::string& column) {
  ZipfParams params;
  params.total = 100000.0;
  params.num_values = 1000;
  params.skew = 0.5;
  HOPS_ASSIGN_OR_RETURN(std::vector<double> freqs,
                        ZipfFrequenciesInteger(params));
  return manager->RegisterColumn(table, column,
                                 TailValues(1, params.num_values), freqs);
}

TEST(RefreshManagerTest, RegisterColumnStoresAndPublishes) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(manager.num_columns(), 1u);

  // Catalog holds the built statistics.
  auto stats = f.catalog.GetColumnStatistics("orders", "customer_id");
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->num_tuples, 400.0 + 200.0 + 18 * 10.0);
  EXPECT_EQ(stats->num_distinct, 20u);
  EXPECT_EQ(stats->min_value, 1);
  EXPECT_EQ(stats->max_value, 20);

  // The snapshot was republished and resolves the column.
  auto snapshot = f.store.Current();
  EXPECT_EQ(snapshot->source_version(), f.catalog.version());
  EXPECT_TRUE(snapshot->Contains("orders", "customer_id"));

  // Lookup round-trips the id.
  auto looked_up = manager.Lookup("orders", "customer_id");
  ASSERT_TRUE(looked_up.ok());
  EXPECT_EQ(*looked_up, *id);
  EXPECT_TRUE(manager.Lookup("orders", "missing").status().IsNotFound());
}

TEST(RefreshManagerTest, RegisterColumnValidatesInput) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);

  std::vector<int64_t> values = {1, 2};
  std::vector<double> short_freqs = {1.0};
  EXPECT_TRUE(manager.RegisterColumn("t", "a", values, short_freqs)
                  .status()
                  .IsInvalidArgument());

  std::vector<int64_t> dup_values = {1, 1};
  std::vector<double> freqs = {1.0, 2.0};
  EXPECT_TRUE(manager.RegisterColumn("t", "b", dup_values, freqs)
                  .status()
                  .IsInvalidArgument());

  std::vector<double> negative = {1.0, -2.0};
  EXPECT_TRUE(manager.RegisterColumn("t", "c", values, negative)
                  .status()
                  .IsInvalidArgument());

  EXPECT_TRUE(manager.RegisterColumn("t", "d", {}, {})
                  .status()
                  .IsInvalidArgument());

  ASSERT_TRUE(RegisterSkewed(&manager, "t", "e").ok());
  EXPECT_TRUE(
      RegisterSkewed(&manager, "t", "e").status().IsAlreadyExists());
}

TEST(RefreshManagerTest, AppliedDeltasReachCatalogAndSnapshot) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());
  const double tuples_before =
      f.catalog.GetColumnStatistics("orders", "customer_id")->num_tuples;
  const uint64_t version_before = f.store.Current()->source_version();

  // Three inserts of explicit value 1 and one delete of tail value 3.
  ASSERT_TRUE(manager.RecordInsert(*id, 1).ok());
  ASSERT_TRUE(manager.RecordInsert(*id, 1).ok());
  ASSERT_TRUE(manager.RecordInsert(*id, 1).ok());
  ASSERT_TRUE(manager.RecordDelete(*id, 3).ok());
  EXPECT_EQ(manager.update_log().depth(), 4u);

  auto applied = manager.ApplyPendingDeltas();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 4u);
  EXPECT_EQ(manager.update_log().depth(), 0u);

  auto stats = f.catalog.GetColumnStatistics("orders", "customer_id");
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->num_tuples, tuples_before + 3.0 - 1.0);
  // Explicit value 1 now counts 403 in the maintained histogram.
  EXPECT_DOUBLE_EQ(stats->histogram.LookupFrequency(1), 403.0);

  // A fresh snapshot was published over the mutated catalog.
  auto snapshot = f.store.Current();
  EXPECT_GT(snapshot->source_version(), version_before);
  auto column = snapshot->Resolve("orders", "customer_id");
  ASSERT_TRUE(column.ok());
  EXPECT_DOUBLE_EQ(snapshot->stats(*column).num_tuples,
                   tuples_before + 2.0);
}

TEST(RefreshManagerTest, WeightedRecordsFoldMultipleUnits) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());
  std::vector<UpdateRecord> batch = {UpdateRecord{*id, 2, +5.0},
                                     UpdateRecord{*id, 1, -2.0}};
  ASSERT_TRUE(manager.RecordBatch(batch).ok());
  ASSERT_TRUE(manager.ApplyPendingDeltas().ok());
  auto stats = f.catalog.GetColumnStatistics("orders", "customer_id");
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->histogram.LookupFrequency(2), 205.0);
  EXPECT_DOUBLE_EQ(stats->histogram.LookupFrequency(1), 398.0);
  EXPECT_EQ(manager.stats().deltas_applied, 7u);
}

TEST(RefreshManagerTest, UnknownColumnRecordsAreCountedAndDropped) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  ASSERT_TRUE(RegisterSkewed(&manager, "orders", "customer_id").ok());
  ASSERT_TRUE(manager.RecordInsert(999, 1).ok());  // ids validated at apply
  auto applied = manager.ApplyPendingDeltas();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 0u);
  EXPECT_EQ(manager.stats().unknown_column_records, 1u);
}

TEST(RefreshManagerTest, FreshColumnScoresNearZero) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());
  auto score = manager.ScoreColumn(*id);
  ASSERT_TRUE(score.ok());
  EXPECT_DOUBLE_EQ(score->signals.drift_fraction, 0.0);
  EXPECT_DOUBLE_EQ(score->signals.feedback_error, 0.0);
  EXPECT_FALSE(score->rebuild_recommended);
  EXPECT_TRUE(manager.ScoreColumn(999).status().IsInvalidArgument());
}

// The headline adaptivity property: let a Zipf column drift (a formerly
// cold tail value becomes a heavy hitter), watch the Prop 3.1 self-join
// staleness error grow, let the advisor trigger a rebuild, and verify the
// rebuilt bucketization strictly shrinks sum_i P_i V_i.
TEST(RefreshManagerTest, DriftingZipfRebuildShrinksSelfJoinError) {
  Fixture f;
  RefreshOptions options;
  options.statistics.num_buckets = 6;
  RefreshManager manager(&f.catalog, &f.store, options);

  // A Zipf(z=1) column over 50 values, integer frequencies.
  ZipfParams params;
  params.total = 5000.0;
  params.num_values = 50;
  params.skew = 1.0;
  auto zipf = ZipfFrequenciesInteger(params);
  ASSERT_TRUE(zipf.ok());
  std::vector<int64_t> values = TailValues(1, params.num_values);
  auto id = manager.RegisterColumn("fact", "key", values, *zipf);
  ASSERT_TRUE(id.ok());

  auto fresh = manager.ScoreColumn(*id);
  ASSERT_TRUE(fresh.ok());
  const double fresh_error = fresh->signals.self_join_error;

  // Drift: tail value 45 (deep in the default bucket) becomes the hottest
  // value in the relation.
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*id, 45).ok());
  }
  ASSERT_TRUE(manager.ApplyPendingDeltas().ok());

  auto stale = manager.ScoreColumn(*id);
  ASSERT_TRUE(stale.ok());
  // The mis-bucketed heavy hitter inflates the default bucket's P * V.
  EXPECT_GT(stale->signals.self_join_error, fresh_error);
  EXPECT_GT(stale->signals.self_join_error, 1000.0);
  EXPECT_TRUE(stale->rebuild_recommended);

  auto rebuilt_count = manager.RebuildIfStale();
  ASSERT_TRUE(rebuilt_count.ok());
  EXPECT_EQ(*rebuilt_count, 1u);

  auto rebuilt = manager.ScoreColumn(*id);
  ASSERT_TRUE(rebuilt.ok());
  // Post-rebuild sum_i P_i V_i strictly decreases: the new bucketization
  // reflects the drifted frequencies.
  EXPECT_LT(rebuilt->signals.self_join_error,
            stale->signals.self_join_error);
  EXPECT_DOUBLE_EQ(rebuilt->signals.drift_fraction, 0.0);

  // The rebuilt histogram serves the new heavy hitter near-exactly.
  auto stats = f.catalog.GetColumnStatistics("fact", "key");
  ASSERT_TRUE(stats.ok());
  bool is_explicit = false;
  const double served = stats->histogram.LookupFrequency(45, &is_explicit);
  EXPECT_TRUE(is_explicit);
  EXPECT_NEAR(served, 1500.0 + (*zipf)[44], 1e-9);

  RefreshStats refresh_stats = manager.stats();
  EXPECT_EQ(refresh_stats.rebuilds_total, 1u);
  EXPECT_GE(refresh_stats.rebuilds_drift + refresh_stats.rebuilds_self_join,
            1u);
}

TEST(RefreshManagerTest, FeedbackDrivesRebuildReason) {
  Fixture f;
  RefreshOptions options;
  // Isolate the feedback signal.
  options.staleness.weight_drift = 0.0;
  options.staleness.weight_self_join = 0.0;
  options.maintenance.rebuild_drift_fraction = 1e9;
  RefreshManager manager(&f.catalog, &f.store, options);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());
  // Feedback alone cannot make a rebuild worthwhile on a column nothing
  // changed since its build; one delta (its drift weighted out) can.
  ASSERT_TRUE(manager.RecordInsert(*id, 1).ok());
  ASSERT_TRUE(manager.ApplyPendingDeltas().ok());

  EstimationFeedbackSink* sink = &manager;
  sink->ReportEstimationError("orders", "customer_id", 100.0, 1000.0);
  sink->ReportEstimationError("orders", "unknown", 1.0, 2.0);  // ignored

  auto score = manager.ScoreColumn(*id);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(score->signals.feedback_error, 0.5);
  EXPECT_TRUE(score->rebuild_recommended);
  EXPECT_EQ(score->reason, RebuildReason::kFeedback);

  auto rebuilt = manager.RebuildIfStale();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, 1u);
  RefreshStats stats = manager.stats();
  EXPECT_EQ(stats.rebuilds_feedback, 1u);
  EXPECT_EQ(stats.feedback_reports, 1u);

  // Rebuild resets the EWMA: the feedback referred to replaced statistics.
  auto after = manager.ScoreColumn(*id);
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(after->signals.feedback_error, 0.0);
}

TEST(RefreshManagerTest, FeedbackFoldsAsEwma) {
  Fixture f;
  RefreshOptions options;
  options.feedback_alpha = 0.5;
  RefreshManager manager(&f.catalog, &f.store, options);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());
  EstimationFeedbackSink* sink = &manager;
  // First report seeds the EWMA: |10-20|/20 = 0.5.
  sink->ReportEstimationError("orders", "customer_id", 10.0, 20.0);
  // Second folds at alpha = 0.5: 0.5 * 1.0 + 0.5 * 0.5 = 0.75.
  sink->ReportEstimationError("orders", "customer_id", 40.0, 20.0);
  auto score = manager.ScoreColumn(*id);
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(score->signals.feedback_error, 0.75, 1e-12);
}

TEST(RefreshManagerTest, FeedbackEwmaSurvivesHostileMagnitudes) {
  // Regression: non-finite inputs (or finite opposite-sign inputs whose
  // difference overflows to inf) used to poison the EWMA permanently —
  // alpha-blending never recovers from an inf or NaN term.
  Fixture f;
  RefreshOptions options;
  options.feedback_alpha = 0.5;
  RefreshManager manager(&f.catalog, &f.store, options);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());
  EstimationFeedbackSink* sink = &manager;

  // Non-finite magnitudes are dropped at the sink boundary.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  sink->ReportEstimationError("orders", "customer_id", nan, 20.0);
  sink->ReportEstimationError("orders", "customer_id", 10.0, inf);
  sink->ReportEstimationError("orders", "customer_id", -inf, -inf);
  auto score = manager.ScoreColumn(*id);
  ASSERT_TRUE(score.ok());
  EXPECT_DOUBLE_EQ(score->signals.feedback_error, 0.0);  // nothing folded
  EXPECT_EQ(manager.stats().feedback_reports, 0u);

  // Finite but extreme: |1e308 - (-1e308)| overflows to inf, so the fold
  // clamps the relative error instead of trusting the raw difference.
  sink->ReportEstimationError("orders", "customer_id", 1e308, -1e308);
  score = manager.ScoreColumn(*id);
  ASSERT_TRUE(score.ok());
  EXPECT_TRUE(std::isfinite(score->signals.feedback_error));
  EXPECT_LE(score->signals.feedback_error, 1e12);
  EXPECT_GT(score->signals.feedback_error, 0.0);

  // The EWMA still recovers: accurate follow-ups shrink it.
  for (int i = 0; i < 50; ++i) {
    sink->ReportEstimationError("orders", "customer_id", 20.0, 20.0);
  }
  score = manager.ScoreColumn(*id);
  ASSERT_TRUE(score.ok());
  EXPECT_LT(score->signals.feedback_error, 1.0);
}

TEST(RefreshManagerTest, SelfTuningAdjustsHistogramInPlace) {
  Fixture f;
  RefreshOptions options;
  options.tuning.enabled = true;  // damping 0.4
  RefreshManager manager(&f.catalog, &f.store, options);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());
  const uint64_t published_before = f.store.publish_count();
  auto before = f.catalog.GetColumnStatistics("orders", "customer_id");
  ASSERT_TRUE(before.ok());
  bool is_explicit = false;
  const double stored = before->histogram.LookupFrequency(1, &is_explicit);
  ASSERT_TRUE(is_explicit);  // value 1 is the heavy hitter

  PredicateOutcome outcome;
  outcome.kind = EstimateKind::kEquality;
  outcome.has_range = true;
  outcome.lo = 1;
  outcome.hi = 1;
  outcome.estimated = stored;
  outcome.actual = stored * 3.0;
  manager.ReportPredicateOutcome("orders", "customer_id", outcome);

  auto tuned = manager.TuneColumns();
  ASSERT_TRUE(tuned.ok());
  EXPECT_TRUE(*tuned);

  // The catalog histogram moved a damped step toward the observed actual,
  // without a rebuild, and the adjusted statistics were republished.
  auto after = f.catalog.GetColumnStatistics("orders", "customer_id");
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(after->histogram.LookupFrequency(1),
                   stored + 0.4 * (outcome.actual - stored));
  EXPECT_GT(f.store.publish_count(), published_before);
  auto snapshot = f.store.Current();
  auto snapshot_id = snapshot->Resolve("orders", "customer_id");
  ASSERT_TRUE(snapshot_id.ok());
  auto served = EstimateOne(
      *snapshot, EstimateSpec::Equality(*snapshot_id, Value(int64_t{1})));
  ASSERT_TRUE(served.ok());
  EXPECT_DOUBLE_EQ(*served, stored + 0.4 * (outcome.actual - stored));

  RefreshStats stats = manager.stats();
  EXPECT_EQ(stats.rebuilds_total, 0u);
  EXPECT_EQ(stats.tuning_observations, 1u);
  EXPECT_GE(stats.tuning_adjustments, 1u);

  // The staleness report exposes the tuning state; the fresh adjustment
  // left the recency signal high so scoring relieves this column.
  std::vector<ColumnStalenessReport> reports = manager.ScoreColumns();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].tuning_observations, 1u);
  EXPECT_GE(reports[0].tuning_adjustments, 1u);
  EXPECT_GT(reports[0].tuning_recency, 0.0);
  // A rebuild would now replace the tuned histogram, so the pass made the
  // column eligible for one; the feedback keeps it above the threshold
  // despite the relief.
  EXPECT_FALSE(reports[0].score.signals.unchanged_since_build);
  EXPECT_TRUE(reports[0].score.rebuild_recommended);
}

TEST(RefreshManagerTest, SelfTuningOffLeavesStatisticsByteIdentical) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);  // tuning off by default
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());
  auto before = f.catalog.GetColumnStatistics("orders", "customer_id");
  ASSERT_TRUE(before.ok());
  const std::string bytes_before = before->histogram.Encode();

  PredicateOutcome outcome;
  outcome.kind = EstimateKind::kEquality;
  outcome.has_range = true;
  outcome.lo = 1;
  outcome.hi = 1;
  outcome.estimated = 400.0;
  outcome.actual = 4000.0;
  manager.ReportPredicateOutcome("orders", "customer_id", outcome);

  auto tuned = manager.TuneColumns();
  ASSERT_TRUE(tuned.ok());
  EXPECT_FALSE(*tuned);  // nothing adjusted, nothing republished

  // The outcome still feeds the rebuild-priority EWMA, but the stored
  // statistics are bit-identical to a build without the tuner.
  auto after = f.catalog.GetColumnStatistics("orders", "customer_id");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->histogram.Encode(), bytes_before);
  EXPECT_EQ(manager.stats().tuning_observations, 0u);
  auto score = manager.ScoreColumn(*id);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(score->signals.feedback_error, 0.0);
  // Feedback alone leaves the column unchanged since its build: its score
  // passes the threshold, but a rebuild would reproduce the histogram.
  EXPECT_GE(score->total, manager.options().staleness.rebuild_score_threshold);
  EXPECT_TRUE(score->signals.unchanged_since_build);
  EXPECT_FALSE(score->rebuild_recommended);
}

// ForceRebuild is unconditional. On a column nothing changed since its
// build it reproduces the histogram byte for byte, which is why skipping
// that rebuild serves the same bits.
TEST(RefreshManagerTest, ForceRebuildCountsAsForced) {
  for (const bool floor : {false, true}) {
    SCOPED_TRACE(floor ? "floor column" : "skewed column");
    Fixture f;
    RefreshManager manager(&f.catalog, &f.store,
                           floor ? FloorOptions() : RefreshOptions{});
    auto id = floor ? RegisterFloorColumn(&manager, "orders", "customer_id")
                    : RegisterSkewed(&manager, "orders", "customer_id");
    ASSERT_TRUE(id.ok());
    auto before = f.catalog.GetColumnStatistics("orders", "customer_id");
    ASSERT_TRUE(before.ok());
    const std::string bytes_before = before->histogram.Encode();

    std::vector<RefreshColumnId> ids = {*id};
    ASSERT_TRUE(manager.ForceRebuild(ids).ok());
    RefreshStats stats = manager.stats();
    EXPECT_EQ(stats.rebuilds_forced, 1u);
    EXPECT_EQ(stats.rebuilds_total, 1u);
    auto after = f.catalog.GetColumnStatistics("orders", "customer_id");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->histogram.Encode(), bytes_before);
    auto score = manager.ScoreColumn(*id);
    ASSERT_TRUE(score.ok());
    EXPECT_TRUE(score->signals.unchanged_since_build);

    std::vector<RefreshColumnId> bad = {42};
    EXPECT_TRUE(manager.ForceRebuild(bad).IsInvalidArgument());
  }
}

TEST(RefreshManagerTest, MaxRebuildsPerTickCapsWork) {
  Fixture f;
  RefreshOptions options;
  options.max_rebuilds_per_tick = 1;
  options.maintenance.rebuild_drift_fraction = 0.01;
  RefreshManager manager(&f.catalog, &f.store, options);
  auto a = RegisterSkewed(&manager, "t", "a");
  auto b = RegisterSkewed(&manager, "t", "b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*a, 1).ok());
    ASSERT_TRUE(manager.RecordInsert(*b, 1).ok());
  }
  ASSERT_TRUE(manager.ApplyPendingDeltas().ok());
  auto rebuilt = manager.RebuildIfStale();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, 1u);  // capped; the other column waits for next tick
  auto again = manager.RebuildIfStale();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 1u);
}

TEST(RefreshManagerTest, ScoreColumnsSortsWorstFirst) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  auto a = RegisterSkewed(&manager, "t", "calm");
  auto b = RegisterSkewed(&manager, "t", "churned");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*b, 7).ok());
  }
  ASSERT_TRUE(manager.ApplyPendingDeltas().ok());
  std::vector<ColumnStalenessReport> reports = manager.ScoreColumns();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].column, "churned");
  EXPECT_EQ(reports[0].deltas_applied, 50u);
  EXPECT_GE(reports[0].score.total, reports[1].score.total);
}

TEST(RefreshManagerTest, TickRunsTheFullCycle) {
  Fixture f;
  RefreshOptions options;
  options.maintenance.rebuild_drift_fraction = 0.05;
  RefreshManager manager(&f.catalog, &f.store, options);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());

  // Idle tick: nothing applied, nothing rebuilt, nothing republished.
  auto idle = manager.Tick();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle->deltas_applied, 0u);
  EXPECT_EQ(idle->columns_rebuilt, 0u);
  EXPECT_FALSE(idle->republished);

  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*id, 5).ok());
  }
  auto busy = manager.Tick();
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy->deltas_applied, 60u);
  EXPECT_EQ(busy->columns_rebuilt, 1u);  // drift policy fires at 5%
  EXPECT_TRUE(busy->republished);
  EXPECT_GE(busy->seconds, 0.0);

  RefreshStats stats = manager.stats();
  EXPECT_EQ(stats.ticks, 2u);
  EXPECT_EQ(stats.deltas_applied, 60u);
  EXPECT_GE(stats.republish_count, 2u);  // registration + busy tick
  EXPECT_EQ(stats.columns_tracked, 1u);
}

// The single-publication contract (ISSUE §10 satellite): a busy tick that
// both applies deltas AND rebuilds coalesces its write-backs into exactly
// one RCU swap. Before the fix, ApplyPendingDeltas and the rebuild path
// each republished — two swaps per busy tick, doubling reader cache
// invalidations.
TEST(RefreshManagerTest, BusyTickPublishesExactlyOnce) {
  Fixture f;
  RefreshOptions options;
  options.maintenance.rebuild_drift_fraction = 0.05;
  RefreshManager manager(&f.catalog, &f.store, options);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());

  const uint64_t republish_before = manager.stats().republish_count;
  const uint64_t version_before = f.store.Current()->source_version();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*id, 5).ok());
  }
  auto busy = manager.Tick();
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy->deltas_applied, 60u);
  EXPECT_EQ(busy->columns_rebuilt, 1u);  // apply AND rebuild in one tick
  EXPECT_TRUE(busy->changed);
  EXPECT_TRUE(busy->republished);
  // ... yet exactly ONE publication covers both write-backs.
  EXPECT_EQ(manager.stats().republish_count, republish_before + 1);
  EXPECT_GT(f.store.Current()->source_version(), version_before);
}

// A no-op tick must not churn the RCU epoch: nothing changed, nothing is
// published, and the skip is visible in RefreshStats::ticks_skipped. That
// holds for a column that scores ~0 after its build and for one whose
// post-build score sits at or above the rebuild threshold.
TEST(RefreshManagerTest, NoOpTickSkipsPublication) {
  for (const bool floor : {false, true}) {
    SCOPED_TRACE(floor ? "floor column" : "skewed column");
    Fixture f;
    RefreshManager manager(&f.catalog, &f.store,
                           floor ? FloorOptions() : RefreshOptions{});
    auto id = floor ? RegisterFloorColumn(&manager, "orders", "customer_id")
                    : RegisterSkewed(&manager, "orders", "customer_id");
    ASSERT_TRUE(id.ok());
    const uint64_t republish_before = manager.stats().republish_count;
    auto snapshot_before = f.store.Current();

    auto idle = manager.Tick();
    ASSERT_TRUE(idle.ok());
    EXPECT_FALSE(idle->changed);
    EXPECT_FALSE(idle->republished);
    EXPECT_EQ(idle->columns_rebuilt, 0u);
    RefreshStats stats = manager.stats();
    EXPECT_EQ(stats.ticks, 1u);
    EXPECT_EQ(stats.ticks_skipped, 1u);
    EXPECT_EQ(stats.republish_count, republish_before);
    // Readers keep the very same snapshot object — the epoch did not move.
    EXPECT_EQ(f.store.Current().get(), snapshot_before.get());

    // A record against an unknown id drains but changes nothing: still a
    // skip, not a publication.
    ASSERT_TRUE(manager.RecordInsert(999, 1).ok());
    auto unknown_only = manager.Tick();
    ASSERT_TRUE(unknown_only.ok());
    EXPECT_FALSE(unknown_only->republished);
    EXPECT_EQ(manager.stats().ticks_skipped, 2u);
  }
}

// A DurabilityHook whose registration write parks until released, so a
// test can hold RegisterColumn — and with it the manager mutex — open.
class BlockingRegistrationHook final : public DurabilityHook {
 public:
  Status PersistDeltas(std::span<UpdateRecord>) override {
    return Status::OK();
  }
  Status PersistRegistration(RefreshColumnId, const std::string&,
                             const std::string&, std::span<const int64_t>,
                             std::span<const double>,
                             uint64_t* lsn_out) override {
    *lsn_out = 0;
    entered_.set_value();
    release_.get_future().wait();
    return Status::OK();
  }
  void WaitUntilEntered() { entered_.get_future().wait(); }
  void Release() { release_.set_value(); }

 private:
  std::promise<void> entered_;
  std::promise<void> release_;
};

// /update resolves every delta through Lookup. Lookup reads the name index
// under its own lock, so it answers while another thread holds the
// manager mutex (here: a registration parked in its durability write; in
// production: a tick).
TEST(RefreshManagerTest, LookupDoesNotWaitForTheManagerMutex) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());

  BlockingRegistrationHook hook;
  manager.AttachDurability(&hook);
  std::thread registrar(
      [&] { EXPECT_TRUE(RegisterSkewed(&manager, "orders", "item_id").ok()); });
  hook.WaitUntilEntered();

  std::future<Result<RefreshColumnId>> looked_up = std::async(
      std::launch::async, [&] { return manager.Lookup("orders", "customer_id"); });
  const std::future_status status =
      looked_up.wait_for(std::chrono::seconds(2));
  hook.Release();
  registrar.join();
  ASSERT_EQ(status, std::future_status::ready)
      << "Lookup waited on the manager mutex";
  Result<RefreshColumnId> result = looked_up.get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, *id);
  manager.AttachDurability(nullptr);
  EXPECT_TRUE(manager.Lookup("orders", "item_id").ok());
}

TEST(RefreshManagerTest, DeleteOfUntrackedValueIsDriftOnly) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(manager.RecordDelete(*id, 9999).ok());
  auto applied = manager.ApplyPendingDeltas();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  // The untracked delete counts as churn but invents no tracked value.
  auto score = manager.ScoreColumn(*id);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(score->signals.drift_fraction, 0.0);
  auto stats = f.catalog.GetColumnStatistics("orders", "customer_id");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_distinct, 20u);
}

// The idle-catalog regression: a column whose fresh build already scores
// at or above the threshold used to be rebuilt into the same histogram on
// every tick, each rebuild republishing and emptying the estimate cache.
TEST(RefreshManagerTest, UnchangedColumnAboveThresholdIsNeverRebuilt) {
  telemetry::SetEnabled(true);
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store, FloorOptions());
  auto id = RegisterFloorColumn(&manager, "fact", "key");
  ASSERT_TRUE(id.ok());
  auto fresh = manager.ScoreColumn(*id);
  ASSERT_TRUE(fresh.ok());
  ASSERT_GE(fresh->total,
            manager.options().staleness.rebuild_score_threshold)
      << "the column must score at or above the threshold right after its "
         "build";
  EXPECT_GT(fresh->signals.self_join_error, 0.0);
  EXPECT_TRUE(fresh->signals.unchanged_since_build);
  EXPECT_FALSE(fresh->rebuild_recommended);
  EXPECT_EQ(fresh->reason, RebuildReason::kNone);

  // Cache estimates on the published snapshot (equality and range specs
  // go through EstimateBatch's estimate cache).
  const std::shared_ptr<const CatalogSnapshot> before = f.store.Current();
  auto column = before->Resolve("fact", "key");
  ASSERT_TRUE(column.ok());
  const std::vector<EstimateSpec> specs = {
      EstimateSpec::Equality(*column, Value(int64_t{3})),
      EstimateSpec::Range(*column, RangeBounds{10, 90})};
  std::vector<Result<double>> first = EstimateBatch(*before, specs);
  const uint64_t republish_before = manager.stats().republish_count;

  constexpr uint64_t kTicks = 25;
  for (uint64_t t = 0; t < kTicks; ++t) {
    auto report = manager.Tick();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->columns_rebuilt, 0u);
    EXPECT_FALSE(report->republished);
  }
  RefreshStats stats = manager.stats();
  EXPECT_EQ(stats.ticks, kTicks);
  EXPECT_EQ(stats.ticks_skipped, kTicks);
  EXPECT_EQ(stats.rebuilds_total, 0u);
  EXPECT_EQ(stats.republish_count, republish_before);
  const std::shared_ptr<const CatalogSnapshot> after = f.store.Current();
  EXPECT_EQ(after.get(), before.get());

  // The estimates cached before the ticks still hit, with the same bits.
  telemetry::Counter* hits = telemetry::MetricRegistry::Global().GetCounter(
      "hops_estimate_cache_hits_total",
      "EstimateBatch specs served from the snapshot estimate cache.");
  const uint64_t hits_before = hits->Value();
  std::vector<Result<double>> again = EstimateBatch(*after, specs);
  EXPECT_EQ(hits->Value() - hits_before, specs.size());
  ASSERT_EQ(again.size(), first.size());
  for (size_t i = 0; i < again.size(); ++i) {
    ASSERT_TRUE(first[i].ok());
    ASSERT_TRUE(again[i].ok());
    EXPECT_EQ(*again[i], *first[i]) << "spec " << i;
  }

  // The score still reports the floor a rebuild cannot lower.
  auto later = manager.ScoreColumn(*id);
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(later->total, fresh->total);
}

// One applied delta makes the column eligible again; the rebuild it earns
// marks the column unchanged, so the following ticks are skipped.
TEST(RefreshManagerTest, OneDeltaMakesAnUnchangedColumnEligible) {
  for (const bool untracked_delete : {false, true}) {
    SCOPED_TRACE(untracked_delete ? "delete of an untracked value"
                                  : "insert of a tracked value");
    Fixture f;
    RefreshManager manager(&f.catalog, &f.store, FloorOptions());
    auto id = RegisterFloorColumn(&manager, "fact", "key");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(manager.Tick().ok());
    EXPECT_EQ(manager.stats().rebuilds_total, 0u);

    ASSERT_TRUE(untracked_delete ? manager.RecordDelete(*id, 5000).ok()
                                 : manager.RecordInsert(*id, 500).ok());
    auto busy = manager.Tick();
    ASSERT_TRUE(busy.ok());
    EXPECT_EQ(busy->deltas_applied, 1u);
    EXPECT_EQ(busy->columns_rebuilt, 1u);
    EXPECT_TRUE(busy->republished);
    auto score = manager.ScoreColumn(*id);
    ASSERT_TRUE(score.ok());
    EXPECT_TRUE(score->signals.unchanged_since_build);

    auto idle = manager.Tick();
    ASSERT_TRUE(idle.ok());
    EXPECT_EQ(idle->columns_rebuilt, 0u);
    EXPECT_FALSE(idle->republished);
    EXPECT_EQ(manager.stats().rebuilds_total, 1u);
    EXPECT_EQ(manager.stats().ticks_skipped, 2u);
  }
}

// A restored column may carry tuning the image does not record, so it is
// eligible for one rebuild; after that it is unchanged again.
TEST(RefreshManagerTest, RestoredColumnIsEligibleOnce) {
  Fixture f;
  RefreshManager original(&f.catalog, &f.store, FloorOptions());
  ASSERT_TRUE(RegisterFloorColumn(&original, "fact", "key").ok());
  auto image = original.ExportDurableState();
  ASSERT_TRUE(image.ok());

  Fixture g;
  RefreshManager restored(&g.catalog, &g.store, FloorOptions());
  ASSERT_TRUE(restored.RestoreDurableState(*image).ok());
  auto score = restored.ScoreColumn(0);
  ASSERT_TRUE(score.ok());
  EXPECT_FALSE(score->signals.unchanged_since_build);
  EXPECT_TRUE(score->rebuild_recommended);

  auto first = restored.Tick();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->columns_rebuilt, 1u);
  auto second = restored.Tick();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->columns_rebuilt, 0u);
  EXPECT_FALSE(second->republished);
}

// The Prop 3.1 moments count positive ideal values only, at registration,
// on every delta and on restore, so a warm restart scores every column
// exactly as before (integer counts make every moment an exact sum).
TEST(RefreshManagerTest, StalenessSignalsSurviveExportRestoreExactly) {
  Fixture f;
  RefreshManager original(&f.catalog, &f.store);
  // Values 1..20: 400, 200, then 10 + v % 3; value 20 registered at zero.
  std::vector<int64_t> values = TailValues(1, 20);
  std::vector<double> freqs(20);
  for (int64_t v = 1; v <= 20; ++v) {
    freqs[static_cast<size_t>(v - 1)] = 10.0 + static_cast<double>(v % 3);
  }
  freqs[0] = 400.0;
  freqs[1] = 200.0;
  freqs[19] = 0.0;
  auto zeros = original.RegisterColumn("t", "registered_zero", values, freqs);
  ASSERT_TRUE(zeros.ok());

  // Default-bucket values deleted to zero (one of them revived and deleted
  // again), deletes of the explicit heavy hitter, and the registered zero
  // revived and deleted back to zero.
  auto deleted = RegisterSkewed(&original, "t", "deleted_to_zero");
  ASSERT_TRUE(deleted.ok());
  std::vector<UpdateRecord> batch = {
      UpdateRecord{*deleted, 5, -10.0}, UpdateRecord{*deleted, 6, -10.0},
      UpdateRecord{*deleted, 6, +1.0},  UpdateRecord{*deleted, 6, -1.0},
      UpdateRecord{*deleted, 7, -3.0},  UpdateRecord{*deleted, 1, -50.0},
      UpdateRecord{*zeros, 20, +2.0},   UpdateRecord{*zeros, 20, -2.0}};
  ASSERT_TRUE(original.RecordBatch(batch).ok());
  ASSERT_TRUE(original.ApplyPendingDeltas().ok());

  auto image = original.ExportDurableState();
  ASSERT_TRUE(image.ok());
  Fixture g;
  RefreshManager restored(&g.catalog, &g.store);
  ASSERT_TRUE(restored.RestoreDurableState(*image).ok());

  for (const RefreshColumnId id : {*zeros, *deleted}) {
    SCOPED_TRACE("column " + std::to_string(id));
    auto before = original.ScoreColumn(id);
    auto after = restored.ScoreColumn(id);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->signals.drift_fraction, before->signals.drift_fraction);
    EXPECT_EQ(after->signals.self_join_error,
              before->signals.self_join_error);
    EXPECT_EQ(after->signals.self_join_relative,
              before->signals.self_join_relative);
    EXPECT_EQ(after->signals.feedback_error, before->signals.feedback_error);
    EXPECT_EQ(after->signals.tuning_recency, before->signals.tuning_recency);
    EXPECT_EQ(after->signals.maintainer_wants_rebuild,
              before->signals.maintainer_wants_rebuild);
    EXPECT_EQ(after->total, before->total);
  }
  // The registered zero is not a value of the column: the error matches a
  // registration without it.
  Fixture h;
  RefreshManager without_zero(&h.catalog, &h.store);
  auto positive = without_zero.RegisterColumn(
      "t", "registered_zero", std::span(values).first(19),
      std::span(freqs).first(19));
  ASSERT_TRUE(positive.ok());
  EXPECT_EQ(restored.ScoreColumn(*zeros)->signals.self_join_error,
            without_zero.ScoreColumn(*positive)->signals.self_join_error);
}

}  // namespace
}  // namespace hops
