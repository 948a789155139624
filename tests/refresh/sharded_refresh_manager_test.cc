// ShardedRefreshManager (DESIGN.md §10): hash routing, global id
// registration, per-shard write paths, joint staleness budgeting, and the
// single-publication-per-tick contract. The shards=1 identity test pins the
// headline guarantee: one shard reproduces RefreshManager behavior exactly,
// down to bit-identical published estimates.

#include "refresh/sharded_refresh_manager.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "estimator/serving.h"
#include "stats/zipf.h"
#include "telemetry/metrics.h"

namespace hops {
namespace {

std::vector<int64_t> TailValues(int64_t first, size_t count) {
  std::vector<int64_t> values;
  values.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    values.push_back(first + static_cast<int64_t>(i));
  }
  return values;
}

// Values 1..20: value 1 -> 400, value 2 -> 200, values 3..20 -> 10 each.
Result<RefreshColumnId> RegisterSkewed(ShardedRefreshManager* manager,
                                       const std::string& table,
                                       const std::string& column) {
  std::vector<int64_t> values = TailValues(1, 20);
  std::vector<double> freqs(20, 10.0);
  freqs[0] = 400.0;
  freqs[1] = 200.0;
  return manager->RegisterColumn(table, column, values, freqs);
}

constexpr double kSkewedMass = 400.0 + 200.0 + 18 * 10.0;

TEST(ShardedRefreshManagerTest, ShardsClampToAtLeastOne) {
  SnapshotStore store;
  ShardedRefreshOptions options;
  options.shards = 0;
  ShardedRefreshManager manager(&store, options);
  EXPECT_EQ(manager.shards(), 1u);
}

TEST(ShardedRefreshManagerTest, RegisterLookupAndPublishAcrossShards) {
  SnapshotStore store;
  ShardedRefreshOptions options;
  options.shards = 3;
  ShardedRefreshManager manager(&store, options);
  EXPECT_EQ(manager.shards(), 3u);

  std::vector<RefreshColumnId> ids;
  for (int c = 0; c < 6; ++c) {
    auto id = RegisterSkewed(&manager, "t" + std::to_string(c % 2),
                             "col" + std::to_string(c));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<RefreshColumnId>(c));  // dense global ids
    ids.push_back(*id);
  }
  EXPECT_EQ(manager.num_columns(), 6u);

  // Lookup round-trips every global id, regardless of owning shard.
  for (int c = 0; c < 6; ++c) {
    auto looked_up =
        manager.Lookup("t" + std::to_string(c % 2), "col" + std::to_string(c));
    ASSERT_TRUE(looked_up.ok());
    EXPECT_EQ(*looked_up, ids[static_cast<size_t>(c)]);
  }
  EXPECT_TRUE(manager.Lookup("t0", "missing").status().IsNotFound());

  // The published snapshot merges every shard's catalog.
  auto snapshot = store.Current();
  for (int c = 0; c < 6; ++c) {
    EXPECT_TRUE(snapshot->Contains("t" + std::to_string(c % 2),
                                   "col" + std::to_string(c)));
  }

  // Duplicate registration is rejected globally, not just on the shard the
  // new id would hash to.
  EXPECT_TRUE(
      RegisterSkewed(&manager, "t0", "col0").status().IsAlreadyExists());

  // Malformed input is rejected by the owning shard's validation.
  std::vector<int64_t> values = {1, 2};
  std::vector<double> short_freqs = {1.0};
  EXPECT_TRUE(manager.RegisterColumn("t9", "bad", values, short_freqs)
                  .status()
                  .IsInvalidArgument());
}

TEST(ShardedRefreshManagerTest, RecordsRouteToTheOwningShardLog) {
  SnapshotStore store;
  ShardedRefreshOptions options;
  options.shards = 4;
  ShardedRefreshManager manager(&store, options);

  std::vector<RefreshColumnId> ids;
  for (int c = 0; c < 8; ++c) {
    auto id = RegisterSkewed(&manager, "t", "col" + std::to_string(c));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  std::vector<size_t> expected_depth(manager.shards(), 0);
  for (RefreshColumnId id : ids) {
    ASSERT_TRUE(manager.RecordInsert(id, 1).ok());
    ASSERT_TRUE(manager.RecordDelete(id, 3).ok());
    expected_depth[manager.ShardOfColumn(id)] += 2;
  }
  size_t total = 0;
  for (size_t s = 0; s < manager.shards(); ++s) {
    EXPECT_EQ(manager.update_log(s).depth(), expected_depth[s]) << "shard "
                                                                << s;
    total += expected_depth[s];
  }
  EXPECT_EQ(manager.pending_update_records(), total);

  // One tick drains every shard and applies everything.
  auto report = manager.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deltas_applied, total);
  EXPECT_EQ(manager.pending_update_records(), 0u);
  EXPECT_EQ(manager.stats().total.deltas_applied, total);
}

TEST(ShardedRefreshManagerTest, RecordBatchRoutesAndAppliesByShard) {
  SnapshotStore store;
  ShardedRefreshOptions options;
  options.shards = 2;
  ShardedRefreshManager manager(&store, options);
  auto a = RegisterSkewed(&manager, "t", "a");
  auto b = RegisterSkewed(&manager, "t", "b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  std::vector<UpdateRecord> batch = {
      UpdateRecord{*a, 2, +5.0}, UpdateRecord{*b, 1, -2.0},
      UpdateRecord{*a, 1, +1.0}, UpdateRecord{*b, 2, +3.0}};
  ASSERT_TRUE(manager.RecordBatch(batch).ok());
  EXPECT_EQ(manager.pending_update_records(), 4u);

  auto report = manager.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deltas_applied, 4u);

  // Published statistics reflect the weighted folds on both columns: the
  // routing preserved values and weights.
  auto snapshot = store.Current();
  auto col_a = snapshot->Resolve("t", "a");
  auto col_b = snapshot->Resolve("t", "b");
  ASSERT_TRUE(col_a.ok());
  ASSERT_TRUE(col_b.ok());
  EXPECT_DOUBLE_EQ(snapshot->stats(*col_a).num_tuples, kSkewedMass + 6.0);
  EXPECT_DOUBLE_EQ(snapshot->stats(*col_b).num_tuples, kSkewedMass + 1.0);
}

TEST(ShardedRefreshManagerTest, UnknownIdsAreCountedByTheHashOwnerShard) {
  SnapshotStore store;
  ShardedRefreshOptions options;
  options.shards = 2;
  ShardedRefreshManager manager(&store, options);
  ASSERT_TRUE(RegisterSkewed(&manager, "t", "a").ok());

  // Ids are validated at apply time, exactly like RefreshManager.
  ASSERT_TRUE(manager.RecordInsert(999, 1).ok());
  std::vector<UpdateRecord> batch = {UpdateRecord{12345, 7, +1.0}};
  ASSERT_TRUE(manager.RecordBatch(batch).ok());

  auto report = manager.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deltas_applied, 0u);
  EXPECT_EQ(manager.stats().total.unknown_column_records, 2u);
}

TEST(ShardedRefreshManagerTest, TickSkipsPublicationWhenNothingChanged) {
  SnapshotStore store;
  ShardedRefreshOptions options;
  options.shards = 2;
  ShardedRefreshManager manager(&store, options);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());
  const uint64_t version_after_register = store.Current()->source_version();

  // Idle tick: no publication, no RCU churn.
  auto idle = manager.Tick();
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle->changed);
  EXPECT_FALSE(idle->republished);
  EXPECT_EQ(store.Current()->source_version(), version_after_register);

  // Busy tick: exactly one publication covering apply + rebuild.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*id, 5).ok());
  }
  const uint64_t republish_before = manager.stats().total.republish_count;
  auto busy = manager.Tick();
  ASSERT_TRUE(busy.ok());
  EXPECT_TRUE(busy->changed);
  EXPECT_TRUE(busy->republished);
  EXPECT_EQ(busy->deltas_applied, 60u);
  EXPECT_EQ(manager.stats().total.republish_count, republish_before + 1);

  ShardedRefreshStats stats = manager.stats();
  EXPECT_EQ(stats.total.ticks, 2u);
  EXPECT_EQ(stats.total.ticks_skipped, 1u);
  EXPECT_EQ(stats.shards, 2u);
  ASSERT_EQ(stats.per_shard.size(), 2u);
  // Shard pipelines never publish on their own; the coordinator owns both
  // the tick counter and the publication.
  for (const RefreshStats& s : stats.per_shard) {
    EXPECT_EQ(s.republish_count, 0u);
    EXPECT_EQ(s.ticks, 0u);
  }
}

// Idle ticks over columns whose fresh builds already score at or above
// the rebuild threshold (Zipf(0.5) over 1000 values, β = 16): a rebuild
// would reproduce each histogram, so no shard demands one and no tick
// publishes — at any shard count.
TEST(ShardedRefreshManagerTest, IdleTicksNeverRebuildUnchangedColumns) {
  ZipfParams params;
  params.total = 100000.0;
  params.num_values = 1000;
  params.skew = 0.5;
  auto freqs = ZipfFrequenciesInteger(params);
  ASSERT_TRUE(freqs.ok());
  const std::vector<int64_t> values = TailValues(1, params.num_values);
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SnapshotStore store;
    ShardedRefreshOptions options;
    options.shards = shards;
    options.refresh.statistics.num_buckets = 16;
    ShardedRefreshManager manager(&store, options);
    for (int c = 0; c < 8; ++c) {
      ASSERT_TRUE(
          manager.RegisterColumn("t", "col" + std::to_string(c), values, *freqs)
              .ok());
    }
    for (const ColumnStalenessReport& report : manager.ScoreColumns()) {
      ASSERT_GE(report.score.total,
                options.refresh.staleness.rebuild_score_threshold);
      EXPECT_TRUE(report.score.signals.unchanged_since_build);
      EXPECT_FALSE(report.score.rebuild_recommended);
    }
    const auto snapshot_before = store.Current();
    const uint64_t republish_before = manager.stats().total.republish_count;

    constexpr uint64_t kTicks = 10;
    for (uint64_t t = 0; t < kTicks; ++t) {
      auto report = manager.Tick();
      ASSERT_TRUE(report.ok());
      EXPECT_EQ(report->columns_rebuilt, 0u);
      EXPECT_FALSE(report->republished);
    }
    ShardedRefreshStats stats = manager.stats();
    EXPECT_EQ(stats.total.ticks, kTicks);
    EXPECT_EQ(stats.total.ticks_skipped, kTicks);
    EXPECT_EQ(stats.total.rebuilds_total, 0u);
    EXPECT_EQ(stats.total.republish_count, republish_before);
    EXPECT_EQ(store.Current().get(), snapshot_before.get());
  }
}

TEST(ShardedRefreshManagerTest, NullStoreDisablesPublication) {
  ShardedRefreshOptions options;
  options.shards = 2;
  ShardedRefreshManager manager(/*store=*/nullptr, options);
  auto id = RegisterSkewed(&manager, "t", "a");
  ASSERT_TRUE(id.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*id, 5).ok());
  }
  auto report = manager.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->changed);          // the catalogs did move...
  EXPECT_FALSE(report->republished);     // ...but nothing was published
  EXPECT_EQ(manager.stats().total.republish_count, 0u);
}

TEST(ShardedRefreshManagerTest, ForceRebuildRebuildsAcrossShardsOnce) {
  SnapshotStore store;
  ShardedRefreshOptions options;
  options.shards = 3;
  ShardedRefreshManager manager(&store, options);
  std::vector<RefreshColumnId> ids;
  for (int c = 0; c < 5; ++c) {
    auto id = RegisterSkewed(&manager, "t", "col" + std::to_string(c));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const uint64_t republish_before = manager.stats().total.republish_count;
  ASSERT_TRUE(manager.ForceRebuild(ids).ok());
  ShardedRefreshStats stats = manager.stats();
  EXPECT_EQ(stats.total.rebuilds_forced, 5u);
  EXPECT_EQ(stats.total.rebuilds_total, 5u);
  // One merged publication for the whole forced batch.
  EXPECT_EQ(stats.total.republish_count, republish_before + 1);

  std::vector<RefreshColumnId> bad = {424242};
  EXPECT_TRUE(manager.ForceRebuild(bad).IsInvalidArgument());
}

TEST(ShardedRefreshManagerTest, ScoreColumnsMergesShardsWorstFirst) {
  SnapshotStore store;
  ShardedRefreshOptions options;
  options.shards = 3;
  // Keep the churn visible to ScoreColumns: no rebuild may fire this tick.
  options.refresh.maintenance.rebuild_drift_fraction = 1e9;
  options.refresh.staleness.rebuild_score_threshold = 1e9;
  ShardedRefreshManager manager(&store, options);
  auto calm = RegisterSkewed(&manager, "t", "calm");
  auto churned = RegisterSkewed(&manager, "t", "churned");
  auto mild = RegisterSkewed(&manager, "t", "mild");
  ASSERT_TRUE(calm.ok());
  ASSERT_TRUE(churned.ok());
  ASSERT_TRUE(mild.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*churned, 7).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*mild, 7).ok());
  }
  auto report = manager.Tick();
  ASSERT_TRUE(report.ok());

  std::vector<ColumnStalenessReport> reports = manager.ScoreColumns();
  ASSERT_EQ(reports.size(), 3u);
  // Global ids survive the shard-local scoring.
  for (const ColumnStalenessReport& r : reports) {
    auto looked_up = manager.Lookup(r.table, r.column);
    ASSERT_TRUE(looked_up.ok());
    EXPECT_EQ(*looked_up, r.id);
  }
  // Sorted worst-first across shard boundaries.
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_GE(reports[i - 1].score.total, reports[i].score.total);
  }
}

TEST(ShardedRefreshManagerTest, FeedbackReachesTheOwningShardOnly) {
  SnapshotStore store;
  ShardedRefreshOptions options;
  options.shards = 3;
  ShardedRefreshManager manager(&store, options);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());

  EstimationFeedbackSink* sink = &manager;
  sink->ReportEstimationError("orders", "customer_id", 100.0, 1000.0);
  sink->ReportEstimationError("orders", "unknown", 1.0, 2.0);  // ignored

  ShardedRefreshStats stats = manager.stats();
  EXPECT_EQ(stats.total.feedback_reports, 1u);
  // Exactly one shard (the owner) recorded it.
  size_t shards_with_reports = 0;
  for (const RefreshStats& s : stats.per_shard) {
    if (s.feedback_reports > 0) ++shards_with_reports;
  }
  EXPECT_EQ(shards_with_reports, 1u);

  std::vector<ColumnStalenessReport> reports = manager.ScoreColumns();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GT(reports[0].score.signals.feedback_error, 0.5);
}

// The joint staleness signal in action: under rebuild-budget pressure
// (global budget = 1, several rebuild-recommended columns spread across
// shards) the slot goes to the shard whose relation runs hottest — not
// round-robin, not registration order.
TEST(ShardedRefreshManagerTest, JointBudgetPrefersTheHotRelation) {
  SnapshotStore store;
  ShardedRefreshOptions options;
  options.shards = 2;
  options.max_rebuilds_per_tick_total = 1;
  // Isolate the feedback signal so heat is exactly the reported q-error
  // EWMA and both columns cross the rebuild threshold.
  options.refresh.staleness.weight_drift = 0.0;
  options.refresh.staleness.weight_self_join = 0.0;
  options.refresh.maintenance.rebuild_drift_fraction = 1e9;
  ShardedRefreshManager manager(&store, options);

  // Register columns until both shards own at least one; keep one column
  // per shard, each in its own relation.
  RefreshColumnId on_shard[2] = {0, 0};
  bool have_shard[2] = {false, false};
  for (int c = 0; c < 16 && !(have_shard[0] && have_shard[1]); ++c) {
    auto id = RegisterSkewed(&manager, "rel" + std::to_string(c),
                             "col" + std::to_string(c));
    ASSERT_TRUE(id.ok());
    const size_t shard = manager.ShardOfColumn(*id);
    if (!have_shard[shard]) {
      on_shard[shard] = *id;
      have_shard[shard] = true;
    }
  }
  ASSERT_TRUE(have_shard[0] && have_shard[1]);

  std::vector<ColumnStalenessReport> scored = manager.ScoreColumns();
  auto table_of = [&](RefreshColumnId id) {
    for (const ColumnStalenessReport& r : scored) {
      if (r.id == id) return r.table;
    }
    ADD_FAILURE() << "id " << id << " not scored";
    return std::string();
  };
  auto column_of = [&](RefreshColumnId id) {
    for (const ColumnStalenessReport& r : scored) {
      if (r.id == id) return r.column;
    }
    return std::string();
  };

  // Shard 1's relation is hot (q-error 0.9); shard 0's is warm (0.2) —
  // both above the 0.10 rebuild threshold, so both DEMAND a slot. Each
  // takes one delta first (its drift weighted out): feedback alone never
  // asks for a rebuild of a column nothing changed since its build.
  const size_t hot_shard = 1;
  const size_t warm_shard = 0;
  ASSERT_TRUE(manager.RecordInsert(on_shard[hot_shard], 1).ok());
  ASSERT_TRUE(manager.RecordInsert(on_shard[warm_shard], 1).ok());
  EstimationFeedbackSink* sink = &manager;
  sink->ReportEstimationError(table_of(on_shard[hot_shard]),
                              column_of(on_shard[hot_shard]), 100.0, 1000.0);
  sink->ReportEstimationError(table_of(on_shard[warm_shard]),
                              column_of(on_shard[warm_shard]), 120.0, 100.0);

  auto report = manager.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->columns_rebuilt, 1u);  // global budget bites

  ShardedRefreshStats stats = manager.stats();
  EXPECT_EQ(stats.per_shard[hot_shard].rebuilds_feedback, 1u);
  EXPECT_EQ(stats.per_shard[warm_shard].rebuilds_total, 0u);

  // The next tick serves the deferred warm column (its EWMA persists).
  auto next = manager.Tick();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->columns_rebuilt, 1u);
  EXPECT_EQ(manager.stats().per_shard[warm_shard].rebuilds_feedback, 1u);
}

TEST(ShardedRefreshManagerTest, ComputeRelationHeatFoldsDriftAndFeedback) {
  std::vector<ColumnStalenessReport> reports(3);
  reports[0].table = "fact";
  reports[0].score.signals.drift_fraction = 0.4;
  reports[0].score.signals.feedback_error = 0.1;
  reports[1].table = "fact";
  reports[1].score.signals.drift_fraction = 0.2;
  reports[1].score.signals.feedback_error = 0.0;
  reports[1].score.signals.self_join_error = 1e9;  // deliberately ignored
  reports[2].table = "dim";
  reports[2].score.signals.drift_fraction = 0.0;
  reports[2].score.signals.feedback_error = 0.5;

  StalenessOptions options;
  options.weight_drift = 2.0;
  options.weight_feedback = 3.0;
  options.weight_self_join = 100.0;  // must not leak into heat

  auto heat = ComputeRelationHeat(reports, options);
  ASSERT_EQ(heat.size(), 2u);
  EXPECT_NEAR(heat["fact"], 2.0 * (0.4 + 0.2) + 3.0 * 0.1, 1e-12);
  EXPECT_NEAR(heat["dim"], 3.0 * 0.5, 1e-12);
}

// The headline identity: shards = 1 reproduces RefreshManager exactly —
// same rebuild decisions in the same order, same tick accounting, and
// bit-identical estimates served from the published snapshots.
TEST(ShardedRefreshManagerTest, ShardsOneMatchesRefreshManagerExactly) {
  RefreshOptions refresh;
  refresh.statistics.num_buckets = 6;
  refresh.maintenance.rebuild_drift_fraction = 0.05;
  refresh.max_rebuilds_per_tick = 2;

  Catalog baseline_catalog;
  SnapshotStore baseline_store;
  RefreshManager baseline(&baseline_catalog, &baseline_store, refresh);

  SnapshotStore sharded_store;
  ShardedRefreshOptions sharded_options;
  sharded_options.refresh = refresh;
  sharded_options.shards = 1;
  ShardedRefreshManager sharded(&sharded_store, sharded_options);

  // Identical workload on both: a drifting Zipf column plus a calm one.
  ZipfParams params;
  params.total = 5000.0;
  params.num_values = 50;
  params.skew = 1.0;
  auto zipf = ZipfFrequenciesInteger(params);
  ASSERT_TRUE(zipf.ok());
  std::vector<int64_t> values = TailValues(1, params.num_values);

  auto base_fact = baseline.RegisterColumn("fact", "key", values, *zipf);
  auto shard_fact = sharded.RegisterColumn("fact", "key", values, *zipf);
  ASSERT_TRUE(base_fact.ok());
  ASSERT_TRUE(shard_fact.ok());
  EXPECT_EQ(*base_fact, *shard_fact);
  auto base_dim = baseline.RegisterColumn("dim", "key", values, *zipf);
  auto shard_dim = sharded.RegisterColumn("dim", "key", values, *zipf);
  ASSERT_TRUE(base_dim.ok());
  ASSERT_TRUE(shard_dim.ok());
  EXPECT_EQ(*base_dim, *shard_dim);

  auto drive = [&](auto&& record_insert) {
    // Tail value 45 becomes the hottest value; the calm column sees a
    // trickle below the drift threshold.
    for (int i = 0; i < 1500; ++i) record_insert(0u, int64_t{45});
    for (int i = 0; i < 3; ++i) record_insert(1u, int64_t{7});
  };
  drive([&](RefreshColumnId id, int64_t v) {
    ASSERT_TRUE(baseline.RecordInsert(id, v).ok());
  });
  drive([&](RefreshColumnId id, int64_t v) {
    ASSERT_TRUE(sharded.RecordInsert(id, v).ok());
  });

  auto base_tick = baseline.Tick();
  auto shard_tick = sharded.Tick();
  ASSERT_TRUE(base_tick.ok());
  ASSERT_TRUE(shard_tick.ok());
  EXPECT_EQ(base_tick->deltas_applied, shard_tick->deltas_applied);
  EXPECT_EQ(base_tick->columns_rebuilt, shard_tick->columns_rebuilt);
  EXPECT_EQ(base_tick->columns_touched, shard_tick->columns_touched);
  EXPECT_EQ(base_tick->changed, shard_tick->changed);
  EXPECT_EQ(base_tick->republished, shard_tick->republished);

  RefreshStats base_stats = baseline.stats();
  ShardedRefreshStats shard_stats = sharded.stats();
  EXPECT_EQ(base_stats.deltas_applied, shard_stats.total.deltas_applied);
  EXPECT_EQ(base_stats.rebuilds_total, shard_stats.total.rebuilds_total);
  EXPECT_EQ(base_stats.rebuilds_drift, shard_stats.total.rebuilds_drift);
  EXPECT_EQ(base_stats.rebuilds_self_join,
            shard_stats.total.rebuilds_self_join);
  EXPECT_EQ(base_stats.republish_count, shard_stats.total.republish_count);

  // Published snapshots serve bit-identical estimates: CompileMerged of one
  // catalog IS Compile of it, and the shard applied/rebuilt identically.
  auto base_snapshot = baseline_store.Current();
  auto shard_snapshot = sharded_store.Current();
  EXPECT_EQ(base_snapshot->source_version(), shard_snapshot->source_version());

  auto specs_for = [&](const CatalogSnapshot& snapshot) {
    auto fact = snapshot.Resolve("fact", "key");
    auto dim = snapshot.Resolve("dim", "key");
    EXPECT_TRUE(fact.ok());
    EXPECT_TRUE(dim.ok());
    std::vector<EstimateSpec> specs;
    specs.push_back(EstimateSpec::Equality(*fact, Value(int64_t{45})));
    specs.push_back(EstimateSpec::Equality(*fact, Value(int64_t{1})));
    specs.push_back(EstimateSpec::Equality(*dim, Value(int64_t{7})));
    specs.push_back(EstimateSpec::Join(*fact, *dim));
    return specs;
  };
  std::vector<Result<double>> base_estimates =
      EstimateBatch(*base_snapshot, specs_for(*base_snapshot));
  std::vector<Result<double>> shard_estimates =
      EstimateBatch(*shard_snapshot, specs_for(*shard_snapshot));
  ASSERT_EQ(base_estimates.size(), shard_estimates.size());
  for (size_t i = 0; i < base_estimates.size(); ++i) {
    ASSERT_TRUE(base_estimates[i].ok());
    ASSERT_TRUE(shard_estimates[i].ok());
    EXPECT_EQ(*base_estimates[i], *shard_estimates[i]) << "spec " << i;
  }

  // An idle tick skips publication on both sides identically.
  auto base_idle = baseline.Tick();
  auto shard_idle = sharded.Tick();
  ASSERT_TRUE(base_idle.ok());
  ASSERT_TRUE(shard_idle.ok());
  EXPECT_FALSE(base_idle->republished);
  EXPECT_FALSE(shard_idle->republished);
  EXPECT_EQ(baseline.stats().ticks_skipped,
            sharded.stats().total.ticks_skipped);
}

TEST(ShardedRefreshManagerTest, PerShardTelemetryCarriesShardLabels) {
  telemetry::SetEnabled(true);
  SnapshotStore store;
  ShardedRefreshOptions options;
  options.shards = 2;
  ShardedRefreshManager manager(&store, options);
  auto id = RegisterSkewed(&manager, "t", "a");
  ASSERT_TRUE(id.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*id, 5).ok());
  }
  ASSERT_TRUE(manager.Tick().ok());

  const telemetry::MetricsSnapshot snapshot =
      telemetry::MetricRegistry::Global().Collect();
  for (const char* shard : {"0", "1"}) {
    const telemetry::MetricSnapshot* span_count = snapshot.Find(
        "hops_span_total",
        telemetry::LabelSet{{"span", "Refresh.ShardTick"}, {"shard", shard}});
    ASSERT_NE(span_count, nullptr) << "shard " << shard;
    EXPECT_GE(span_count->value, 1.0);  // every tick spans every shard
  }
  const size_t owner = manager.ShardOfColumn(*id);
  const telemetry::MetricSnapshot* deltas = snapshot.Find(
      "hops_refresh_shard_deltas_total",
      telemetry::LabelSet{{"shard", std::to_string(owner)}});
  ASSERT_NE(deltas, nullptr);
  EXPECT_GE(deltas->value, 10.0);
}

TEST(ShardedRefreshManagerTest, CloseLogsFailsFurtherRecords) {
  SnapshotStore store;
  ShardedRefreshOptions options;
  options.shards = 2;
  ShardedRefreshManager manager(&store, options);
  auto id = RegisterSkewed(&manager, "t", "a");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(manager.RecordInsert(*id, 1).ok());
  manager.CloseLogs();
  EXPECT_TRUE(manager.RecordInsert(*id, 1).IsResourceExhausted());
  std::vector<UpdateRecord> batch = {UpdateRecord{*id, 1, +1.0}};
  EXPECT_TRUE(manager.RecordBatch(batch).IsResourceExhausted());
  // Queued records remain drainable by the consumer.
  auto report = manager.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deltas_applied, 1u);
}

}  // namespace
}  // namespace hops
