// RefreshManager with RefreshOptions::shards > 1 (DESIGN.md §8 "Apply
// partitions"): shards split only each tick's apply step, so registration,
// ids, feedback, rebuild picks and publication behave exactly as at one
// shard. The identity test pins the headline guarantee: the shard count
// changes no tick report, no counter and no estimate bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "estimator/serving.h"
#include "refresh/refresh_manager.h"
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
Result<RefreshColumnId> RegisterSkewed(RefreshManager* manager,
                                       const std::string& table,
                                       const std::string& column) {
  std::vector<int64_t> values = TailValues(1, 20);
  std::vector<double> freqs(20, 10.0);
  freqs[0] = 400.0;
  freqs[1] = 200.0;
  return manager->RegisterColumn(table, column, values, freqs);
}

constexpr double kSkewedMass = 400.0 + 200.0 + 18 * 10.0;

RefreshOptions WithShards(size_t shards) {
  RefreshOptions options;
  options.shards = shards;
  return options;
}

// One manager with the catalog and store it publishes through.
struct Rig {
  explicit Rig(const RefreshOptions& options)
      : manager(&catalog, &store, options) {}
  Catalog catalog;
  SnapshotStore store;
  RefreshManager manager;
};

TEST(ShardedRefreshManagerTest, ShardsClampToAtLeastOne) {
  Rig rig(WithShards(0));
  EXPECT_EQ(rig.manager.options().shards, 1u);
  EXPECT_EQ(rig.manager.ShardOfColumn(7), 0u);
}

TEST(ShardedRefreshManagerTest, RegisterLookupAndPublishAcrossShards) {
  Rig rig(WithShards(3));
  RefreshManager& manager = rig.manager;

  std::vector<RefreshColumnId> ids;
  for (int c = 0; c < 6; ++c) {
    auto id = RegisterSkewed(&manager, "t" + std::to_string(c % 2),
                             "col" + std::to_string(c));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<RefreshColumnId>(c));  // dense ids
    ids.push_back(*id);
  }
  EXPECT_EQ(manager.num_columns(), 6u);

  // Lookup round-trips every id, regardless of its apply partition.
  for (int c = 0; c < 6; ++c) {
    auto looked_up =
        manager.Lookup("t" + std::to_string(c % 2), "col" + std::to_string(c));
    ASSERT_TRUE(looked_up.ok());
    EXPECT_EQ(*looked_up, ids[static_cast<size_t>(c)]);
  }
  EXPECT_TRUE(manager.Lookup("t0", "missing").status().IsNotFound());

  // The published snapshot holds every column.
  auto snapshot = rig.store.Current();
  for (int c = 0; c < 6; ++c) {
    EXPECT_TRUE(snapshot->Contains("t" + std::to_string(c % 2),
                                   "col" + std::to_string(c)));
  }

  EXPECT_TRUE(
      RegisterSkewed(&manager, "t0", "col0").status().IsAlreadyExists());
  std::vector<int64_t> values = {1, 2};
  std::vector<double> short_freqs = {1.0};
  EXPECT_TRUE(manager.RegisterColumn("t9", "bad", values, short_freqs)
                  .status()
                  .IsInvalidArgument());
}

uint64_t ShardDeltasTotal(size_t shard) {
  return telemetry::MetricRegistry::Global()
      .GetCounter("hops_refresh_shard_deltas_total",
                  "Update records applied per refresh apply partition.",
                  telemetry::LabelSet{{"shard", std::to_string(shard)}})
      ->Value();
}

// There is one log; a shard's "log" is its bucket of each drain. Every
// record waits in the one queue, then is applied — and counted — by the
// partition its column hashes to.
TEST(ShardedRefreshManagerTest, RecordsRouteToTheOwningShardLog) {
  telemetry::SetEnabled(true);
  Rig rig(WithShards(4));
  RefreshManager& manager = rig.manager;

  std::vector<RefreshColumnId> ids;
  for (int c = 0; c < 8; ++c) {
    auto id = RegisterSkewed(&manager, "t", "col" + std::to_string(c));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  std::vector<uint64_t> before(4), expected(4, 0);
  for (size_t s = 0; s < 4; ++s) before[s] = ShardDeltasTotal(s);
  for (RefreshColumnId id : ids) {
    ASSERT_TRUE(manager.RecordInsert(id, 1).ok());
    ASSERT_TRUE(manager.RecordDelete(id, 3).ok());
    expected[manager.ShardOfColumn(id)] += 2;
  }
  EXPECT_EQ(manager.update_log().depth(), 2 * ids.size());
  EXPECT_EQ(manager.pending_update_records(), 2 * ids.size());

  // One tick drains the log and applies everything, each record in its
  // owner's partition.
  auto report = manager.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deltas_applied, 2 * ids.size());
  EXPECT_EQ(manager.pending_update_records(), 0u);
  EXPECT_EQ(manager.stats().deltas_applied, 2 * ids.size());
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ShardDeltasTotal(s) - before[s], expected[s]) << "shard " << s;
  }
}

TEST(ShardedRefreshManagerTest, RecordBatchRoutesAndAppliesByShard) {
  Rig rig(WithShards(2));
  RefreshManager& manager = rig.manager;
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
  // partitioned apply preserved values and weights.
  auto snapshot = rig.store.Current();
  auto col_a = snapshot->Resolve("t", "a");
  auto col_b = snapshot->Resolve("t", "b");
  ASSERT_TRUE(col_a.ok());
  ASSERT_TRUE(col_b.ok());
  EXPECT_DOUBLE_EQ(snapshot->stats(*col_a).num_tuples, kSkewedMass + 6.0);
  EXPECT_DOUBLE_EQ(snapshot->stats(*col_b).num_tuples, kSkewedMass + 1.0);
}

TEST(ShardedRefreshManagerTest, UnknownIdsAreCountedByTheHashOwnerShard) {
  Rig rig(WithShards(2));
  RefreshManager& manager = rig.manager;
  ASSERT_TRUE(RegisterSkewed(&manager, "t", "a").ok());

  // Ids are validated at apply time, in whichever bucket they hash to.
  ASSERT_TRUE(manager.RecordInsert(999, 1).ok());
  std::vector<UpdateRecord> batch = {UpdateRecord{12345, 7, +1.0}};
  ASSERT_TRUE(manager.RecordBatch(batch).ok());

  auto report = manager.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deltas_applied, 0u);
  EXPECT_EQ(manager.stats().unknown_column_records, 2u);
}

TEST(ShardedRefreshManagerTest, TickSkipsPublicationWhenNothingChanged) {
  Rig rig(WithShards(2));
  RefreshManager& manager = rig.manager;
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());
  const uint64_t version_after_register = rig.store.Current()->source_version();

  // Idle tick: no publication, no RCU churn.
  auto idle = manager.Tick();
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle->changed);
  EXPECT_FALSE(idle->republished);
  EXPECT_EQ(rig.store.Current()->source_version(), version_after_register);

  // Busy tick: exactly one publication covering apply + rebuild.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*id, 5).ok());
  }
  const uint64_t republish_before = manager.stats().republish_count;
  auto busy = manager.Tick();
  ASSERT_TRUE(busy.ok());
  EXPECT_TRUE(busy->changed);
  EXPECT_TRUE(busy->republished);
  EXPECT_EQ(busy->deltas_applied, 60u);
  EXPECT_EQ(manager.stats().republish_count, republish_before + 1);

  RefreshStats stats = manager.stats();
  EXPECT_EQ(stats.ticks, 2u);
  EXPECT_EQ(stats.ticks_skipped, 1u);
}

// Idle ticks over columns whose fresh builds already score at or above
// the rebuild threshold (Zipf(0.5) over 1000 values, β = 16): a rebuild
// would reproduce each histogram, so no tick rebuilds or publishes — at
// any shard count.
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
    RefreshOptions options = WithShards(shards);
    options.statistics.num_buckets = 16;
    Rig rig(options);
    RefreshManager& manager = rig.manager;
    for (int c = 0; c < 8; ++c) {
      ASSERT_TRUE(
          manager.RegisterColumn("t", "col" + std::to_string(c), values, *freqs)
              .ok());
    }
    for (const ColumnStalenessReport& report : manager.ScoreColumns()) {
      ASSERT_GE(report.score.total, options.staleness.rebuild_score_threshold);
      EXPECT_TRUE(report.score.signals.unchanged_since_build);
      EXPECT_FALSE(report.score.rebuild_recommended);
    }
    const auto snapshot_before = rig.store.Current();
    const uint64_t republish_before = manager.stats().republish_count;

    constexpr uint64_t kTicks = 10;
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
    EXPECT_EQ(rig.store.Current().get(), snapshot_before.get());
  }
}

TEST(ShardedRefreshManagerTest, ForceRebuildRebuildsAcrossShardsOnce) {
  Rig rig(WithShards(3));
  RefreshManager& manager = rig.manager;
  std::vector<RefreshColumnId> ids;
  for (int c = 0; c < 5; ++c) {
    auto id = RegisterSkewed(&manager, "t", "col" + std::to_string(c));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const uint64_t republish_before = manager.stats().republish_count;
  ASSERT_TRUE(manager.ForceRebuild(ids).ok());
  RefreshStats stats = manager.stats();
  EXPECT_EQ(stats.rebuilds_forced, 5u);
  EXPECT_EQ(stats.rebuilds_total, 5u);
  // One publication for the whole forced batch.
  EXPECT_EQ(stats.republish_count, republish_before + 1);

  std::vector<RefreshColumnId> bad = {424242};
  EXPECT_TRUE(manager.ForceRebuild(bad).IsInvalidArgument());
}

TEST(ShardedRefreshManagerTest, ScoreColumnsMergesShardsWorstFirst) {
  RefreshOptions options = WithShards(3);
  // Keep the churn visible to ScoreColumns: no rebuild may fire this tick.
  options.maintenance.rebuild_drift_fraction = 1e9;
  options.staleness.rebuild_score_threshold = 1e9;
  Rig rig(options);
  RefreshManager& manager = rig.manager;
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
  for (const ColumnStalenessReport& r : reports) {
    auto looked_up = manager.Lookup(r.table, r.column);
    ASSERT_TRUE(looked_up.ok());
    EXPECT_EQ(*looked_up, r.id);
  }
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_GE(reports[i - 1].score.total, reports[i].score.total);
  }
}

// Feedback folds into the one column it names, once — it is not fanned out
// per shard.
TEST(ShardedRefreshManagerTest, FeedbackReachesTheOwningShardOnly) {
  Rig rig(WithShards(3));
  RefreshManager& manager = rig.manager;
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());

  EstimationFeedbackSink* sink = &manager;
  sink->ReportEstimationError("orders", "customer_id", 100.0, 1000.0);
  sink->ReportEstimationError("orders", "unknown", 1.0, 2.0);  // ignored

  EXPECT_EQ(manager.stats().feedback_reports, 1u);
  std::vector<ColumnStalenessReport> reports = manager.ScoreColumns();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GT(reports[0].score.signals.feedback_error, 0.5);
}

// Under rebuild-budget pressure (max_rebuilds_per_tick = 1, two
// rebuild-worthy columns on different shards) the one global worst-first
// list gives the slot to the hotter column; the other waits one tick.
TEST(ShardedRefreshManagerTest, JointBudgetPrefersTheHotRelation) {
  RefreshOptions options = WithShards(2);
  options.max_rebuilds_per_tick = 1;
  // Isolate the feedback signal so each score is exactly the reported
  // q-error EWMA and both columns cross the rebuild threshold.
  options.staleness.weight_drift = 0.0;
  options.staleness.weight_self_join = 0.0;
  options.maintenance.rebuild_drift_fraction = 1e9;
  Rig rig(options);
  RefreshManager& manager = rig.manager;

  // Register columns until both shards own one; keep one column per shard,
  // each in its own relation.
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
  const RefreshColumnId hot = on_shard[1];
  const RefreshColumnId warm = on_shard[0];
  const std::string hot_table = "rel" + std::to_string(hot);
  const std::string warm_table = "rel" + std::to_string(warm);

  // Hot: q-error 0.9; warm: 0.2 — both above the 0.10 threshold. Each takes
  // one delta first (drift weighted out): feedback alone never asks for a
  // rebuild of a column nothing changed since its build.
  ASSERT_TRUE(manager.RecordInsert(hot, 1).ok());
  ASSERT_TRUE(manager.RecordInsert(warm, 1).ok());
  EstimationFeedbackSink* sink = &manager;
  sink->ReportEstimationError(hot_table, "col" + std::to_string(hot), 100.0,
                              1000.0);
  sink->ReportEstimationError(warm_table, "col" + std::to_string(warm), 120.0,
                              100.0);

  auto rebuilds_of = [&](RefreshColumnId id) {
    for (const ColumnStalenessReport& r : manager.ScoreColumns()) {
      if (r.id == id) return r.rebuilds;
    }
    ADD_FAILURE() << "id " << id << " not scored";
    return uint64_t{0};
  };

  auto report = manager.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->columns_rebuilt, 1u);  // the global budget bites
  EXPECT_EQ(rebuilds_of(hot), 1u);
  EXPECT_EQ(rebuilds_of(warm), 0u);
  EXPECT_EQ(manager.stats().rebuilds_feedback, 1u);

  // The next tick serves the deferred warm column (its EWMA persists).
  auto next = manager.Tick();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->columns_rebuilt, 1u);
  EXPECT_EQ(rebuilds_of(warm), 1u);
  EXPECT_EQ(manager.stats().rebuilds_feedback, 2u);
}

uint64_t Fnv1a(const std::vector<double>& values) {
  uint64_t hash = 14695981039346656037ull;
  for (double value : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (size_t byte = 0; byte < sizeof(bits); ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

// FNV-1a of the four estimates below, served after one tick by the
// unsharded RefreshManager as it stood before apply partitions existed.
constexpr uint64_t kUnshardedEstimateFingerprint = 0x8ad8bd6790a7089full;

// The headline identity: the shard count changes no decision. A drifting
// Zipf `fact` column plus a calm `dim` column, run at shards ∈ {1, 2, 4},
// give the same tick reports, the same counters, the same source version
// and bit-identical estimates — and shards = 1 still serves exactly what
// the unsharded manager served.
TEST(ShardedRefreshManagerTest, ShardsOneMatchesRefreshManagerExactly) {
  ZipfParams params;
  params.total = 5000.0;
  params.num_values = 50;
  params.skew = 1.0;
  auto zipf = ZipfFrequenciesInteger(params);
  ASSERT_TRUE(zipf.ok());
  const std::vector<int64_t> values = TailValues(1, params.num_values);

  struct Run {
    std::vector<RefreshTickReport> ticks;
    RefreshStats stats;
    uint64_t source_version = 0;
    std::vector<double> estimates;
  };
  auto run = [&](size_t shards) {
    RefreshOptions options = WithShards(shards);
    options.statistics.num_buckets = 6;
    options.maintenance.rebuild_drift_fraction = 0.05;
    options.max_rebuilds_per_tick = 2;
    Rig rig(options);
    RefreshManager& manager = rig.manager;
    Run out;
    auto fact = manager.RegisterColumn("fact", "key", values, *zipf);
    auto dim = manager.RegisterColumn("dim", "key", values, *zipf);
    EXPECT_TRUE(fact.ok());
    EXPECT_TRUE(dim.ok());
    // Tail value 45 becomes the hottest value; the calm column sees a
    // trickle below the drift threshold.
    for (int i = 0; i < 1500; ++i) {
      EXPECT_TRUE(manager.RecordInsert(*fact, 45).ok());
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(manager.RecordInsert(*dim, 7).ok());
    }
    auto busy = manager.Tick();
    EXPECT_TRUE(busy.ok());
    if (busy.ok()) out.ticks.push_back(*busy);

    auto snapshot = rig.store.Current();
    out.source_version = snapshot->source_version();
    auto fact_id = snapshot->Resolve("fact", "key");
    auto dim_id = snapshot->Resolve("dim", "key");
    EXPECT_TRUE(fact_id.ok());
    EXPECT_TRUE(dim_id.ok());
    std::vector<EstimateSpec> specs;
    specs.push_back(EstimateSpec::Equality(*fact_id, Value(int64_t{45})));
    specs.push_back(EstimateSpec::Equality(*fact_id, Value(int64_t{1})));
    specs.push_back(EstimateSpec::Equality(*dim_id, Value(int64_t{7})));
    specs.push_back(EstimateSpec::Join(*fact_id, *dim_id));
    for (const Result<double>& estimate : EstimateBatch(*snapshot, specs)) {
      EXPECT_TRUE(estimate.ok());
      out.estimates.push_back(estimate.ok() ? *estimate : -1.0);
    }

    // An idle tick skips publication at every shard count.
    auto idle = manager.Tick();
    EXPECT_TRUE(idle.ok());
    if (idle.ok()) out.ticks.push_back(*idle);
    out.stats = manager.stats();
    return out;
  };

  const Run base = run(1);
  ASSERT_EQ(base.ticks.size(), 2u);
  EXPECT_EQ(base.ticks[0].columns_rebuilt, 1u);
  EXPECT_TRUE(base.ticks[0].republished);
  EXPECT_FALSE(base.ticks[1].republished);
  ASSERT_EQ(base.estimates.size(), 4u);
  EXPECT_EQ(Fnv1a(base.estimates), kUnshardedEstimateFingerprint);

  for (const size_t shards : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const Run other = run(shards);
    ASSERT_EQ(other.ticks.size(), base.ticks.size());
    for (size_t t = 0; t < base.ticks.size(); ++t) {
      EXPECT_EQ(other.ticks[t].deltas_applied, base.ticks[t].deltas_applied);
      EXPECT_EQ(other.ticks[t].columns_touched, base.ticks[t].columns_touched);
      EXPECT_EQ(other.ticks[t].columns_rebuilt, base.ticks[t].columns_rebuilt);
      EXPECT_EQ(other.ticks[t].changed, base.ticks[t].changed);
      EXPECT_EQ(other.ticks[t].republished, base.ticks[t].republished);
    }
    const RefreshStats& a = base.stats;
    const RefreshStats& b = other.stats;
    EXPECT_EQ(b.columns_tracked, a.columns_tracked);
    EXPECT_EQ(b.deltas_applied, a.deltas_applied);
    EXPECT_EQ(b.unknown_column_records, a.unknown_column_records);
    EXPECT_EQ(b.ticks, a.ticks);
    EXPECT_EQ(b.ticks_skipped, a.ticks_skipped);
    EXPECT_EQ(b.rebuilds_total, a.rebuilds_total);
    EXPECT_EQ(b.rebuilds_drift, a.rebuilds_drift);
    EXPECT_EQ(b.rebuilds_self_join, a.rebuilds_self_join);
    EXPECT_EQ(b.rebuilds_feedback, a.rebuilds_feedback);
    EXPECT_EQ(b.rebuilds_forced, a.rebuilds_forced);
    EXPECT_EQ(b.republish_count, a.republish_count);
    EXPECT_EQ(b.feedback_reports, a.feedback_reports);
    EXPECT_EQ(b.tuning_observations, a.tuning_observations);
    EXPECT_EQ(b.tuning_adjustments, a.tuning_adjustments);
    EXPECT_EQ(b.tuning_promotions, a.tuning_promotions);
    EXPECT_EQ(b.log.enqueued, a.log.enqueued);
    EXPECT_EQ(b.log.drained, a.log.drained);
    EXPECT_EQ(b.log.rejected, a.log.rejected);
    EXPECT_EQ(b.log.producer_waits, a.log.producer_waits);
    EXPECT_EQ(b.log.high_water, a.log.high_water);
    EXPECT_EQ(other.source_version, base.source_version);
    ASSERT_EQ(other.estimates.size(), base.estimates.size());
    for (size_t i = 0; i < base.estimates.size(); ++i) {
      EXPECT_EQ(other.estimates[i], base.estimates[i]) << "spec " << i;
    }
  }
}

TEST(ShardedRefreshManagerTest, PerShardTelemetryCarriesShardLabels) {
  telemetry::SetEnabled(true);
  Rig rig(WithShards(2));
  RefreshManager& manager = rig.manager;
  std::vector<uint64_t> owned(2, 0);
  for (int c = 0; c < 8; ++c) {
    auto id = RegisterSkewed(&manager, "t", "col" + std::to_string(c));
    ASSERT_TRUE(id.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(manager.RecordInsert(*id, 5).ok());
    }
    owned[manager.ShardOfColumn(*id)] += 10;
  }
  ASSERT_TRUE(manager.Tick().ok());

  const telemetry::MetricsSnapshot snapshot =
      telemetry::MetricRegistry::Global().Collect();
  for (size_t shard = 0; shard < owned.size(); ++shard) {
    if (owned[shard] == 0) continue;
    const std::string label = std::to_string(shard);
    const telemetry::MetricSnapshot* span_count = snapshot.Find(
        "hops_span_total",
        telemetry::LabelSet{{"span", "Refresh.ShardTick"}, {"shard", label}});
    ASSERT_NE(span_count, nullptr) << "shard " << shard;
    EXPECT_GE(span_count->value, 1.0);
    const telemetry::MetricSnapshot* deltas = snapshot.Find(
        "hops_refresh_shard_deltas_total", telemetry::LabelSet{{"shard", label}});
    ASSERT_NE(deltas, nullptr) << "shard " << shard;
    EXPECT_GE(deltas->value, static_cast<double>(owned[shard]));
  }
}

TEST(ShardedRefreshManagerTest, CloseLogsFailsFurtherRecords) {
  Rig rig(WithShards(2));
  RefreshManager& manager = rig.manager;
  auto id = RegisterSkewed(&manager, "t", "a");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(manager.RecordInsert(*id, 1).ok());
  manager.update_log().Close();
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
