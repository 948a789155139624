// RecoveryManager integration (src/storage/recovery.h): the full durable
// lifecycle against real RefreshManagers — cold start, checkpoint, clean
// shutdown, crash-without-snapshot, snapshot fallback, retention, and the
// headline guarantee that a warm restart answers estimates bit-identically,
// including with self-tuning on (range estimates of a tuned column under
// the weaker contract of DESIGN.md §13).

#include "storage/recovery.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "estimator/serving.h"
#include "storage/io.h"
#include "storage/snapshot_file.h"

namespace hops::storage {
namespace {

std::string MakeTempDir(const std::string& tag) {
  std::string templ = ::testing::TempDir() + "hops_" + tag + "_XXXXXX";
  const char* dir = ::mkdtemp(templ.data());
  EXPECT_NE(dir, nullptr);
  return templ;
}

// One serving stack's worth of state, constructible repeatedly to model
// process restarts against the same data directory.
struct Stack {
  Catalog catalog;
  SnapshotStore store;
  std::unique_ptr<RefreshManager> manager;

  Stack() : Stack(Options()) {}
  explicit Stack(const RefreshOptions& options) {
    manager = std::make_unique<RefreshManager>(&catalog, &store, options);
  }

  static RefreshOptions Options() {
    RefreshOptions options;
    options.statistics.num_buckets = 8;
    return options;
  }

  void RegisterDemoColumns() {
    std::vector<int64_t> values;
    std::vector<double> uniform, skewed;
    for (int64_t v = 0; v < 40; ++v) {
      values.push_back(v);
      uniform.push_back(25.0);
      skewed.push_back(static_cast<double>(v + 1));
    }
    ASSERT_TRUE(
        manager->RegisterColumn("orders", "customer_id", values, uniform)
            .ok());
    ASSERT_TRUE(
        manager->RegisterColumn("orders", "item_id", values, skewed).ok());
  }

  // Equality estimates over a probe set, from the published RCU snapshot —
  // the exact bytes a /estimate response would be computed from.
  std::vector<double> Estimates() {
    const std::shared_ptr<const CatalogSnapshot> snapshot = store.Current();
    std::vector<EstimateSpec> specs;
    for (const char* column : {"customer_id", "item_id"}) {
      Result<ColumnId> id = snapshot->Resolve("orders", column);
      EXPECT_TRUE(id.ok());
      for (int64_t v : {0, 3, 7, 11, 23, 29, 39}) {
        specs.push_back(EstimateSpec::Equality(*id, Value(v)));
      }
    }
    std::vector<Result<double>> results = EstimateBatch(*snapshot, specs);
    std::vector<double> values;
    for (const Result<double>& r : results) {
      EXPECT_TRUE(r.ok());
      values.push_back(r.ok() ? r.ValueOrDie() : -1);
    }
    return values;
  }
};

std::unique_ptr<RecoveryManager> OpenStore(const std::string& dir,
                                           size_t keep_snapshots = 2) {
  StorageOptions options;
  options.data_dir = dir;
  options.keep_snapshots = keep_snapshots;
  auto opened = RecoveryManager::Open(options);
  EXPECT_TRUE(opened.ok()) << opened.status().message();
  return std::move(opened).ValueOrDie();
}

std::vector<UpdateRecord> Churn(RefreshColumnId column, int n, int seed) {
  std::vector<UpdateRecord> records;
  for (int i = 0; i < n; ++i) {
    UpdateRecord r;
    r.column = column;
    r.value = (seed + 7 * i) % 40;
    r.weight = (i % 5 == 0) ? -1.0 : +1.0;
    records.push_back(r);
  }
  return records;
}

TEST(RecoveryTest, CleanShutdownThenWarmRestartIsBitIdentical) {
  const std::string dir = MakeTempDir("recclean");
  std::vector<double> before;
  {
    Stack stack;
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    EXPECT_FALSE(store->report().snapshot_loaded);  // cold start
    stack.RegisterDemoColumns();

    const RefreshColumnId id =
        stack.manager->Lookup("orders", "customer_id").ValueOrDie();
    ASSERT_TRUE(stack.manager->RecordBatch(Churn(id, 100, 3)).ok());
    ASSERT_TRUE(stack.manager->ApplyPendingDeltas().ok());
    before = stack.Estimates();

    ASSERT_TRUE(store->CloseAndSnapshot().ok());
    ASSERT_TRUE(store->CloseAndSnapshot().ok());  // idempotent
  }
  {
    Stack stack;
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    const RecoveryReport& report = store->report();
    EXPECT_TRUE(report.snapshot_loaded);
    EXPECT_EQ(report.wal_delta_records, 0u);  // snapshot covered everything
    EXPECT_EQ(stack.manager->num_columns(), 2u);

    // The headline guarantee, bit-for-bit (EXPECT_EQ on doubles, not NEAR).
    EXPECT_EQ(before, stack.Estimates());
  }
}

// Range estimates over both demo columns, as raw doubles.
std::vector<double> RangeEstimates(const CatalogSnapshot& snapshot) {
  std::vector<EstimateSpec> specs;
  for (const char* column : {"customer_id", "item_id"}) {
    Result<ColumnId> id = snapshot.Resolve("orders", column);
    EXPECT_TRUE(id.ok());
    for (const RangeBounds bounds : {RangeBounds{5, 20}, RangeBounds{0, 9},
                                     RangeBounds{21, 39}}) {
      specs.push_back(EstimateSpec::Range(*id, bounds));
    }
  }
  std::vector<double> values;
  for (const Result<double>& r : EstimateBatch(snapshot, specs)) {
    EXPECT_TRUE(r.ok());
    values.push_back(r.ok() ? r.ValueOrDie() : -1);
  }
  return values;
}

// Self-tuning and durability in one deterministic run: churn and skewed
// equality feedback tune the columns in place, range feedback installs a
// refinement tree in each default bucket, and a checkpoint captures the
// tuned histograms. A restart serves the same equality bits. The tree is
// soft state that the image does not carry (DESIGN.md §13), so a recovered
// range estimate equals, bit for bit, the estimate from the pre-checkpoint
// catalog histogram with its tree cleared — not the pre-checkpoint one.
TEST(RecoveryTest, SelfTunedStateRecoversWithoutTheRefinementTree) {
  const std::string dir = MakeTempDir("rectune");
  RefreshOptions options = Stack::Options();
  options.tuning.enabled = true;
  // Keep the tuned histograms in place: no rebuild may replace them.
  options.maintenance.rebuild_drift_fraction = 1e18;
  options.staleness.rebuild_score_threshold = 1e18;
  std::vector<double> untuned, before, ranges_before, ranges_without_tree;
  {
    Stack stack(options);
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    stack.RegisterDemoColumns();
    for (const char* column : {"customer_id", "item_id"}) {
      const RefreshColumnId id =
          stack.manager->Lookup("orders", column).ValueOrDie();
      ASSERT_TRUE(stack.manager->RecordBatch(Churn(id, 60, 3)).ok());
    }
    ASSERT_TRUE(stack.manager->Tick().ok());
    untuned = stack.Estimates();
    uint64_t tuning_changes = 0;
    for (int round = 0; round < 8 && tuning_changes == 0; ++round) {
      const std::shared_ptr<const CatalogSnapshot> snapshot =
          stack.store.Current();
      for (const char* column : {"customer_id", "item_id"}) {
        const ColumnId id = snapshot->Resolve("orders", column).ValueOrDie();
        for (int64_t v : {3, 11, 29}) {
          const EstimateSpec spec = EstimateSpec::Equality(id, Value(v));
          const double estimated = EstimateOne(*snapshot, spec).ValueOrDie();
          ASSERT_TRUE(ReportEstimateOutcome(*snapshot, spec, estimated,
                                            400.0 + 10.0 * v,
                                            stack.manager.get())
                          .ok());
        }
      }
      ASSERT_TRUE(stack.manager->Tick().ok());
      const RefreshStats stats = stack.manager->stats();
      tuning_changes = stats.tuning_adjustments + stats.tuning_promotions;
    }
    ASSERT_GT(tuning_changes, 0u) << "feedback never tuned a column";

    // Range feedback until both default buckets carry a refinement tree.
    auto trees = [&stack] {
      size_t installed = 0;
      for (const char* column : {"customer_id", "item_id"}) {
        const ColumnStatistics stats =
            stack.catalog.GetColumnStatistics("orders", column).ValueOrDie();
        if (stats.histogram.refinement() != nullptr) ++installed;
      }
      return installed;
    };
    for (int round = 0; round < 8 && trees() < 2; ++round) {
      const std::shared_ptr<const CatalogSnapshot> snapshot =
          stack.store.Current();
      for (const char* column : {"customer_id", "item_id"}) {
        const ColumnId id = snapshot->Resolve("orders", column).ValueOrDie();
        const EstimateSpec spec = EstimateSpec::Range(id, RangeBounds{5, 20});
        const double estimated = EstimateOne(*snapshot, spec).ValueOrDie();
        ASSERT_TRUE(ReportEstimateOutcome(*snapshot, spec, estimated,
                                          3.0 * estimated + 50.0,
                                          stack.manager.get())
                        .ok());
      }
      ASSERT_TRUE(stack.manager->Tick().ok());
    }
    ASSERT_EQ(trees(), 2u) << "range feedback installed no refinement tree";
    before = stack.Estimates();
    ranges_before = RangeEstimates(*stack.store.Current());

    // What a restart must serve for ranges: the same catalog histograms,
    // trees cleared.
    Catalog without_tree;
    for (const char* column : {"customer_id", "item_id"}) {
      ColumnStatistics stats =
          stack.catalog.GetColumnStatistics("orders", column).ValueOrDie();
      stats.histogram.SetRefinement(nullptr);
      ASSERT_TRUE(
          without_tree.PutColumnStatistics("orders", column, stats).ok());
    }
    ranges_without_tree =
        RangeEstimates(*CatalogSnapshot::Compile(without_tree).ValueOrDie());
    ASSERT_TRUE(store->WriteSnapshot().ok());
  }
  EXPECT_NE(untuned, before) << "tuning moved no estimate";
  EXPECT_NE(ranges_before, ranges_without_tree)
      << "the refinement trees moved no range estimate";
  {
    Stack stack(options);
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    EXPECT_TRUE(store->report().snapshot_loaded);
    EXPECT_EQ(store->report().wal_delta_records, 0u);
    EXPECT_EQ(before, stack.Estimates());
    EXPECT_EQ(ranges_without_tree, RangeEstimates(*stack.store.Current()));
  }
}

TEST(RecoveryTest, CrashWithoutSnapshotReplaysEverythingFromWal) {
  const std::string dir = MakeTempDir("reccrash");
  std::vector<double> before;
  {
    Stack stack;
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    stack.RegisterDemoColumns();
    const RefreshColumnId id =
        stack.manager->Lookup("orders", "item_id").ValueOrDie();
    ASSERT_TRUE(stack.manager->RecordBatch(Churn(id, 64, 11)).ok());
    ASSERT_TRUE(stack.manager->ApplyPendingDeltas().ok());
    before = stack.Estimates();
    // No CloseAndSnapshot: the RecoveryManager is simply destroyed, like a
    // process that died. Every acknowledged record is already in the WAL.
  }
  {
    Stack stack;
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    const RecoveryReport& report = store->report();
    EXPECT_FALSE(report.snapshot_loaded);
    EXPECT_EQ(report.wal_registrations, 2u);
    EXPECT_EQ(report.wal_delta_records, 64u);
    EXPECT_EQ(stack.manager->num_columns(), 2u);
    EXPECT_EQ(before, stack.Estimates());
  }
}

TEST(RecoveryTest, DeltasAfterCheckpointComeFromWalNotSnapshot) {
  const std::string dir = MakeTempDir("rectail");
  std::vector<double> before;
  {
    Stack stack;
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    stack.RegisterDemoColumns();
    const RefreshColumnId id =
        stack.manager->Lookup("orders", "customer_id").ValueOrDie();
    ASSERT_TRUE(stack.manager->RecordBatch(Churn(id, 32, 1)).ok());
    ASSERT_TRUE(store->WriteSnapshot().ok());
    // Post-checkpoint records must survive a crash via WAL replay alone.
    ASSERT_TRUE(stack.manager->RecordBatch(Churn(id, 16, 2)).ok());
    ASSERT_TRUE(stack.manager->ApplyPendingDeltas().ok());
    before = stack.Estimates();
  }
  {
    Stack stack;
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    const RecoveryReport& report = store->report();
    EXPECT_TRUE(report.snapshot_loaded);
    EXPECT_EQ(report.wal_delta_records, 16u);
    EXPECT_EQ(before, stack.Estimates());
  }
}

TEST(RecoveryTest, FallsBackPastCorruptNewestSnapshot) {
  const std::string dir = MakeTempDir("recfall");
  std::vector<double> before;
  uint64_t newest_seq = 0;
  {
    Stack stack;
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    stack.RegisterDemoColumns();
    const RefreshColumnId id =
        stack.manager->Lookup("orders", "item_id").ValueOrDie();
    ASSERT_TRUE(stack.manager->RecordBatch(Churn(id, 32, 5)).ok());
    ASSERT_TRUE(store->WriteSnapshot().ok());  // seq 1
    ASSERT_TRUE(stack.manager->RecordBatch(Churn(id, 32, 6)).ok());
    ASSERT_TRUE(store->WriteSnapshot().ok());  // seq 2
    ASSERT_TRUE(stack.manager->ApplyPendingDeltas().ok());
    before = stack.Estimates();

    Result<std::vector<SnapshotFileInfo>> snapshots = ListSnapshotFiles(dir);
    ASSERT_TRUE(snapshots.ok());
    ASSERT_EQ(snapshots->size(), 2u);
    newest_seq = snapshots->back().seq;

    // Flip one payload byte of the newest snapshot: its section CRC breaks.
    std::fstream file(snapshots->back().path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    file.seekg(size / 2);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(size / 2);
    file.write(&byte, 1);
  }
  {
    Stack stack;
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    const RecoveryReport& report = store->report();
    EXPECT_TRUE(report.snapshot_loaded);
    EXPECT_EQ(report.snapshots_skipped, 1u);
    EXPECT_LT(report.snapshot_seq, newest_seq);
    // Retention retired the WAL only through the OLDEST retained snapshot,
    // so the older image plus replay still reaches the present state.
    EXPECT_GT(report.wal_delta_records, 0u);
    EXPECT_EQ(before, stack.Estimates());
  }
}

TEST(RecoveryTest, RetentionKeepsConfiguredSnapshotCount) {
  const std::string dir = MakeTempDir("reckeep");
  Stack stack;
  auto store = OpenStore(dir, /*keep_snapshots=*/2);
  ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
  stack.RegisterDemoColumns();
  const RefreshColumnId id =
      stack.manager->Lookup("orders", "customer_id").ValueOrDie();
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(stack.manager->RecordBatch(Churn(id, 8, round)).ok());
    ASSERT_TRUE(store->WriteSnapshot().ok());
  }
  Result<std::vector<SnapshotFileInfo>> snapshots = ListSnapshotFiles(dir);
  ASSERT_TRUE(snapshots.ok());
  ASSERT_EQ(snapshots->size(), 2u);
  EXPECT_EQ(snapshots->front().seq, 4u);
  EXPECT_EQ(snapshots->back().seq, 5u);
  // Covered WAL segments retired along the way.
  EXPECT_GT(store->wal_stats().segments_retired, 0u);
}

TEST(RecoveryTest, LsnsContinueAcrossRestarts) {
  const std::string dir = MakeTempDir("reclsn");
  uint64_t next_before = 0;
  {
    Stack stack;
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    stack.RegisterDemoColumns();
    const RefreshColumnId id =
        stack.manager->Lookup("orders", "customer_id").ValueOrDie();
    ASSERT_TRUE(stack.manager->RecordBatch(Churn(id, 10, 0)).ok());
    next_before = store->wal_stats().next_lsn;
    EXPECT_EQ(next_before, 13u);  // 2 registrations + 10 deltas + 1
  }
  {
    Stack stack;
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    // A restarted writer never reuses an assigned LSN.
    EXPECT_EQ(store->wal_stats().next_lsn, next_before);
    const RefreshColumnId id =
        stack.manager->Lookup("orders", "customer_id").ValueOrDie();
    ASSERT_TRUE(stack.manager->RecordBatch(Churn(id, 1, 0)).ok());
    EXPECT_EQ(store->wal_stats().next_lsn, next_before + 1);
  }
}

TEST(RecoveryTest, RecoveryIsIdempotentAcrossRepeatedRestarts) {
  const std::string dir = MakeTempDir("recidem");
  std::vector<double> before;
  {
    Stack stack;
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    stack.RegisterDemoColumns();
    const RefreshColumnId id =
        stack.manager->Lookup("orders", "item_id").ValueOrDie();
    ASSERT_TRUE(stack.manager->RecordBatch(Churn(id, 48, 9)).ok());
    ASSERT_TRUE(stack.manager->ApplyPendingDeltas().ok());
    before = stack.Estimates();
  }
  // Three crash/recover cycles without new writes: state must not drift.
  for (int cycle = 0; cycle < 3; ++cycle) {
    Stack stack;
    auto store = OpenStore(dir);
    ASSERT_TRUE(store->RecoverAndAttach(stack.manager.get()).ok());
    EXPECT_EQ(before, stack.Estimates()) << "cycle " << cycle;
  }
}

TEST(RecoveryTest, OpenRejectsEmptyDataDir) {
  StorageOptions options;
  EXPECT_FALSE(RecoveryManager::Open(options).ok());
}

TEST(RecoveryTest, WriteSnapshotBeforeRecoverIsRefused) {
  const std::string dir = MakeTempDir("recearly");
  auto store = OpenStore(dir);
  EXPECT_FALSE(store->WriteSnapshot().ok());
}

}  // namespace
}  // namespace hops::storage
