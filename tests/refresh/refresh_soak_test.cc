// Durability and the daemon together (DESIGN.md §8, §13): a
// RefreshManager with a RecoveryManager attached (batch fsync),
// multi-producer writers (singles and atomic batches), reader threads
// serving estimates from the published snapshots, the RefreshDaemon
// ticking, and a checkpoint taken mid-churn — all at once. Run under
// -DHOPS_SANITIZE=thread in CI (scripts/check.sh --tsan).
//
// Invariants proved from the reader side:
//   1. source_version is monotone (one RCU swap per tick, never a torn
//      catalog);
//   2. every published column is internally consistent (scalar num_tuples
//      matches its compiled histogram's total mass);
//   3. estimates stay finite and nonnegative.
// And after the drain: exact mass reconciliation — no delta lost or
// double-applied — and a warm restart of the data dir that keeps every
// column's mass and serves bit-identical estimates.
//
// This suite is its own binary so the sanitizer job can run exactly the
// concurrency-sensitive tests (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "estimator/serving.h"
#include "refresh/refresh_daemon.h"
#include "refresh/refresh_manager.h"
#include "storage/recovery.h"

namespace hops {
namespace {

constexpr int kColumns = 4;
constexpr const char* kTables[kColumns] = {"fact", "dim", "orders", "items"};
constexpr double kInitialMass = 400.0 + 200.0 + 18 * 10.0;

Result<RefreshColumnId> RegisterSkewed(RefreshManager* manager,
                                       const std::string& table,
                                       const std::string& column) {
  std::vector<int64_t> values;
  std::vector<double> freqs;
  for (int64_t v = 1; v <= 20; ++v) {
    values.push_back(v);
    freqs.push_back(v == 1 ? 400.0 : v == 2 ? 200.0 : 10.0);
  }
  return manager->RegisterColumn(table, column, values, freqs);
}

std::unique_ptr<storage::RecoveryManager> OpenStore(const std::string& dir) {
  storage::StorageOptions options;
  options.data_dir = dir;
  options.durability = storage::WalFsync::kBatch;
  auto opened = storage::RecoveryManager::Open(options);
  EXPECT_TRUE(opened.ok()) << opened.status().message();
  return std::move(opened).ValueOrDie();
}

// Equality and join estimates over every column pair, as raw doubles.
std::vector<double> Estimates(const CatalogSnapshot& snapshot) {
  std::vector<ColumnId> ids;
  for (const char* table : kTables) {
    Result<ColumnId> id = snapshot.Resolve(table, "key");
    EXPECT_TRUE(id.ok()) << table;
    if (!id.ok()) return {};
    ids.push_back(*id);
  }
  std::vector<EstimateSpec> specs;
  for (ColumnId id : ids) {
    for (int64_t v : {1, 2, 7, 100, 101, 102, 103}) {
      specs.push_back(EstimateSpec::Equality(id, Value(v)));
    }
  }
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    specs.push_back(EstimateSpec::Join(ids[i], ids[i + 1]));
  }
  std::vector<double> out;
  for (const Result<double>& estimate : EstimateBatch(snapshot, specs)) {
    EXPECT_TRUE(estimate.ok());
    out.push_back(estimate.ok() ? *estimate : -1.0);
  }
  return out;
}

TEST(RefreshSoakTest, WritersReadersDaemonCheckpointAndRestart) {
  std::string dir = ::testing::TempDir() + "hops_refreshsoak_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);

  Catalog catalog;
  SnapshotStore store;
  RefreshOptions options;
  options.queue_capacity = 256;  // exercise producer backpressure
  options.maintenance.rebuild_drift_fraction = 0.02;  // rebuild often
  RefreshManager manager(&catalog, &store, options);
  std::unique_ptr<storage::RecoveryManager> durable = OpenStore(dir);
  ASSERT_TRUE(durable->RecoverAndAttach(&manager).ok());

  std::vector<RefreshColumnId> ids;
  for (int c = 0; c < kColumns; ++c) {
    auto id = RegisterSkewed(&manager, kTables[c], "key");
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  RefreshDaemonOptions daemon_options;
  daemon_options.tick_interval_micros = 200;
  RefreshDaemon daemon(&manager, daemon_options);
  ASSERT_TRUE(daemon.Start().ok());

  constexpr int kWriters = 4;
  constexpr int kSingleOps = 1500;   // per singles writer
  constexpr int kBatches = 500;      // per batch writer (3 records each)
  constexpr uint64_t kExpectedRecords =
      2ull * kSingleOps + 2ull * kBatches * 3ull;
  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> acked{0};
  std::atomic<int> reader_failures{0};

  // Writers 0/1 use the single-record path; writers 2/3 use atomic
  // RecordBatch calls. Each writer owns a fresh value on its column, so
  // maintained mass tracks ideal mass exactly.
  std::vector<int> net_growth(kWriters, 0);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const RefreshColumnId column = ids[static_cast<size_t>(w) % kColumns];
      const int64_t owned = 100 + w;
      if (w < 2) {
        int net = 0;
        for (int i = 0; i < kSingleOps; ++i) {
          // Two inserts then a delete: net growth, never below zero.
          if (i % 3 == 2 && net > 0) {
            ASSERT_TRUE(manager.RecordDelete(column, owned).ok());
            --net;
          } else {
            ASSERT_TRUE(manager.RecordInsert(column, owned).ok());
            ++net;
          }
          acked.fetch_add(1, std::memory_order_relaxed);
        }
        net_growth[w] = net;
      } else {
        // insert, insert, delete — applied in order, so the owned value
        // never dips below zero; net +1 per batch.
        const std::vector<UpdateRecord> batch = {
            UpdateRecord{column, owned, +1.0},
            UpdateRecord{column, owned, +1.0},
            UpdateRecord{column, owned, -1.0}};
        for (int i = 0; i < kBatches; ++i) {
          ASSERT_TRUE(manager.RecordBatch(batch).ok());
          acked.fetch_add(batch.size(), std::memory_order_relaxed);
        }
        net_growth[w] = kBatches;
      }
    });
  }

  // One checkpoint mid-churn: it drains the queue under the manager mutex
  // while the daemon and the writers keep going.
  std::thread checkpointer([&] {
    while (acked.load(std::memory_order_relaxed) < kExpectedRecords / 2 &&
           !writers_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(durable->WriteSnapshot().ok());
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last_version = 0;
      while (!writers_done.load(std::memory_order_acquire)) {
        std::shared_ptr<const CatalogSnapshot> snapshot = store.Current();
        // (1) Monotone publication.
        if (snapshot->source_version() < last_version) {
          ++reader_failures;
          return;
        }
        last_version = snapshot->source_version();
        // (2) Internal consistency of every column.
        for (ColumnId id = 0; id < snapshot->num_columns(); ++id) {
          const CompiledColumnStats& stats = snapshot->stats(id);
          if (stats.histogram == nullptr) {
            ++reader_failures;
            return;
          }
          const double mass = stats.histogram->EstimatedTotal();
          if (std::fabs(mass - stats.num_tuples) >
              1e-6 * (1.0 + stats.num_tuples)) {
            ++reader_failures;
            return;
          }
        }
        // (3) Estimates across columns stay well-formed.
        auto fact = snapshot->Resolve("fact", "key");
        auto dim = snapshot->Resolve("dim", "key");
        if (!fact.ok() || !dim.ok()) {
          ++reader_failures;
          return;
        }
        std::vector<EstimateSpec> specs;
        specs.push_back(EstimateSpec::Equality(*fact, Value(int64_t{1})));
        specs.push_back(EstimateSpec::Equality(*fact, Value(int64_t{100})));
        specs.push_back(EstimateSpec::Equality(*dim, Value(int64_t{101})));
        specs.push_back(EstimateSpec::Join(*fact, *dim));
        for (const Result<double>& estimate : EstimateBatch(*snapshot, specs)) {
          if (!estimate.ok() || !std::isfinite(*estimate) || *estimate < 0) {
            ++reader_failures;
            return;
          }
        }
      }
    });
  }

  for (auto& thread : writers) thread.join();
  writers_done.store(true, std::memory_order_release);
  checkpointer.join();
  for (auto& thread : readers) thread.join();

  ASSERT_TRUE(daemon.DrainAndStop().ok());
  // The final checkpoint, as serve_estimates takes it on SIGTERM.
  ASSERT_TRUE(durable->CloseAndSnapshot().ok());
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_EQ(manager.pending_update_records(), 0u);
  EXPECT_EQ(acked.load(), kExpectedRecords);

  RefreshStats stats = manager.stats();
  EXPECT_EQ(stats.deltas_applied, kExpectedRecords);
  EXPECT_EQ(stats.unknown_column_records, 0u);
  EXPECT_GE(stats.republish_count, 1u);
  EXPECT_GT(stats.ticks, 0u);
  EXPECT_EQ(stats.log.enqueued, kExpectedRecords);
  EXPECT_EQ(stats.log.drained, kExpectedRecords);
  // With a 2% drift policy under this much churn, rebuilds must have fired.
  EXPECT_GE(stats.rebuilds_total, 1u);

  // Exact mass reconciliation, column by column: registered mass plus the
  // acknowledged deltas.
  double expected_mass[kColumns];
  for (double& mass : expected_mass) mass = kInitialMass;
  for (int w = 0; w < kWriters; ++w) {
    expected_mass[w % kColumns] += net_growth[w];
  }
  const std::shared_ptr<const CatalogSnapshot> before = store.Current();
  for (int c = 0; c < kColumns; ++c) {
    auto column = before->Resolve(kTables[c], "key");
    ASSERT_TRUE(column.ok());
    EXPECT_EQ(before->stats(*column).num_tuples, expected_mass[c])
        << kTables[c];
  }

  // Warm restart of the same data dir: the image recovers every column's
  // mass and serves the same bits.
  Catalog restored_catalog;
  SnapshotStore restored_store;
  RefreshManager restored(&restored_catalog, &restored_store, RefreshOptions{});
  std::unique_ptr<storage::RecoveryManager> reopened = OpenStore(dir);
  ASSERT_TRUE(reopened->RecoverAndAttach(&restored).ok());
  EXPECT_TRUE(reopened->report().snapshot_loaded);
  EXPECT_EQ(reopened->report().wal_delta_records, 0u);
  const std::shared_ptr<const CatalogSnapshot> after = restored_store.Current();
  for (int c = 0; c < kColumns; ++c) {
    auto column = after->Resolve(kTables[c], "key");
    ASSERT_TRUE(column.ok());
    EXPECT_EQ(after->stats(*column).num_tuples, expected_mass[c])
        << kTables[c];
  }
  EXPECT_EQ(Estimates(*before), Estimates(*after));
  ASSERT_TRUE(reopened->CloseAndSnapshot().ok());
}

}  // namespace
}  // namespace hops
